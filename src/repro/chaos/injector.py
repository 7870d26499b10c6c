"""The chaos injector: applies a disruption schedule to a live run.

:class:`ChaosInjector` is the stateful bridge between a pure-data
:class:`~repro.chaos.DisruptionSchedule` and the hosts that honour it — an
:class:`~repro.engine.OnlineTieringEngine` or a
:class:`~repro.fleet.FleetScheduler`.  The hosts call a small fixed hook
surface at their window boundaries (``before_engine_window`` /
``before_fleet_window``, ``check_fleet_window``, ``joiners_in_window``,
``take_forced_tenants``)
and around their one solve (``degrade_solve`` when it is infeasible, then
``note_migration`` and ``note_relaxation``, each keyed by the window index
the host passes); everything else — outage bookkeeping, affinity lifting,
catalog re-pricing, pool resizing, tenant churn, DegradationReport
accumulation and ``chaos.*`` observability — lives here.

Schedules are keyed by integer month marks; a disruption lands at the
boundary of the window whose ``[start_month, end_month)`` span covers its
mark, so a dense month ``[e, e + 1)`` applies exactly mark ``e``.  Every
record of a window's chaos (each event's description, the actions and SLO
violations its application takes, and the solve's ladder, relaxation and
evacuation notes) is filed under that window's index, so one disruption's
record is one report; on month-aligned windows the index is the mark.
Spans and error text name the mark.

Disruption semantics, in host terms:

* **Outage** — the dead provider's tier indices are banned on every engine
  (masked infeasible in the next problem build), residency pins stranded
  without a live tier are suspended (recorded as SLO violations), and any
  tenant with residents on the dead tiers is marked for *forced firing* this
  window: the evacuation cannot wait for policy drift.  The executor waives
  early-deletion penalties on moves off banned tiers, so evacuation traffic
  is billed exactly once (move + egress).
* **Recovery** — tiers are un-banned and suspended pins re-armed, but *no*
  solve is forced: the restored pins make evacuated placements violate
  affinity again, so the next policy-driven re-optimization moves data home
  (re-admission at reopt time, never mid-window).
* **Price shock** — the shared catalog is re-priced in place, which bumps
  its ``pricing_version``: settle blocks compile their engines' prices
  again, so the very next settle bills post-shock prices, and the host's
  delta solver is invalidated selectively: only rows whose standing choice
  sits on a re-priced tier must re-solve when prices only went up,
  everything when any price dropped.
* **Pool shock** — the shared pool's budget changes in place; the next
  stacked solve arbitrates against it.
* **Churn** — ``TenantJoin`` admits a spec mid-run and ``TenantLeave``
  retires one, releasing its pool reservations and delta-cache rows.  On
  dense input the fleet feeds a joiner from its spec's stream, shifted to
  start at the join month; on stream input the joiner settles empty
  windows until its own events arrive.

An injector instance is single-run state (outage bookkeeping, forced-tenant
marks, accumulated reports): attach a fresh one per run.
"""

from __future__ import annotations

import math
from typing import Callable

from ..core.optassign import InfeasibleError, solve_optassign
from ..core.optassign.stacked import TENANT_SEPARATOR
from ..obs import get_metrics, get_tracer
from .events import (
    DisruptionEvent,
    DisruptionSchedule,
    PoolShock,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
    TenantJoin,
    TenantLeave,
)
from .report import DegradationAction, DegradationReport

__all__ = ["ChaosInjector"]

class ChaosInjector:
    """Applies a :class:`DisruptionSchedule` to one engine- or fleet-run."""

    def __init__(self, schedule: DisruptionSchedule):
        if not isinstance(schedule, DisruptionSchedule):
            raise TypeError(
                f"ChaosInjector needs a DisruptionSchedule, got {schedule!r}"
            )
        self.schedule = schedule
        #: One :class:`DegradationReport` per window index that saw any
        #: chaos activity, in window order.
        self.reports: list[DegradationReport] = []
        self._reports_by_epoch: dict[int, DegradationReport] = {}
        # provider -> the tier indices its outage banned (unban set at
        # recovery); the union across active outages is the banned set.
        self._outages: dict[str, tuple[int, ...]] = {}
        self._forced_tenants: set[str] = set()

    # -- shared bookkeeping ------------------------------------------------------
    @property
    def banned_tiers(self) -> frozenset[int]:
        """Tier indices dead under the currently active outages."""
        return frozenset(
            index for dead in self._outages.values() for index in dead
        )

    def report_for(self, epoch: int) -> DegradationReport:
        """The report of window index ``epoch``, created on first use."""
        report = self._reports_by_epoch.get(epoch)
        if report is None:
            report = DegradationReport(epoch=epoch)
            self._reports_by_epoch[epoch] = report
            self.reports.append(report)
        return report

    def _record_action(self, epoch: int, action: DegradationAction) -> None:
        self.report_for(epoch).actions.append(action)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("chaos.degradations", action=action.kind).add(1)

    @staticmethod
    def _dead_tiers(catalog, provider: str, outages: dict) -> list[int]:
        """The catalog tier indices an outage of ``provider`` takes down
        while ``outages`` (provider -> its dead tiers) are active.

        Validated here — not in the problem constructor — so a bad schedule
        raises at the epoch boundary with an outage-shaped message instead
        of surfacing later as a constructor error mid-solve.
        """
        tier_indices_of = getattr(catalog, "tier_indices_of", None)
        if tier_indices_of is None:
            raise ValueError(
                "provider outages need a MultiProviderCatalog; a "
                "single-provider catalog has no other provider to fail over to"
            )
        if provider not in catalog.provider_names:
            raise ValueError(
                f"unknown provider {provider!r}; the catalog has "
                f"{list(catalog.provider_names)}"
            )
        dead = tier_indices_of(provider)
        banned = {index for tiers in outages.values() for index in tiers}
        if len(banned | set(dead)) >= len(catalog):
            raise ValueError(
                f"outage of provider {provider!r} would take down every tier "
                "in the catalog; nothing could host the evacuated data"
            )
        return dead

    @staticmethod
    def _allowed_providers(entry) -> set[str]:
        return {entry} if isinstance(entry, str) else set(entry)

    def _lift_stranded(self, engine, catalog) -> list[str]:
        """Suspend residency pins with no live tier left; returns them."""
        affinity = engine._provider_affinity
        if not affinity:
            return []
        banned = self.banned_tiers
        live = {
            catalog.provider_of(index)
            for index in range(len(catalog))
            if index not in banned
        }
        stranded = [
            name
            for name, entry in affinity.items()
            if not (self._allowed_providers(entry) & live)
        ]
        return engine.lift_provider_affinity(stranded)

    def _apply_outage(self, engines: dict, catalog, index: int, event) -> None:
        """Ban the provider's tiers on every engine; mark evacuating tenants.
        The stranded pins and the actions go to window ``index``'s report.

        ``engines`` maps tenant name -> engine; the single-engine host
        passes ``{"": engine}`` and the empty tenant tag is stripped from
        recorded partition names.
        """
        dead = self._dead_tiers(catalog, event.provider, self._outages)
        self._outages[event.provider] = tuple(dead)
        report = self.report_for(index)
        banned = self.banned_tiers
        evacuating: list[str] = []
        stranded_all: list[str] = []
        for tenant, engine in engines.items():
            tag = f"{tenant}{TENANT_SEPARATOR}" if tenant else ""
            residents = engine.partitions_on_tiers(dead)
            engine.set_banned_tiers(banned)
            stranded = self._lift_stranded(engine, catalog)
            stranded_all.extend(f"{tag}{name}" for name in stranded)
            if residents:
                if tenant:
                    self._forced_tenants.add(tenant)
                evacuating.extend(f"{tag}{name}" for name in residents)
        if stranded_all:
            report.slo_violations.extend(stranded_all)
            self._record_action(
                index,
                DegradationAction(
                    kind="affinity_lifted",
                    detail=(
                        f"outage of provider {event.provider!r} stranded "
                        f"{len(stranded_all)} residency pin(s)"
                    ),
                    partitions=tuple(stranded_all),
                ),
            )
        if evacuating:
            self._record_action(
                index,
                DegradationAction(
                    kind="forced_evacuation",
                    detail=(
                        f"{len(evacuating)} partition(s) evacuated off "
                        f"provider {event.provider!r}"
                    ),
                    partitions=tuple(evacuating),
                ),
            )
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("chaos.evacuated_partitions").add(
                    len(evacuating)
                )
        self._evacuating = bool(evacuating)

    def _apply_recovery(self, engines: dict, catalog, mark: int, event) -> None:
        if event.provider not in self._outages:
            raise ValueError(
                f"provider {event.provider!r} is not down at epoch {mark}"
            )
        del self._outages[event.provider]
        banned = self.banned_tiers
        for engine in engines.values():
            engine.set_banned_tiers(banned)
            engine.restore_provider_affinity()
            # Pins stranded by a *different*, still-active outage stay lifted.
            self._lift_stranded(engine, catalog)

    @staticmethod
    def _shocked_tiers(catalog, event: PriceShock) -> tuple[str, ...] | None:
        """The names of the tiers ``event`` re-prices (``None``: every
        tier); raises for a provider scope the catalog cannot resolve."""
        if event.provider is None:
            return event.tier_names
        tier_indices_of = getattr(catalog, "tier_indices_of", None)
        if tier_indices_of is None:
            raise ValueError("provider-scoped price shocks need a MultiProviderCatalog")
        return tuple(catalog[index].name for index in tier_indices_of(event.provider))

    def _apply_price_shock(self, catalog, delta, event) -> None:
        """Re-price ``catalog`` in place and note it on the host's delta
        solver (``None`` when the host solves in full)."""
        affected = catalog.reprice(
            self._shocked_tiers(catalog, event),
            storage_factor=event.storage_factor,
            read_factor=event.read_factor,
            write_factor=event.write_factor,
        )
        if delta is not None:
            delta.note_repricing(catalog, affected, decreased=event.decreased)

    # -- window boundaries -------------------------------------------------------
    def _check_marks(
        self,
        catalog,
        start_month: float,
        end_month: float,
        check: Callable[[DisruptionEvent], None],
    ) -> None:
        """Raise what applying the disruptions of the span ``[start_month,
        end_month)`` would raise, in mark order, applying nothing: each
        outage against ``catalog`` and the outages active before it (the
        window's own outages and recoveries included) and each price
        shock's tiers against ``catalog``; ``check(event)`` checks every
        other event.  A schedule pairs every recovery with an earlier
        outage, so a recovery needs no check."""
        outages = dict(self._outages)
        for epoch in self._epochs_in_window(start_month, end_month):
            for event in self.schedule.at(epoch):
                if isinstance(event, ProviderOutage):
                    outages[event.provider] = tuple(
                        self._dead_tiers(catalog, event.provider, outages)
                    )
                elif isinstance(event, ProviderRecovery):
                    outages.pop(event.provider, None)
                elif isinstance(event, PriceShock):
                    for name in self._shocked_tiers(catalog, event) or ():
                        catalog.index_of(name)  # KeyError, as reprice raises
                else:
                    check(event)

    @staticmethod
    def _epochs_in_window(start_month: float, end_month: float) -> range:
        """Integer schedule marks falling inside ``[start_month, end_month)``.

        Half-open windows apply each mark exactly once, and a month-aligned
        window ``[e, e + 1)`` applies exactly mark ``e``.
        """
        return range(math.ceil(start_month), math.ceil(end_month))

    def _apply_marks(
        self,
        index: int,
        start_month: float,
        end_month: float,
        apply: Callable[[int, DisruptionEvent], bool | None],
    ) -> bool:
        """Apply every scheduled disruption whose mark lies in window
        ``index``'s span ``[start_month, end_month)`` through
        ``apply(mark, event)``, in mark order, describing each in the
        window's report; True when any ``apply`` returned True."""
        force = False
        tracer = get_tracer()
        metrics = get_metrics()
        for mark in self._epochs_in_window(start_month, end_month):
            events = self.schedule.at(mark)
            if not events:
                continue
            with tracer.span("chaos.apply", epoch=mark, events=len(events)):
                for event in events:
                    with tracer.span("chaos.event", kind=event.kind, epoch=mark):
                        self.report_for(index).events.append(event.describe())
                        force = bool(apply(mark, event)) or force
                    if metrics.enabled:
                        metrics.counter("chaos.events", kind=event.kind).add(1)
        return force

    # -- engine host -------------------------------------------------------------
    def before_engine_window(
        self, engine, index: int, start_month: float, end_month: float
    ) -> bool:
        """Apply the window's disruptions to a single engine.

        Returns True when the engine must re-optimize this window regardless
        of its policy (a forced evacuation is pending).  A window holding a
        fleet-level event, or a disruption that cannot apply
        (:meth:`_check_marks`), raises before any of its disruptions
        applies.
        """

        def fleet_level(event: DisruptionEvent) -> None:
            raise ValueError(
                f"{event.kind} events are fleet-level; attach the "
                "injector to a FleetScheduler instead of a bare engine"
            )

        self._check_marks(engine.tiers, start_month, end_month, fleet_level)
        return self._apply_marks(
            index,
            start_month,
            end_month,
            lambda mark, event: self._apply_engine_event(engine, index, mark, event),
        )

    def _apply_engine_event(self, engine, index: int, mark: int, event) -> bool:
        """Apply one disruption of mark ``mark`` to a single engine in window
        ``index``; True when it forces a re-optimization."""
        if isinstance(event, ProviderOutage):
            self._apply_outage({"": engine}, engine.tiers, index, event)
            return self._evacuating
        if isinstance(event, ProviderRecovery):
            self._apply_recovery({"": engine}, engine.tiers, mark, event)
        elif isinstance(event, PriceShock):
            self._apply_price_shock(engine.tiers, engine._delta, event)
        else:  # pragma: no cover - closed taxonomy
            raise TypeError(f"unhandled event {event!r}")
        return False

    # -- fleet host --------------------------------------------------------------
    def before_fleet_window(
        self, scheduler, index: int, start_month: float, end_month: float
    ) -> None:
        """Apply the window's disruptions to the whole fleet (the roster may
        change)."""
        self._apply_marks(
            index,
            start_month,
            end_month,
            lambda mark, event: self._apply_fleet_event(scheduler, index, mark, event),
        )

    def joiners_in_window(self, start_month: float, end_month: float) -> list:
        """The specs of the tenants :meth:`before_fleet_window` admits for
        the span ``[start_month, end_month)``, in mark order.  Pure."""
        return [
            event.spec
            for epoch in self._epochs_in_window(start_month, end_month)
            for event in self.schedule.at(epoch)
            if isinstance(event, TenantJoin)
        ]

    def check_fleet_window(
        self, scheduler, start_month: float, end_month: float
    ) -> list:
        """Raise what :meth:`before_fleet_window` would raise on the
        disruptions of the span ``[start_month, end_month)``, in mark
        order, applying nothing: the outages and price shocks as
        :meth:`_check_marks` checks them, each ``TenantJoin`` against the
        fleet's admission checks and each ``TenantLeave`` against the
        roster, both as the window's earlier joins and leaves change them,
        and each ``PoolShock`` against the fleet's pools.  Returns the
        joiners' specs in mark order, so the fleet can check their windows
        too."""
        used = set(scheduler._records)
        roster = {spec.name: spec for spec in scheduler.tenants}
        joiners = []

        def churn(event: DisruptionEvent) -> None:
            if isinstance(event, TenantJoin):
                spec = event.spec
                scheduler._check_admission(spec, used, roster.values())
                used.add(spec.name)
                roster[spec.name] = spec
                joiners.append(spec)
            elif isinstance(event, TenantLeave):
                if roster.pop(event.tenant, None) is None:
                    raise KeyError(f"unknown tenant {event.tenant!r}")
            elif isinstance(event, PoolShock):
                self._shocked_capacity(scheduler.pools, event)

        self._check_marks(scheduler.tiers, start_month, end_month, churn)
        return joiners

    @staticmethod
    def _shocked_capacity(pools, event: PoolShock) -> float:
        """The budget ``event`` gives its pool; raises when the fleet has
        no pools or no pool of that name."""
        if pools is None:
            raise ValueError(
                f"pool shock on {event.pool!r} but the fleet has no "
                "shared capacity pools"
            )
        by_name = {pool.name: pool.capacity_gb for pool in pools}
        if event.pool not in by_name:
            raise KeyError(f"unknown pool {event.pool!r}; have {sorted(by_name)}")
        if event.capacity_gb is not None:
            return event.capacity_gb
        return by_name[event.pool] * event.capacity_factor

    def _apply_fleet_event(
        self, scheduler, index: int, mark: int, event: DisruptionEvent
    ) -> None:
        catalog = scheduler.tiers
        if isinstance(event, ProviderOutage):
            self._apply_outage(scheduler.engines, catalog, index, event)
        elif isinstance(event, ProviderRecovery):
            self._apply_recovery(scheduler.engines, catalog, mark, event)
        elif isinstance(event, PriceShock):
            self._apply_price_shock(catalog, scheduler._delta, event)
        elif isinstance(event, PoolShock):
            capacity = self._shocked_capacity(scheduler.pools, event)
            scheduler.pools.set_capacity(event.pool, capacity)
        elif isinstance(event, TenantJoin):
            engine = scheduler.add_tenant(event.spec)
            # The joiner enters the current world: active outages apply.
            if self._outages:
                engine.set_banned_tiers(self.banned_tiers)
                self._lift_stranded(engine, catalog)
        elif isinstance(event, TenantLeave):
            scheduler.remove_tenant(event.tenant)  # raises KeyError if unknown
            self._forced_tenants.discard(event.tenant)
        else:  # pragma: no cover - closed taxonomy
            raise TypeError(f"unhandled event {event!r}")

    def take_forced_tenants(self) -> set[str]:
        """Tenants that must re-solve this window (evacuations); clears them."""
        forced = self._forced_tenants
        self._forced_tenants = set()
        return forced

    # -- both hosts ----------------------------------------------------------------
    def degrade_solve(self, index: int, stacked, engines, error, pools=None):
        """A host's solve of window ``index`` raised ``error``: walk the one
        degradation ladder.  Returns the retry's ``(assignment, latency
        relaxation)``, or ``None`` when the firing engines froze.

        Rung 1 — when shared ``pools`` are in play, re-solve the stacked
        instance with them suspended (tier feasibility, SLOs and the
        relaxation ladder still apply).  Rung 2 — freeze: the host applies
        nothing and every firing engine bills at its standing placement.  A
        firing engine with no placement to freeze at (a bootstrap) cannot
        freeze, so the last error is raised again.  Actions are keyed by
        ``index``, as the host's other notes are.
        """
        with get_tracer().span("chaos.degradation", epoch=index):
            if pools is not None:
                try:
                    retry = solve_optassign(stacked.problem)
                except InfeasibleError as second_error:
                    error = second_error
                else:
                    self._record_action(
                        index,
                        DegradationAction(
                            kind="pool_budget_suspended",
                            detail=(
                                "stacked solve infeasible under shared pool "
                                f"budgets; re-solved without them: {error}"
                            ),
                        ),
                    )
                    return retry.assignment, retry.latency_relaxation
            if not all(engine.has_placement for engine in engines):
                raise error
            self._record_action(
                index,
                DegradationAction(
                    kind="placement_frozen",
                    detail=(
                        "re-optimization infeasible; standing placements "
                        f"frozen: {error}"
                    ),
                ),
            )
            return None

    # -- billing / telemetry hooks ----------------------------------------------
    def note_migration(
        self, epoch: int, migration, banned_tiers, tenant: str | None = None
    ) -> None:
        """Attribute evacuation traffic (moves off banned tiers) to chaos."""
        if migration is None or not banned_tiers:
            return
        cost = migration.evacuation_cost(banned_tiers)
        if cost is None:
            return
        self.report_for(epoch).bill_impact_cents += cost
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("chaos.evacuation_cost_cents").add(cost)

    def note_relaxation(self, epoch: int, factor: float) -> None:
        """Record that the epoch's solve needed latency relaxation."""
        if factor <= 1.0:
            return
        report = self.report_for(epoch)
        if any(
            action.kind == "latency_relaxed" and action.amount == factor
            for action in report.actions
        ):
            return
        self._record_action(
            epoch,
            DegradationAction(
                kind="latency_relaxed",
                detail=(
                    f"latency SLAs widened ×{factor:g} to restore feasibility"
                ),
                amount=factor,
            ),
        )

    # -- summaries ---------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate view over the whole run, for exporters and examples."""
        kinds: dict[str, int] = {}
        for report in self.reports:
            for action in report.actions:
                kinds[action.kind] = kinds.get(action.kind, 0) + 1
        return {
            "epochs_affected": len(self.reports),
            "events_applied": sum(len(report.events) for report in self.reports),
            "actions_by_kind": kinds,
            "slo_violations": sum(
                len(report.slo_violations) for report in self.reports
            ),
            "bill_impact_cents": float(
                sum(report.bill_impact_cents for report in self.reports)
            ),
            "degraded_epochs": sum(
                1 for report in self.reports if report.degraded
            ),
        }
