"""The fleet scheduler: N tenants, one catalog, shared capacity pools.

:class:`FleetScheduler` drives one :class:`~repro.engine.OnlineTieringEngine`
per tenant window-locked over one timeline: a shared trigger cuts the merged
tenant streams into windows (:meth:`FleetScheduler.run_streams`), and a dense
monthly run steps each month as a one-month window
(:meth:`FleetScheduler.run`).  Per window it

1. asks every tenant's policy whether to re-optimize
   (:meth:`~repro.engine.OnlineTieringEngine.begin_window`);
2. plans the firing tenants in one :class:`~repro.engine.WindowPlan` over
   the fleet's :class:`~repro.engine.SettleBlock` columns (every tenant that
   shares a ring width and an EWMA alpha is one block): one forecast pass
   over every firing row of a block, then the warm-started, tenant-tagged
   instance (:class:`~repro.core.optassign.StackedProblem`) assembled from
   the blocks' cached per-tenant parts, and a *single* vectorized solve
   through :func:`~repro.engine.solve_stacked`, the solve a lone engine
   runs too;
3. arbitrates the shared :class:`~repro.cloud.PoolSet` budgets with
   :func:`~repro.core.optassign.repair_pools` — greedy regret-per-GB
   water-filling across every competing tenant, with the standing placements
   of non-firing tenants (each block's cached per-tenant tier usage)
   subtracted from each pool's budget first — then prices every move of the
   window in one pass and writes the placement, clock and price columns,
   giving each tenant its own :class:`~repro.engine.MigrationReport`;
4. settles every tenant (billing, feature store, forecaster) in one pass
   per block.

With slack pools the arbitration is a no-op and every partition keeps its
individually-cheapest option, so a fleet run is **bill-exact** against N
independent single-tenant engine runs (``tests/fleet/test_fleet_invariants.py``),
and the per-tenant plan in ``tests/oracles/plan.py`` stays the oracle of the
plan pass (``tests/fleet/test_plan_pass.py``).  Under contention the
shared budget is water-filled across tenants by regret per GB, which strictly
beats carving the pool into static per-tenant slices (see
``examples/fleet_tiering.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..cloud import (
    EventBatch,
    PartitionArrays,
    PoolSet,
    TierCatalog,
    TimedEvent,
    iter_batches,
    merge_batches,
)
from ..obs import get_metrics, get_tracer
from ..obs.clock import monotonic_s
from ..core.optassign import TENANT_SEPARATOR, DeltaSolver, InfeasibleError
from ..engine import (
    EngineReport,
    EpochBatch,
    OnlineTieringEngine,
    SettleBlock,
    StreamWindow,
    TriggerWindow,
    WindowPlan,
    month_window,
    solve_stacked,
    windowed,
)
from .report import FleetReport, PoolUsageRecord
from .tenants import FleetConfig, TenantSpec

__all__ = ["FleetScheduler"]


class FleetScheduler:
    """Window-locked multi-tenant tiering over shared capacity pools.

    Parameters
    ----------
    tenants:
        The tenant specs.  Names must be unique; policies must not be shared
        between specs (they are stateful).
    tiers:
        The fleet's shared tier catalog.  Its per-tier capacities must be
        unbounded: shared pools *are* the fleet's capacity story — a finite
        ``capacity_gb`` would be enforced across all tenants combined by the
        stacked solve, silently diverging from per-tenant engine semantics.
    pools:
        Optional shared GB budgets spanning tenants, resolved against
        ``tiers``.
    config:
        Fleet knobs; its ``engine`` config is the default for specs without
        their own.  All tenants must price placements identically (same
        horizon, objective weights and compute price) so their problems can
        be stacked into one solve, and a spec's own config must solve as
        that one solve does (the fleet's ``reopt_mode`` and
        ``delta_drift_threshold``).
    chaos:
        Optional :class:`~repro.chaos.ChaosInjector` applying a
        :class:`~repro.chaos.DisruptionSchedule` at window boundaries —
        provider outages (with forced evacuation), price shocks, pool shocks
        and tenant churn.  Without one every chaos code path is inert and
        fleet bills are bit-identical to the pre-chaos code.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        tiers: TierCatalog,
        pools: PoolSet | None = None,
        config: FleetConfig | None = None,
        chaos: object | None = None,
    ):
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        policies = {id(spec.policy) for spec in tenants}
        if len(policies) != len(tenants):
            raise ValueError(
                "tenant specs share a policy instance; policies are stateful "
                "and every tenant needs its own"
            )
        # The fleet's capacity story is shared pools: a per-tier capacity_gb
        # in the catalog would be enforced by the *stacked* solve across all
        # tenants combined — silently different semantics from N independent
        # engine runs, where each account gets the full tier to itself.
        bounded = [tier.name for tier in tiers if tier.capacity_gb != math.inf]
        if bounded:
            raise ValueError(
                "the fleet catalog must be uncapacitated (tier capacities "
                f"{bounded} would be enforced fleet-wide, not per tenant); "
                "model shared budgets as CapacityPools instead"
            )
        if pools is not None and pools.catalog is not tiers:
            raise ValueError(
                "pools were resolved against a different catalog object "
                "than the fleet's tiers"
            )
        self.config = config or FleetConfig()
        self.tenants: tuple[TenantSpec, ...] = tuple(tenants)
        self.tiers = tiers
        self.pools = pools
        self.chaos = chaos

        first = self.tenants[0]
        self._pricing_reference: tuple[str, tuple] = (
            first.name,
            self._pricing_of(first),
        )
        for spec in self.tenants:
            self._check_pricing(spec)

        self.engines: dict[str, OnlineTieringEngine] = {
            spec.name: self._make_engine(spec) for spec in self.tenants
        }
        self._records: dict[str, list] = {spec.name: [] for spec in self.tenants}
        # Policy names survive tenant departure so report() can still cover
        # the epochs a since-departed tenant was billed for.
        self._policy_names: dict[str, str] = {
            spec.name: spec.policy.name for spec in self.tenants
        }
        # Spec streams of chaos TenantJoin tenants on dense input, each with
        # its join month: step_epoch feeds them since run()'s iterators
        # predate them.
        self._join_streams: dict[str, tuple[int, list[EpochBatch]]] = {}
        self._pool_records: list[PoolUsageRecord] = []
        # The live roster's blocks with their tenant names, one per (window
        # width, alpha) group, and each tenant's block and index there;
        # rebuilt on first use after a roster change.
        self._blocks: list[tuple[tuple[str, ...], SettleBlock]] = []
        self._members: dict[str, tuple[SettleBlock, int]] = {}
        # Incremental fleet solves: one DeltaSolver across epochs, keyed by
        # tenant-tagged names so the varying firing subsets merge into a
        # single fleet-wide cache.  Governed by the shared engine config,
        # which every spec's own config must match (_check_pricing).
        self._delta: DeltaSolver | None = (
            DeltaSolver(drift_threshold=self.config.engine.delta_drift_threshold)
            if self.config.engine.reopt_mode == "delta"
            else None
        )

    # -- helpers ---------------------------------------------------------------
    def _pricing_of(self, spec: TenantSpec) -> tuple:
        engine_config = spec.config or self.config.engine
        return (
            engine_config.horizon_months,
            engine_config.compute_cost_per_s,
            engine_config.weights,
        )

    def _check_pricing(self, spec: TenantSpec) -> None:
        """Raise unless ``spec`` prices placements as the first tenant does
        and its own config, if any, solves as the fleet's one solver does."""
        first_name, reference = self._pricing_reference
        if self._pricing_of(spec) != reference:
            raise ValueError(
                f"tenants {first_name!r} and {spec.name!r} price placements "
                "differently (horizon, compute price or weights); stacked "
                "fleet solves require identical pricing"
            )
        own, fleet = spec.config, self.config.engine
        if own is not None and (own.reopt_mode, own.delta_drift_threshold) != (
            fleet.reopt_mode,
            fleet.delta_drift_threshold,
        ):
            raise ValueError(
                f"tenant {spec.name!r} solves with reopt_mode="
                f"{own.reopt_mode!r} and delta_drift_threshold="
                f"{own.delta_drift_threshold!r}, but the fleet solves every "
                f"tenant in one stacked solve with reopt_mode="
                f"{fleet.reopt_mode!r} and delta_drift_threshold="
                f"{fleet.delta_drift_threshold!r}"
            )

    def _make_engine(self, spec: TenantSpec) -> OnlineTieringEngine:
        return OnlineTieringEngine(
            spec.partitions,
            self.tiers,
            spec.policy,
            config=spec.config or self.config.engine,
            profiles=spec.profiles,
            latency_slo_s=spec.latency_slo_s,
            provider_affinity=spec.provider_affinity,
        )

    # -- tenant churn ----------------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> OnlineTieringEngine:
        """Admit a tenant mid-run (chaos ``TenantJoin`` or manual onboarding).

        The spec is validated exactly as at construction (unique never-used
        name, unshared policy, fleet-identical pricing and solver settings).
        Callers stepping the fleet include the tenant in their windows or
        batches from then on; a tenant they leave out settles empty
        windows.
        """
        if spec.name in self._records:
            raise ValueError(
                f"tenant name {spec.name!r} is (or was) already in the fleet"
            )
        if any(spec.policy is existing.policy for existing in self.tenants):
            raise ValueError(
                f"tenant {spec.name!r} shares a policy instance with an "
                "existing tenant; policies are stateful"
            )
        self._check_pricing(spec)
        engine = self._make_engine(spec)
        self.tenants = self.tenants + (spec,)
        self.engines[spec.name] = engine
        self._records[spec.name] = []
        self._policy_names[spec.name] = spec.policy.name
        self._blocks, self._members = [], {}
        return engine

    def remove_tenant(self, name: str) -> None:
        """Retire a tenant mid-run (chaos ``TenantLeave``).

        The engine is dropped, which releases its pool reservations on the
        spot: shared-budget accounting (:meth:`_fleet_tier_usage`) always
        iterates the live engines.  Billed history stays in the fleet report,
        and the fleet delta cache forgets the tenant's rows so a later solve
        never pins against departed state.
        """
        if name not in self.engines:
            raise KeyError(f"unknown tenant {name!r}")
        engine = self.engines.pop(name)
        self.tenants = tuple(spec for spec in self.tenants if spec.name != name)
        self._blocks, self._members = [], {}
        self._join_streams.pop(name, None)
        if self._delta is not None:
            prefix = f"{name}{TENANT_SEPARATOR}"
            self._delta.forget(
                {f"{prefix}{partition.name}" for partition in engine._partitions}
            )

    def _fleet_tier_usage(self, names: Sequence[str]) -> np.ndarray:
        """Summed stored GB per tier across the named tenants' placements,
        added tenant by tenant in the order given.  Each tenant's vector
        comes from its block's cached per-engine usage
        (:meth:`~repro.engine.SettleBlock.tier_usage`)."""
        self._fleet_blocks()
        members = self._members
        usage = np.zeros(len(self.tiers), dtype=np.float64)
        by_block: dict[int, np.ndarray] = {}
        for name in names:
            block, k = members[name]
            matrix = by_block.get(id(block))
            if matrix is None:
                matrix = by_block[id(block)] = block.tier_usage()
            usage += matrix[k]
        return usage

    def _reoptimize(
        self,
        epoch: int,
        firing: Sequence[str],
        order: Sequence[str],
        tracer,
    ) -> dict[str, object]:
        """Plan → solve → apply for the firing tenants: one pass each, in
        the steps and the order of a lone engine's.

        ``epoch`` is the window ordinal.  A
        :class:`~repro.engine.WindowPlan` over the tenants' blocks forecasts
        every firing row and assembles the stacked instance from the blocks'
        columns; :func:`~repro.engine.solve_stacked` solves it against the
        shared pools less what the standing placements hold (a chaos run
        degrades an infeasible solve through the injector's ladder); the
        plan then prices and applies every move.  Returns the per-tenant
        migration reports of an applied solve (empty when placements froze).
        """
        with tracer.span("fleet.build_problem", tenants=len(firing)):
            self._fleet_blocks()
            members = self._members
            plan = WindowPlan(epoch, [(name, *members[name]) for name in firing])
            with tracer.span("engine.forecast", tenants=len(firing)):
                plan.forecast()
            with tracer.span("fleet.stack", tenants=len(firing)):
                stacked = plan.stack()
        reserved = None
        if self.pools is not None:
            with tracer.span("fleet.pool_usage"):
                firing_set = set(firing)
                standing = [name for name in order if name not in firing_set]
                reserved = self.pools.usage(self._fleet_tier_usage(standing))
        engines = [self.engines[name] for name in firing]
        with tracer.span("fleet.solve", tenants=len(firing)):
            try:
                solved = solve_stacked(
                    stacked, engines, self._delta, self.pools, reserved
                )
            except InfeasibleError as error:
                # Calm runs keep their loud fail-fast certificates.
                if self.chaos is None:
                    raise
                solved = self.chaos.degrade_solve(
                    epoch, stacked, engines, error, self.pools
                )
        if solved is None:
            # Frozen placements: nothing applied; the firing engines'
            # pending forecasts are dropped by settle.
            return {}
        assignment, relaxation = solved
        with tracer.span("fleet.apply", tenants=len(firing)):
            with tracer.span("engine.migrate", epoch=epoch) as span:
                reports = plan.apply(assignment)
                span.set(num_moved=sum(report.num_moved for report in reports))
        migrations = dict(zip(firing, reports))
        if self.chaos is not None:
            for name, engine in zip(firing, engines):
                self.chaos.note_migration(
                    epoch, migrations[name], engine.banned_tiers, tenant=name
                )
            self.chaos.note_relaxation(epoch, relaxation)
        return migrations

    def _note_pool_usage(
        self, epoch, order, num_fired, solve_seconds, tracer, window_span
    ) -> None:
        """Record the window's stacked-solve + pool telemetry.

        The per-window record always carries the stacked-solve telemetry
        (solve wall clock is invisible to per-tenant settle timings); the
        pool columns are empty for a pool-less fleet.
        """
        used = (
            self.pools.usage_by_name(self._fleet_tier_usage(order))
            if self.pools is not None
            else {}
        )
        capacity = (
            {pool.name: pool.capacity_gb for pool in self.pools}
            if self.pools is not None
            else {}
        )
        if self._pool_records and self._pool_records[-1].capacity_gb == capacity:
            # Unchanged since the last record: share its snapshot, since a
            # long run keeps one record per window.
            capacity = self._pool_records[-1].capacity_gb
        if tracer.enabled:
            window_span.set(num_reoptimized=num_fired)
            metrics = get_metrics()
            for pool_name, used_gb in used.items():
                metrics.gauge("fleet.pool.used_gb", pool=pool_name).set(
                    used_gb
                )
                budget = capacity[pool_name]
                if math.isfinite(budget) and budget > 0:
                    metrics.gauge(
                        "fleet.pool.utilization", pool=pool_name
                    ).set(used_gb / budget)
        self._pool_records.append(
            PoolUsageRecord(
                epoch=epoch,
                used_gb=used,
                capacity_gb=capacity,
                num_reoptimized=num_fired,
                solve_wall_clock_s=solve_seconds,
            )
        )

    # -- one window --------------------------------------------------------------
    def step_window(self, windows: Mapping[str, StreamWindow]) -> None:
        """Advance every tenant one trigger window (window-locked fleet).

        All provided windows must share the same ``(index, start, end)``
        span — the fleet closes its windows on one shared trigger over the
        *merged* tenant stream (see :meth:`run_streams`), or steps a dense
        month as one window (:meth:`step_epoch`), so tenants stay
        lock-stepped.  Live tenants missing from ``windows`` (e.g. just
        admitted by a chaos ``TenantJoin`` on stream input) settle an empty
        window: storage accrues, no reads.  Windows may carry different
        vocabularies; each tenant's events are resolved through its own
        engine's rows.

        Every live tenant's window is validated — its place on the tenant's
        timeline and every event's partition — before any disruption,
        policy decision, migration or fold, and so is the window of a tenant
        a chaos ``TenantJoin`` admits in this window, against its spec's
        partitions.  A bad window raises with the whole fleet unchanged and
        the corrected window is accepted after.

        A window closed by a drift trigger (``cause == "drift"``) forces
        every tenant to re-optimize: the shared trigger detected fleet-level
        drift, and the stacked solve re-arbitrates the pools for everyone.
        After the solve, one pass per :class:`~repro.engine.SettleBlock`
        settles every tenant: the tenants that share a ring width and an
        EWMA alpha (all of them, unless tenant configs differ there) are
        billed and folded together.
        """
        if not windows:
            raise ValueError("at least one tenant window is required")
        spans = {
            (window.index, window.start_month, window.end_month)
            for window in windows.values()
        }
        if len(spans) != 1:
            raise ValueError(
                f"fleet windows are locked: got mixed spans {sorted(spans)}"
            )
        index, start, end = spans.pop()
        cause = next(iter(windows.values())).cause
        engines = self.engines
        tracer = get_tracer()
        with tracer.span(
            "fleet.window", index=index, cause=cause
        ) as window_span:
            with tracer.span("fleet.validate", tenants=len(windows)):
                rows = {
                    name: engines[name]._window_rows(window)
                    for name, window in windows.items()
                    if name in engines
                }
                if self.chaos is not None:
                    # A tenant this window admits has no engine yet: check
                    # its events against its spec's partitions.
                    for spec in self.chaos.joiners_in_window(start, end):
                        joining = windows.get(spec.name)
                        if joining is not None and len(joining.events):
                            arrays = PartitionArrays.from_partitions(spec.partitions)
                            arrays.event_rows(joining.events)
            if self.chaos is not None:
                # Disruptions whose month marks fall inside this window land
                # at its boundary, before any policy decision or billing.
                self.chaos.before_fleet_window(self, index, start, end)
            order = [spec.name for spec in self.tenants]
            windows = dict(windows)
            for name in order:
                if name not in windows:
                    windows[name] = StreamWindow(
                        index=index,
                        start_month=start,
                        end_month=end,
                        events=EventBatch.empty(name),
                        cause=cause,
                    )
                if name not in rows:
                    rows[name] = engines[name]._window_rows(windows[name])

            force_all = cause == "drift"
            with tracer.span("fleet.decide", tenants=len(order)):
                firing = [
                    name
                    for name in order
                    # begin_window runs for every tenant (timeline
                    # validation + policy bookkeeping) even when a drift
                    # close forces firing.
                    if engines[name].begin_window(index) or force_all
                ]
                if self.chaos is not None:
                    forced = self.chaos.take_forced_tenants() & set(order)
                    if forced - set(firing):
                        firing_set = set(firing) | forced
                        firing = [name for name in order if name in firing_set]
            solve_started = monotonic_s()
            migrations: dict[str, object] = {}
            if firing:
                migrations = self._reoptimize(index, firing, order, tracer)
            solve_seconds = monotonic_s() - solve_started

            with tracer.span("fleet.settle", tenants=len(order)):
                for names, block in self._settle_blocks():
                    records = block.settle(
                        [windows[name] for name in names],
                        [rows[name] for name in names],
                        [migrations.get(name) for name in names],
                        [name in migrations for name in names],
                        started=monotonic_s(),
                    )
                    for name, record in zip(names, records):
                        self._records[name].append(record)

            with tracer.span("fleet.pool_usage"):
                self._note_pool_usage(
                    index, order, len(firing), solve_seconds, tracer, window_span
                )

    def _settle_blocks(self) -> list[tuple[tuple[str, ...], SettleBlock]]:
        """The blocks a window settles through, with each block's tenants
        (:meth:`_fleet_blocks`)."""
        return self._fleet_blocks()

    def _fleet_blocks(self) -> list[tuple[tuple[str, ...], SettleBlock]]:
        """The live roster's blocks, with each block's tenants.

        Tenants are grouped by feature-store window width and forecaster
        alpha, in roster order.  The blocks are built at first use and
        rebuilt after a roster change, or when an engine no longer holds a
        block's columns.
        """
        if not self._blocks or not all(block.intact() for _, block in self._blocks):
            groups: dict[tuple, list[str]] = {}
            for spec in self.tenants:
                engine = self.engines[spec.name]
                key = (engine.feature_store.window_months, engine.forecaster.alpha)
                groups.setdefault(key, []).append(spec.name)
            self._blocks = [
                (
                    tuple(names),
                    SettleBlock([self.engines[name] for name in names], tenants=names),
                )
                for names in groups.values()
            ]
            self._members = {
                name: (block, k)
                for names, block in self._blocks
                for k, name in enumerate(names)
            }
        return self._blocks

    def run_streams(
        self,
        streams: Mapping[str, Iterable[TimedEvent]],
        trigger: TriggerWindow,
        *,
        start_month: float = 0.0,
        horizon_months: float | None = None,
    ) -> FleetReport:
        """Drive the fleet over continuous per-tenant event streams.

        ``streams`` maps every current tenant to a time-ordered event source
        (e.g. per-tenant :class:`~repro.workloads.PoissonZipfStream`\\ s
        with :func:`~repro.workloads.tenant_rate_skew` rates; anything
        :func:`repro.cloud.iter_batches` reads).  The streams are merged
        chunk by chunk into one fleet-wide time-ordered stream (each chunk
        attributed to its mapping key), cut by the *shared* ``trigger``, and
        every closed window is split back into per-tenant windows for
        :meth:`step_window` by one stable sort on the tenant column — so a
        count trigger counts fleet-wide events and a time trigger keeps the
        familiar lock-step grid.  Memory stays O(streams x chunk + open
        window), never O(stream).

        A :class:`~repro.engine.DriftTrigger` used here needs an explicit
        ``baseline_provider``: the merged stream spans tenants, and which
        tenant's forecast to drift against is not the scheduler's call.
        """
        missing = [spec.name for spec in self.tenants if spec.name not in streams]
        if missing:
            raise ValueError(f"streams missing tenants: {missing}")

        # Each stream's chunks are attributed to its mapping key, so the
        # merged windows split back per tenant by a stable sort.
        def attributed(name: str, stream: object):
            for batch in iter_batches(stream):
                yield batch.with_tenant(name)

        merged = merge_batches(
            [attributed(name, stream) for name, stream in streams.items()]
        )
        for window in windowed(
            merged, trigger, start_month=start_month, horizon_months=horizon_months
        ):
            by_tenant = window.events.by_tenant()
            self.step_window(
                {
                    name: StreamWindow(
                        index=window.index,
                        start_month=window.start_month,
                        end_month=window.end_month,
                        events=by_tenant.get(name) or EventBatch.empty(name),
                        cause=window.cause,
                    )
                    # Live roster at window close: join/leave may have changed
                    # it mid-run, and step_window fills any later joiners.
                    for name in (spec.name for spec in self.tenants)
                }
            )
        return self.report()

    # -- dense monthly input -------------------------------------------------------
    def step_epoch(self, batches: Mapping[str, EpochBatch]) -> None:
        """Advance every tenant one month: :meth:`step_window` over the
        month's window (:func:`~repro.engine.month_window`).

        All batches must share one epoch, and every live tenant needs one;
        batches of tenants that have left are ignored.  A tenant a chaos
        ``TenantJoin`` admits feeds from its own spec stream, shifted to
        start at its join month, wherever ``batches`` has none for it: the
        stream starts in the month whose mark the join falls on.
        """
        if not batches:
            raise ValueError("at least one tenant batch is required")
        epochs = {batch.epoch for batch in batches.values()}
        if len(epochs) != 1:
            raise ValueError(
                f"fleet epochs are locked: got mixed epochs {sorted(epochs)}"
            )
        epoch = epochs.pop()
        batches = dict(batches)
        streams = self._join_streams
        if self.chaos is not None:
            for spec in self.chaos.joiners_in_window(epoch, epoch + 1):
                streams.setdefault(spec.name, (epoch, list(spec.make_stream(None))))
        for name, (joined, stream) in streams.items():
            if name not in batches:
                offset = epoch - joined
                events = stream[offset].events if offset < len(stream) else ()
                batches[name] = EpochBatch(
                    epoch=epoch,
                    events=tuple(replace(event, month=epoch) for event in events),
                )
        missing = [spec.name for spec in self.tenants if spec.name not in batches]
        if missing:
            raise KeyError(f"batches missing tenants: {missing}")
        self.step_window({name: month_window(batch) for name, batch in batches.items()})

    def run(self, num_epochs: int | None = None) -> FleetReport:
        """Drive every tenant's stream to exhaustion, one month at a time.

        All tenant streams must cover the same epochs (quiet months are empty
        batches, exactly as for the single-tenant engine); ``num_epochs``
        caps or extends series-backed streams.  Returns the accumulated
        report.  ``run`` may be called again only when every tenant was given
        an explicit ``stream=`` whose later batches continue the timeline —
        series-backed tenants rebuild their stream from epoch 0 on each call,
        which the engines reject (alternatively, drive continuing epochs
        through :meth:`step_epoch` directly).
        """
        iterators = {
            spec.name: iter(spec.make_stream(num_epochs)) for spec in self.tenants
        }
        while True:
            batches: dict[str, EpochBatch] = {}
            exhausted: list[str] = []
            for name, iterator in iterators.items():
                batch = next(iterator, None)
                if batch is None:
                    exhausted.append(name)
                else:
                    batches[name] = batch
            if len(exhausted) == len(iterators):
                break
            if exhausted:
                raise ValueError(
                    "fleet tenant streams must cover the same epochs, but "
                    f"{exhausted} ended before {sorted(batches)}"
                )
            self.step_epoch(batches)
        return self.report()

    def report(self) -> FleetReport:
        """The fleet report over everything consumed so far.

        Covers departed tenants too: their billed epochs (and policy names)
        are retained when :meth:`remove_tenant` drops the live engine.
        """
        return FleetReport(
            tenant_reports={
                name: EngineReport(
                    policy=self._policy_names[name],
                    records=list(records),
                )
                for name, records in self._records.items()
            },
            pool_usage=list(self._pool_records),
        )
