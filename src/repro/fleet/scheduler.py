"""The fleet scheduler: N tenants, one catalog, shared capacity pools.

:class:`FleetScheduler` drives one :class:`~repro.engine.OnlineTieringEngine`
per tenant epoch-locked over the same monthly timeline.  Per epoch it

1. asks every tenant's policy whether to re-optimize
   (:meth:`~repro.engine.OnlineTieringEngine.begin_epoch`);
2. plans the firing tenants in one :class:`~repro.engine.WindowPlan` over
   the fleet's :class:`~repro.engine.SettleBlock` columns (every tenant that
   shares a ring width and an EWMA alpha is one block): one forecast pass
   over every firing row of a block, then the warm-started, tenant-tagged
   instance (:class:`~repro.core.optassign.StackedProblem`) assembled from
   the blocks' cached per-tenant parts, and a *single* vectorized solve;
3. arbitrates the shared :class:`~repro.cloud.PoolSet` budgets with
   :func:`~repro.core.optassign.repair_pools` — greedy regret-per-GB
   water-filling across every competing tenant, with the standing placements
   of non-firing tenants (each block's cached per-tenant tier usage)
   subtracted from each pool's budget first — then prices every move of the
   window in one pass and writes the placement, clock and price columns,
   giving each tenant its own :class:`~repro.engine.MigrationReport`;
4. settles every tenant (simulator step, feature store, forecaster).  On the
   windowed timeline the fleet settles each block in one pass; the dense
   epoch loop settles each engine in turn, through the same block columns.

With slack pools the arbitration is a no-op and every partition keeps its
individually-cheapest option, so a fleet run is **bill-exact** against N
independent single-tenant engine runs — the scalar per-tenant path stays the
oracle (``tests/fleet/test_fleet_invariants.py``).  Under contention the
shared budget is water-filled across tenants by regret per GB, which strictly
beats carving the pool into static per-tenant slices (see
``examples/fleet_tiering.py``).
"""

from __future__ import annotations

import math
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
from ..core.optassign import (
    TENANT_SEPARATOR,
    DeltaSolver,
    InfeasibleError,
    StackedProblem,
    repair_pools,
    solve_optassign,
)
from ..engine import (
    EngineReport,
    EpochBatch,
    OnlineTieringEngine,
    SettleBlock,
    StreamWindow,
    TriggerWindow,
    WindowPlan,
    windowed,
)
from .report import FleetReport, PoolUsageRecord
from .sharding import ShardedFleetSolver, plan_tenant_shards
from .tenants import FleetConfig, TenantSpec

__all__ = ["FleetScheduler"]


class FleetScheduler:
    """Epoch-locked multi-tenant tiering over shared capacity pools.

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
        be stacked into one solve.
    chaos:
        Optional :class:`~repro.chaos.ChaosInjector` applying a
        :class:`~repro.chaos.DisruptionSchedule` at epoch boundaries —
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
        for spec in self.tenants[1:]:
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
        # Streams for tenants joined mid-run (chaos TenantJoin): step_epoch
        # pulls their batches itself since run()'s iterators predate them.
        self._chaos_streams: dict[str, object] = {}
        self._pool_records: list[PoolUsageRecord] = []
        # The live roster's blocks with their tenant names, one per (window
        # width, alpha) group, and each tenant's block and index there;
        # rebuilt on first use after a roster change.
        self._blocks: list[tuple[tuple[str, ...], SettleBlock]] = []
        self._members: dict[str, tuple[SettleBlock, int]] = {}
        # Incremental fleet solves: one DeltaSolver across epochs, keyed by
        # tenant-tagged names so the varying firing subsets merge into a
        # single fleet-wide cache.  Governed by the *shared* engine config —
        # there is only one stacked solve to be incremental about, so
        # per-spec ``reopt_mode`` overrides are not consulted here.
        # The sharded multiprocess solver, when configured; its worker pool
        # persists across epochs (fork once, solve many) and is released by
        # close() / the context-manager exit.
        self._sharded: ShardedFleetSolver | None = (
            ShardedFleetSolver(
                shards=self.config.shards, workers=self.config.shard_workers
            )
            if self.config.shards is not None
            else None
        )
        shared_mode = self.config.engine.reopt_mode
        self._delta: DeltaSolver | None = (
            DeltaSolver(
                drift_threshold=self.config.engine.delta_drift_threshold,
                # Bootstrap/fallback full solves inside the delta solver fan
                # out across the same worker pool as full epochs.
                full_solver=(
                    None
                    if self._sharded is None
                    else lambda problem, pool_set, reserved: self._sharded.solve(
                        problem, pool_set=pool_set, reserved_gb=reserved
                    )
                ),
            )
            if shared_mode == "delta"
            else None
        )
        self.last_delta_report = None
        self.last_solve_report = None

    # -- helpers ---------------------------------------------------------------
    def _pricing_of(self, spec: TenantSpec) -> tuple:
        engine_config = spec.config or self.config.engine
        return (
            engine_config.horizon_months,
            engine_config.compute_cost_per_s,
            engine_config.weights,
        )

    def _check_pricing(self, spec: TenantSpec) -> None:
        first_name, reference = self._pricing_reference
        if self._pricing_of(spec) != reference:
            raise ValueError(
                f"tenants {first_name!r} and {spec.name!r} price placements "
                "differently (horizon, compute price or weights); stacked "
                "fleet solves require identical pricing"
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
    def add_tenant(self, spec: TenantSpec, stream=None) -> OnlineTieringEngine:
        """Admit a tenant mid-run (chaos ``TenantJoin`` or manual onboarding).

        The spec is validated exactly as at construction (unique never-used
        name, unshared policy, fleet-identical pricing).  ``stream`` supplies
        the tenant's epoch batches when the fleet is driven through
        :meth:`run` — its batches must continue the fleet's current epoch
        numbering; callers driving :meth:`step_epoch` directly may instead
        include the tenant in their own ``batches`` mapping.
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
        if stream is not None:
            self._chaos_streams[spec.name] = iter(stream)
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
        self._chaos_streams.pop(name, None)
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

    def _solve_arbitrated(self, stacked: StackedProblem, reserved_gb):
        """One stacked solve with pool arbitration inside the facade's loop.

        Pool arbitration rides ``solve_optassign``'s own latency-relaxation
        loop via its ``post_repair`` hook: an unfixable pool relaxes latency
        exactly as tier-capacity infeasibility does (the paper's
        prescription), while the facade's up-front fail-fast certificates
        (hard SLO/affinity masks latency relaxation can never fix) still run
        once and surface their pointed diagnostics immediately.

        With ``config.shards`` set the same solve (same certificates, same
        relaxation ladder, same arbitration — bit-identical by the
        equivalence tests) runs on the multiprocess sharded solver instead,
        with shards aligned to tenant boundaries.
        """
        if self._sharded is not None:
            report = self._sharded.solve(
                stacked.problem,
                pool_set=self.pools,
                reserved_gb=reserved_gb,
                plan=plan_tenant_shards(
                    stacked.tenant_spans, self._sharded.shards
                ),
            )
        else:
            post_repair = None
            if self.pools is not None:
                post_repair = lambda assignment: repair_pools(  # noqa: E731
                    assignment, self.pools, reserved_gb=reserved_gb
                )
            report = solve_optassign(
                stacked.problem, prefer="greedy", post_repair=post_repair
            )
        # Kept for the chaos injector's DegradationReport: how far the
        # facade's relaxation ladder had to widen the latency SLAs.
        self.last_solve_report = report
        return report.assignment

    def solve_unpooled(self, problem):
        """A stacked solve with pool budgets suspended (degradation rung 1).

        The chaos injector's fleet-degradation ladder retries a failed epoch
        solve without the shared pools; routing the retry through here keeps
        it on the sharded solver when one is configured, so degraded epochs
        stay bill-identical to the single-process path too.  Returns the
        :class:`~repro.core.optassign.SolveReport`.
        """
        if self._sharded is not None:
            return self._sharded.solve(problem)
        return solve_optassign(problem, prefer="greedy")

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release the sharded solver's worker processes (idempotent)."""
        if self._sharded is not None:
            self._sharded.close()

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _solve_delta(self, stacked: StackedProblem, firing, reserved_gb):
        """One incremental stacked solve: only drifted rows re-optimize.

        The firing tenants' policies contribute per-partition drift hints
        (tenant-tagged to match the stacked name space); the delta solver's
        own feature detector widens the set with structural changes it spots
        itself.  Pool budgets are checked against the composed placement and
        repaired only on violation — bootstrap epochs and unfixable
        violations fall back to the full arbitrated solve inside the solver.
        """
        threshold = self.config.engine.delta_drift_threshold
        changed: set[str] = set()
        for name in firing:
            hint = self.engines[name].policy.drifted_partitions(threshold)
            if hint:
                changed.update(
                    f"{name}{TENANT_SEPARATOR}{partition}" for partition in hint
                )
        if changed:
            rows = stacked.problem.partition_arrays().row_index()
            changed = {name for name in changed if name in rows}
        report = self._delta.solve(
            stacked.problem,
            changed=changed or None,
            pool_set=self.pools,
            reserved_gb=reserved_gb,
        )
        self.last_delta_report = report
        return report.assignment

    def _last_relaxation(self) -> float:
        """Latency-relaxation factor of the epoch's stacked solve (1.0 = none)."""
        if self._delta is not None:
            report = self.last_delta_report
            full = report.full_report if report is not None else None
            return full.latency_relaxation if full is not None else 1.0
        report = self.last_solve_report
        return report.latency_relaxation if report is not None else 1.0

    def _reoptimize(
        self,
        epoch: int,
        firing: Sequence[str],
        order: Sequence[str],
        tracer,
    ) -> dict[str, object]:
        """Plan → solve → apply for the firing tenants: one pass each.

        The shared middle of both timelines (dense :meth:`step_epoch` and
        windowed :meth:`step_window`): identical stacking, pool arbitration,
        delta/sharded routing and chaos degradation either way.  ``epoch`` is
        the dense month or the window ordinal.  A
        :class:`~repro.engine.WindowPlan` over the tenants' blocks forecasts
        every firing row and assembles the stacked instance from the blocks'
        columns, and after the solve prices and applies every move.  Returns
        the per-tenant migration reports of an applied solve (empty when
        placements froze).
        """
        migrations: dict[str, object] = {}
        # The last solve's report holds its stacked problem and cost
        # tensors; drop it before this solve builds its own.
        self.last_solve_report = self.last_delta_report = None
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
        with tracer.span("fleet.solve", tenants=len(firing)):
            try:
                if self._delta is not None:
                    assignment = self._solve_delta(stacked, firing, reserved)
                else:
                    assignment = self._solve_arbitrated(stacked, reserved)
            except InfeasibleError as error:
                # Chaos runs degrade instead of crashing: retry with
                # pool budgets suspended, then freeze the standing
                # placements — either way a structured
                # DegradationReport records what gave.  Calm runs
                # keep their loud fail-fast certificates.
                if self.chaos is None:
                    raise
                assignment = self.chaos.degrade_fleet_solve(
                    self, stacked, reserved, error
                )
        if assignment is not None:
            with tracer.span("fleet.apply", tenants=len(firing)):
                with tracer.span("engine.migrate", epoch=epoch) as span:
                    reports = plan.apply(assignment)
                    span.set(num_moved=sum(report.num_moved for report in reports))
            migrations = dict(zip(firing, reports))
            if self.chaos is not None:
                for name in firing:
                    self.chaos.note_migration(
                        epoch,
                        migrations[name],
                        self.engines[name].banned_tiers,
                        tenant=name,
                    )
                self.chaos.note_relaxation(epoch, self._last_relaxation())
        # else: frozen placements — nothing applied, the firing engines'
        # pending forecasts are dropped by settle.
        return migrations

    # -- one epoch -------------------------------------------------------------
    def step_epoch(self, batches: Mapping[str, EpochBatch]) -> None:
        """Advance every tenant one epoch (all batches must share the epoch)."""
        if not batches:
            raise ValueError("at least one tenant batch is required")
        epochs = {batch.epoch for batch in batches.values()}
        if len(epochs) != 1:
            raise ValueError(
                f"fleet epochs are locked: got mixed epochs {sorted(epochs)}"
            )
        epoch = epochs.pop()
        if self.chaos is not None:
            # Disruptions land at the epoch boundary, before any policy
            # decision or billing: churn changes the roster below, outages
            # mask tiers and mark evacuating tenants for forced firing.
            self.chaos.before_fleet_epoch(self, epoch)
        order = [spec.name for spec in self.tenants]
        batches = dict(batches)
        # Tenants joined mid-run feed from their own chaos streams; tenants
        # that departed may still appear in the caller's mapping (run()'s
        # original iterators keep yielding) and are simply ignored.
        for name, iterator in list(self._chaos_streams.items()):
            if name not in batches:
                batch = next(iterator, None)
                batches[name] = (
                    batch if batch is not None else EpochBatch(epoch=epoch, events=())
                )
        missing = [name for name in order if name not in batches]
        if missing:
            raise KeyError(f"batches missing tenants: {missing}")

        tracer = get_tracer()
        with tracer.span("fleet.epoch", epoch=epoch) as epoch_span:
            firing = [
                name for name in order if self.engines[name].begin_epoch(epoch)
            ]
            if self.chaos is not None:
                # Tenants with residents on a just-dead provider's tiers must
                # re-solve this epoch regardless of what their policy said:
                # forced evacuation cannot wait for drift.
                forced = self.chaos.take_forced_tenants() & set(order)
                if forced - set(firing):
                    firing_set = set(firing) | forced
                    firing = [name for name in order if name in firing_set]
            solve_started = monotonic_s()
            migrations: dict[str, object] = {}
            if firing:
                migrations = self._reoptimize(epoch, firing, order, tracer)
            solve_seconds = monotonic_s() - solve_started

            for name in order:
                started = monotonic_s()
                with tracer.span("fleet.settle", tenant=name):
                    self._records[name].append(
                        self.engines[name].settle(
                            batches[name],
                            migration=migrations.get(name),
                            reoptimized=name in migrations,
                            started=started,
                        )
                    )

            with tracer.span("fleet.pool_usage"):
                self._note_pool_usage(
                    epoch, order, len(firing), solve_seconds, tracer, epoch_span
                )

    def _note_pool_usage(
        self, epoch, order, num_fired, solve_seconds, tracer, epoch_span
    ) -> None:
        """Record the epoch's stacked-solve + pool telemetry (both timelines).

        The per-epoch record always carries the stacked-solve telemetry
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
            epoch_span.set(num_reoptimized=num_fired)
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

    # -- one epoch-free window ---------------------------------------------------
    def step_window(self, windows: Mapping[str, StreamWindow]) -> None:
        """Advance every tenant one trigger window (window-locked fleet).

        The epoch-free twin of :meth:`step_epoch`: all provided windows must
        share the same ``(index, start, end)`` span — the fleet closes its
        windows on one shared trigger over the *merged* tenant stream (see
        :meth:`run_streams`), so tenants stay lock-stepped exactly as on the
        monthly grid.  Live tenants missing from ``windows`` (e.g. just
        admitted by a chaos ``TenantJoin``, whose dense spec streams have no
        place on the windowed timeline) settle an empty window: storage
        accrues, no reads.  Windows may carry different vocabularies; each
        tenant's events are resolved through its own engine's rows.

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
        ) as epoch_span:
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
                    index, order, len(firing), solve_seconds, tracer, epoch_span
                )

    def _settle_blocks(self) -> list[tuple[tuple[str, ...], SettleBlock]]:
        """The blocks the windowed timeline settles through, with each
        block's tenants (:meth:`_fleet_blocks`)."""
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

    # -- the run loop ------------------------------------------------------------
    def run(self, num_epochs: int | None = None) -> FleetReport:
        """Drive every tenant's stream to exhaustion, epoch-locked.

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
