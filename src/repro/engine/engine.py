"""The online tiering engine: continuous SCOPe over a stream of access events.

:class:`OnlineTieringEngine` wraps the batch components in a rolling-horizon
control loop over trigger windows (:mod:`repro.engine.events`).  Per window
it:

1. asks its :class:`~repro.engine.policies.TieringPolicy` whether to
   re-optimize, using only causally available information (the previous
   window's observations);
2. on re-optimization, forecasts each partition's monthly access rate from
   the feature store's sliding window (warm-started
   :class:`~repro.core.access_predict.WindowedAccessForecaster`), builds an
   :class:`~repro.core.optassign.OptAssignProblem` whose partitions carry the
   *current* placement (so the objective's tier-change term prices migrations
   truthfully), solves it, and lets the
   :class:`~repro.engine.executor.MigrationExecutor` apply and bill the moves;
3. bills the window (storage for its duration, plus its actual reads) and
   folds its events into the :class:`~repro.engine.features.FeatureStore` in
   O(new events).

The engine has one timeline.  A dense monthly stream of
:class:`~repro.engine.events.EpochBatch` objects runs through the same loop:
each batch is its month's window (:func:`~repro.engine.events.
month_window`), so :meth:`~OnlineTieringEngine.run` and
:meth:`~OnlineTieringEngine.step` only convert and delegate.

Per-partition state lives in row-aligned numpy columns, in the row order of
the engine's cached :class:`~repro.cloud.PartitionArrays`: the engine
resolves its partitions to feature-store and forecaster rows once, at
construction.  Those columns belong to a :class:`SettleBlock`, which
concatenates the state of one or more engines —
the feature-store ring, lifetime and last-access columns, the forecaster's
value and epoch columns, the residency clocks (``months_in_tier``) and the
compiled per-row prices — and settles all of them in one pass: it maps every
event to its block row, bills each engine with one dot product per engine
over that engine's events, sums the reads per row with one ``bincount`` and
folds the feature store, the forecaster and the clocks with one vector
operation each.  The ring and EWMA folds are those of
:class:`~repro.engine.features.StoreBlock` and
:class:`~repro.core.access_predict.forecast.ForecastBlock`, which share
their arithmetic with a single store's and forecaster's own folds.  Each
engine's :class:`FeatureStore`, forecaster and
``months_in_tier`` keep their objects and their own epochs, but hold row
ranges (views) of the block's columns.  A lone engine settles through a
block of one; a fleet settles every tenant that shares a ring width and an
EWMA alpha in one block.  The touched rows reach each policy as
:class:`~repro.engine.policies.RateColumns`; forecasts come back as one
column.

The block also owns its engines' placement, codec and compiled price
columns, and plans with them.  Every re-optimization is a
:class:`WindowPlan`: one forecast pass over every firing row of a block (the
EWMA gather and decay, then one window gather and blend per store epoch,
through :func:`~repro.core.access_predict.forecast.window_rates`, the rule a
forecaster's own ``forecast_rows`` ends in), the instance assembled from the
parts the block caches per validated constraint state, and after the solve
one move pass over every firing row (:meth:`MigrationExecutor.migrate`)
whose moves write the placement, codec, clock and price columns.  A fleet
window plans its firing tenants together; a lone engine plans as the one
member of its block of one, whose empty tenant tag leaves its instance
untagged.

The resulting :class:`EngineReport` carries the true end-to-end bill —
storage, reads, decompression, migrations and early-deletion penalties — so
``StaticOnce`` / ``PeriodicReoptimize`` / ``DriftTriggered`` policies can be
compared apples to apples on the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..cloud import (
    CloudStorageSimulator,
    CompiledPlacement,
    CostWeights,
    DataPartition,
    PartitionArrays,
    PlacementColumns,
    PlacementDecision,
    PoolSet,
    TierCatalog,
    TimedEvent,
)
from ..cloud.events import first_occurrence
from ..cloud.objects import NO_COMPRESSION
from ..cloud.simulator import compile_prices
from ..core.access_predict import WindowedAccessForecaster
from ..core.access_predict.forecast import ForecastBlock, _decayed, window_rates
from ..core.optassign import (
    TENANT_SEPARATOR,
    Assignment,
    DeltaSolver,
    InfeasibleError,
    OptAssignProblem,
    ProfileTable,
    StackedProblem,
    repair_pools,
    solve_optassign,
)
from ..core.optassign.stacked import _stack_profile_columns, _stack_tier_masks
from ..obs import get_metrics, get_tracer
from ..obs.clock import monotonic_s
from .events import EpochBatch, StreamWindow, TriggerWindow, month_window, windowed
from .executor import MigrationExecutor, MigrationReport, count_moves
from .features import FeatureStore, StoreBlock
from .policies import RateColumns, TieringPolicy

__all__ = [
    "EngineConfig",
    "WindowRecord",
    "EngineReport",
    "OnlineTieringEngine",
    "SettleBlock",
    "WindowPlan",
    "solve_stacked",
]

_NO_ROWS = np.empty(0, dtype=np.intp)

#: A block's record of an engine placement it has not copied in yet.
_UNSYNCED = object()


def _snapshot(constraints: tuple) -> tuple:
    """A copy of ``(profiles, slo, affinity, banned)`` that compares equal to
    the live inputs only while none of them has changed — rebinding and
    in-place edits alike."""
    profiles, slo, affinity, banned = constraints
    return (
        None
        if profiles is None
        else {name: dict(table) for name, table in profiles.items()},
        None if slo is None else dict(slo),
        None if affinity is None else dict(affinity),
        banned,
    )


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the online control loop.

    ``horizon_months`` is the billing horizon each re-optimization plans for
    (predicted monthly rates are scaled by it); ``window_months`` is the
    feature store's sliding window.  ``prior_monthly_accesses`` substitutes
    for history at the bootstrap optimization: by default each partition's
    ``predicted_accesses`` field is interpreted as its prior *monthly* rate.

    ``reopt_mode`` selects how re-optimizations solve: ``"full"`` runs the
    complete :func:`~repro.core.optassign.solve_optassign` facade every time;
    ``"delta"`` keeps a :class:`~repro.core.optassign.DeltaSolver` across
    epochs and re-solves only the partitions whose horizon forecast moved
    more than ``delta_drift_threshold`` (relative), pinning the rest to their
    standing placement.  ``delta_drift_threshold=0.0`` re-solves every row
    that moved at all, making delta mode bill-identical to full mode.
    """

    horizon_months: float = 6.0
    window_months: int = 6
    compute_cost_per_s: float = 0.001
    weights: CostWeights = field(default_factory=CostWeights)
    forecast_alpha: float = 0.4
    forecast_blend: float = 0.6
    reopt_mode: str = "full"
    delta_drift_threshold: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.horizon_months < math.inf:
            raise ValueError("horizon_months must be positive and finite")
        if not self.window_months > 0:
            raise ValueError("window_months must be positive")
        if not 0 <= self.compute_cost_per_s < math.inf:
            raise ValueError("compute_cost_per_s must be non-negative and finite")
        if self.reopt_mode not in ("full", "delta"):
            raise ValueError(
                f"reopt_mode must be 'full' or 'delta', got {self.reopt_mode!r}"
            )
        if not 0.0 <= self.delta_drift_threshold < 1.0 / 3.0:
            raise ValueError(
                "delta_drift_threshold must be in [0, 1/3) — the delta "
                "solver's regret bound degenerates past 1/3"
            )


@dataclass(slots=True)
class WindowRecord:
    """What one window cost and what the engine did during it.

    ``epoch`` holds the window's ordinal index (a dense batch's epoch);
    ``start_month`` / ``end_month`` locate it on the virtual wall clock and
    ``cause`` names the trigger that closed it.  Every step returns one.

    ``wall_clock_s`` is the engine's own time for the window.  A window that a
    :class:`SettleBlock` settled together with other engines' windows counts
    the shared pass split evenly across the engines it settled, so a fleet's
    summed settle time is the time its passes took.

    Slotted: a long run keeps one record per tenant per window.
    """

    epoch: int
    reoptimized: bool
    storage_cost: float
    read_cost: float
    decompression_cost: float
    migration_cost: float
    early_deletion_penalty: float
    num_moved: int
    moved_gb: float
    access_count: int
    latency_violations: int
    wall_clock_s: float
    start_month: float = 0.0
    end_month: float = 0.0
    cause: str = ""

    @property
    def bill_total(self) -> float:
        """Everything billed this window, in cents."""
        return (
            self.storage_cost
            + self.read_cost
            + self.decompression_cost
            + self.migration_cost
            + self.early_deletion_penalty
        )

    @property
    def duration_months(self) -> float:
        return self.end_month - self.start_month


@dataclass
class EngineReport:
    """The outcome of running one policy over one stream."""

    policy: str
    records: list[WindowRecord]

    @property
    def num_epochs(self) -> int:
        return len(self.records)

    @property
    def total_bill(self) -> float:
        return float(sum(record.bill_total for record in self.records))

    @property
    def num_reoptimizations(self) -> int:
        return sum(1 for record in self.records if record.reoptimized)

    @property
    def total_migration_cost(self) -> float:
        return float(
            sum(
                record.migration_cost + record.early_deletion_penalty
                for record in self.records
            )
        )

    @property
    def total_moved_gb(self) -> float:
        return float(sum(record.moved_gb for record in self.records))

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.records:
            return 0.0
        return float(sum(record.wall_clock_s for record in self.records)) / len(
            self.records
        )

    def summary(self) -> dict[str, float | int | str]:
        """Machine-readable totals (used by the benchmark harness)."""
        return {
            "policy": self.policy,
            "epochs": self.num_epochs,
            "total_bill_cents": self.total_bill,
            "reoptimizations": self.num_reoptimizations,
            "migration_cost_cents": self.total_migration_cost,
            "moved_gb": self.total_moved_gb,
            "mean_epoch_seconds": self.mean_epoch_seconds,
        }


class OnlineTieringEngine:
    """Continuous tiering over an event stream with a pluggable policy.

    Parameters
    ----------
    partitions:
        The placement units (datasets or G-PART partitions).  Their
        ``predicted_accesses`` is read as the prior *monthly* rate used to
        bootstrap the first optimization; their ``current_tier`` is where the
        data lives at epoch 0 (``NEW_DATA_TIER`` for fresh ingests).  The
        engine works on copies — callers' objects are never mutated.
    tiers:
        The tier catalog prices every decision: placements, reads, moves.
    policy:
        Decides when to re-optimize (see :mod:`repro.engine.policies`).
    profiles:
        Optional OPTASSIGN :data:`~repro.core.optassign.ProfileTable` giving
        per-partition compression choices.
    profile_provider:
        Optional ``epoch -> ProfileTable`` callable invoked at every
        re-optimization; lets a warm-started COMPREDICT model
        (:meth:`repro.core.compredict.CompressionPredictor.partial_fit`)
        refresh profiles as data evolves.  Takes precedence over
        ``profiles``.
    latency_slo_s, provider_affinity:
        Optional per-partition tier-SLO caps and provider-affinity sets (see
        :class:`~repro.core.optassign.OptAssignProblem`), enforced at every
        re-optimization.  With a multi-provider ``tiers`` catalog
        (:class:`repro.cloud.MultiProviderCatalog`) this makes the engine a
        continuous *multi-cloud* tiering loop: drift-triggered
        re-optimizations may move partitions between providers, with the
        executor billing cross-provider egress on every such move.
    chaos:
        Optional :class:`~repro.chaos.ChaosInjector` applying a
        :class:`~repro.chaos.DisruptionSchedule` at window boundaries
        (provider outages, price shocks).  Without one — the calm run —
        every chaos code path is inert and the engine's bills are
        bit-identical to the pre-chaos code.
    """

    def __init__(
        self,
        partitions: Sequence[DataPartition],
        tiers: TierCatalog,
        policy: TieringPolicy,
        config: EngineConfig | None = None,
        profiles: ProfileTable | None = None,
        profile_provider: Callable[[int], ProfileTable] | None = None,
        forecaster: WindowedAccessForecaster | None = None,
        latency_slo_s: Mapping[str, float] | None = None,
        provider_affinity: Mapping[str, object] | None = None,
        chaos: object | None = None,
    ):
        if not partitions:
            raise ValueError("at least one partition is required")
        self.config = config or EngineConfig()
        self.tiers = tiers
        self.policy = policy
        self._partitions = [replace(partition) for partition in partitions]
        self._arrays = PartitionArrays.from_partitions(self._partitions)
        self._profiles = profiles
        self._profile_provider = profile_provider
        self._latency_slo = dict(latency_slo_s) if latency_slo_s else None
        self._provider_affinity = (
            dict(provider_affinity) if provider_affinity else None
        )
        self.chaos = chaos
        self._banned_tiers: frozenset[int] = frozenset()
        self._lifted_affinity: dict[str, object] = {}
        # (snapshot of the constraint inputs, their validated form + profile
        # columns + tier mask) behind the last build; see _constraint_parts.
        self._validated: tuple[tuple, tuple] | None = None
        self.simulator = CloudStorageSimulator(
            tiers, compute_cost_per_s=self.config.compute_cost_per_s
        )
        self.executor = MigrationExecutor(tiers)
        self.feature_store = FeatureStore(
            window_months=self.config.window_months,
            initial_capacity=len(self._partitions),
        )
        self.forecaster = forecaster or WindowedAccessForecaster(
            alpha=self.config.forecast_alpha, blend=self.config.forecast_blend
        )
        # The prior monthly rates stand in for history at the bootstrap —
        # but a caller-supplied warm forecaster already knows better for the
        # partitions it tracks, so only the untracked ones get the prior.
        self.forecaster.seed(
            {
                partition.name: partition.predicted_accesses
                for partition in self._partitions
                if partition.name not in self.forecaster
            },
            epoch=-1,
        )
        # Engine row -> feature-store row and forecaster row, resolved once.
        names = self._arrays.names
        self._store_rows = self.feature_store.register(names)
        self._forecast_rows = self.forecaster.rows(names)
        self._placement: PlacementColumns | None = None
        # The block whose columns this engine holds (and its index there),
        # and the block of one it plans and settles windows through on its
        # own.
        self._block: SettleBlock | None = None
        self._block_k = 0
        self._own_block: SettleBlock | None = None
        # Months each partition has resided in its current tier, in row order.
        self.months_in_tier = np.array(
            [0.0 if partition.is_new else float("inf") for partition in self._partitions]
        )
        self._last_window = -1
        self._window_clock = 0.0
        self._last_observed: RateColumns | None = None
        self._pending_forecast: RateColumns | None = None
        self._last_applied_forecast: RateColumns | None = None
        # Built at the first delta solve: a fleet tenant never solves alone.
        self._delta: DeltaSolver | None = None

    @property
    def placement(self) -> PlacementColumns | None:
        """The applied placement, a ``Mapping[str, PlacementDecision]`` kept
        as columns in partition order (``None`` before the first apply).

        Its columns are its own: the next re-optimization replaces the
        placement, so one kept from before still reads as it was."""
        return self._placement

    @placement.setter
    def placement(self, placement: Mapping[str, PlacementDecision] | None) -> None:
        self._placement = (
            None
            if placement is None
            else PlacementColumns.from_mapping(self._arrays.names, placement)
        )

    # -- the control loop -------------------------------------------------------
    def run(self, stream: Iterable[EpochBatch]) -> EngineReport:
        """Consume a dense monthly stream and return the end-to-end report.

        Each batch is stepped as its month's window (:meth:`step`).  The
        engine lives on a single continuous timeline: ``run`` may be called
        again — or after :meth:`run_stream` over month-aligned windows — with
        batches that continue it, picking up placement, features, drift
        observations and residency clocks where they left off.  A batch that
        does not continue the timeline (a gap, or a repeated or earlier
        epoch) raises *before* anything is billed or migrated, and the
        engine's state is never half-advanced.  Quiet months are modelled as
        batches with no events (every provided stream yields them), not as
        skipped epochs.
        """
        records = [self.step(batch) for batch in stream]
        return EngineReport(policy=self.policy.name, records=records)

    def step(self, batch: EpochBatch) -> WindowRecord:
        """Consume one epoch batch: :meth:`step_window` over its month's
        window (:func:`~repro.engine.events.month_window`)."""
        return self.step_window(month_window(batch))

    # -- the windowed control loop ----------------------------------------------
    # Trigger windows (event-count / wall-clock / drift-score, see
    # :mod:`repro.engine.events`) close batches at arbitrary points of
    # virtual time, and a dense batch is a one-month window.  Windows must
    # continue the one timeline: consecutive indices, each starting where
    # the last ended (``window_clock``).  Month-aligned ``TimeTrigger(1.0)``
    # windows over a timed stream bill exactly as the dense batches of
    # ``monthly_batches`` over it (the oracle lock in
    # tests/engine/test_windows.py).

    def run_stream(
        self,
        events: Iterable[TimedEvent],
        trigger: TriggerWindow,
        *,
        start_month: float = 0.0,
        horizon_months: float | None = None,
    ) -> EngineReport:
        """Consume a continuous timed-event stream under a trigger window.

        Cuts ``events`` (time-ordered :class:`repro.cloud.TimedEvent`, e.g.
        a :class:`repro.workloads.PoissonZipfStream`) into
        :class:`~repro.engine.events.StreamWindow` batches with
        :func:`~repro.engine.events.windowed` and steps each one.  Only the
        open window is ever materialized, so RAM stays flat at millions of
        events.  A :class:`~repro.engine.events.DriftTrigger` without a
        ``baseline_provider`` (including inside an
        :class:`~repro.engine.events.AnyTrigger`) is wired to this engine's
        last *applied* forecast, closing the loop drift detection needs.
        """
        self._wire_drift_baseline(trigger)
        records: list[WindowRecord] = [
            self.step_window(window)
            for window in windowed(
                events,
                trigger,
                start_month=start_month,
                horizon_months=horizon_months,
            )
        ]
        return EngineReport(policy=self.policy.name, records=records)

    def _wire_drift_baseline(self, trigger: TriggerWindow) -> None:
        """Point baseline-less drift triggers at the last applied forecast."""

        def provider() -> RateColumns | None:
            return self._last_applied_forecast

        members = [trigger, *getattr(trigger, "triggers", ())]
        for member in members:
            if (
                hasattr(member, "baseline_provider")
                and member.baseline_provider is None
            ):
                member.baseline_provider = provider

    def step_window(self, window: StreamWindow) -> WindowRecord:
        """Consume one closed trigger window: the body of the control loop.

        In order: ``begin_window``; when the policy fires, the lone
        re-optimization (:meth:`_reoptimize`: a one-member
        :class:`WindowPlan` over the engine's own :class:`SettleBlock`,
        :func:`solve_stacked` and the plan's apply); then the window's
        settle through the same block.

        A window whose ``cause`` is ``"drift"`` forces a re-optimization even
        if the policy would not fire — the trigger has already detected drift
        against the engine's own applied forecast, and closing the window
        *was* the decision to react now rather than at the next grid point.
        A window out of order or naming an unknown partition raises before
        any policy decision, migration or fold.
        """
        started = monotonic_s()
        rows = self._window_rows(window)
        with get_tracer().span(
            "engine.window", index=window.index, cause=window.cause
        ) as span:
            migration: MigrationReport | None = None
            force_fire = window.cause == "drift"
            if self.chaos is not None:
                force_fire = (
                    self.chaos.before_engine_window(
                        self, window.index, window.start_month, window.end_month
                    )
                    or force_fire
                )
            if self.begin_window(window.index) or force_fire:
                migration = self._reoptimize(window)
            reoptimized = migration is not None
            record = self._settle_window(window, rows, migration, reoptimized, started)
            span.set(reoptimized=reoptimized)
        get_metrics().counter("engine.window_closes", cause=window.cause).add()
        return record

    def _reoptimize(self, window: StreamWindow) -> MigrationReport | None:
        """Plan → solve → apply one lone re-optimization, in the steps and
        the order of the fleet's: a :class:`WindowPlan` whose one member is
        this engine, with the empty tenant tag, in its own block; the one
        solve of its instance (:func:`solve_stacked`), degraded by the
        chaos ladder on a chaos run; the plan's apply; then the chaos
        notes.  Returns the migration report, or ``None`` when a chaos run
        froze the placement."""
        epoch = window.index
        tracer = get_tracer()
        config = self.config
        plan = WindowPlan(epoch, [("", self._lone_block(), 0)])
        with tracer.span("engine.build_problem", epoch=epoch):
            with tracer.span("engine.forecast"):
                plan.forecast()
            stacked = plan.stack()
        if config.reopt_mode == "delta" and self._delta is None:
            self._delta = DeltaSolver(drift_threshold=config.delta_drift_threshold)
        with tracer.span("engine.solve", mode=config.reopt_mode):
            try:
                solved = solve_stacked(stacked, [self], self._delta)
            except InfeasibleError as error:
                # Graceful degradation is a chaos-run contract only: a calm
                # run keeps its loud fail-fast certificates.
                if self.chaos is None:
                    raise
                solved = self.chaos.degrade_solve(epoch, stacked, [self], error)
        if solved is None:
            return None
        assignment, relaxation = solved
        with tracer.span("engine.migrate", epoch=epoch) as span:
            (migration,) = plan.apply(assignment)
            span.set(num_moved=migration.num_moved)
        if self.chaos is not None:
            self.chaos.note_migration(epoch, migration, self._banned_tiers)
            self.chaos.note_relaxation(epoch, relaxation)
        return migration

    # -- external-scheduling hooks ----------------------------------------------
    # The fleet scheduler (:mod:`repro.fleet`) window-locks many engines and
    # calls ``begin_window`` per engine, then plans its firing engines
    # together in one :class:`WindowPlan` and settles them in one
    # :class:`SettleBlock` pass: ``step_window`` does the same for one engine.

    def _validate_window(self, index: int, start_month: float | None = None) -> None:
        """Raise unless window ``index`` — starting at ``start_month``, when
        given — continues the timeline: after the first window, each window
        takes the next index and starts at :attr:`window_clock`."""
        last = self._last_window
        if last >= 0 and (
            index != last + 1
            or (start_month is not None and start_month != self._window_clock)
        ):
            got = f"window {index}"
            if start_month is not None:
                got += f" at month {start_month}"
            raise ValueError(
                f"stream windows must be consecutive (got {got} after window "
                f"{last}, which ended at month {self._window_clock}); dense "
                "epochs advance one month at a time — model quiet months as "
                "empty batches, not gaps"
            )

    def _window_rows(self, window: StreamWindow) -> np.ndarray:
        """The row of every event in ``window``, once the window is known to
        continue this engine's timeline, its feature store's and its
        forecaster's.  Changes nothing: raises ``ValueError`` for a window
        out of order and ``KeyError`` for an event naming an unknown
        partition."""
        index = window.index
        self._validate_window(index, window.start_month)
        self.feature_store._check_complete_batch(index)
        self.forecaster._check_epoch(index)
        events = window.events
        if not len(events):
            return _NO_ROWS
        return self._arrays.event_rows(events)

    def begin_window(self, index: int) -> bool:
        """Validate the window index and ask the policy whether to
        re-optimize.

        Raises before anything is billed or migrated when ``index`` does not
        continue the timeline; mutates no engine state (the policy may
        update its own drift bookkeeping) and fires without consulting the
        policy before the first placement.  The policy sees the window
        ordinal as its epoch and the previous window's observed *monthly
        rates* (counts scaled by window duration), so periodic policies tick
        per window and drift policies compare rate against forecast rate.
        """
        self._validate_window(index)
        if self.placement is None:
            return True
        tracer = get_tracer()
        with tracer.span(
            "engine.policy_decision", window=index, policy=self.policy.name
        ) as span:
            fire = self.policy.should_reoptimize(index, self._last_observed)
            if tracer.enabled:
                span.set(fire=fire)
                score = getattr(self.policy, "last_score", None)
                if score is not None:
                    get_metrics().gauge(
                        "engine.drift_score", policy=self.policy.name
                    ).set(score)
        return fire

    def _settle_window(
        self,
        window: StreamWindow,
        rows: np.ndarray,
        migration: MigrationReport | None,
        reoptimized: bool,
        started: float | None,
    ) -> WindowRecord:
        """Bill one trigger window and fold its events (their ``rows``,
        resolved by :meth:`_window_rows`) into the engine state.

        Storage accrues for exactly ``window.duration_months``; reads are
        billed per event in stream order.  The feature store and forecaster
        receive observed **monthly rates** — window counts divided by the
        window's duration — so windows of different widths remain
        comparable; for the degenerate zero-width flush window raw counts are
        folded as-is.  Residency clocks advance by the window's fractional
        duration.

        The engine settles as its :class:`SettleBlock` of one, the same pass
        a fleet runs over all of its tenants.
        """
        return self._lone_block().settle(
            [window], [rows], [migration], [reoptimized], started
        )[0]

    def _lone_block(self) -> SettleBlock:
        """The block of one this engine plans and settles through on its
        own, built anew when it went stale."""
        block = self._own_block
        if block is None or not block.intact():
            block = self._own_block = SettleBlock([self])
        return block

    @property
    def window_clock(self) -> float:
        """Virtual time (months) the timeline has settled through."""
        return self._window_clock

    @property
    def last_applied_forecast(self) -> RateColumns | None:
        """The monthly-rate forecast behind the most recent applied placement."""
        return self._last_applied_forecast

    # -- chaos-facing state -------------------------------------------------------
    # The chaos injector manipulates tier eligibility and residency pins
    # through these methods only; with no injector attached none of them run
    # and the engine behaves exactly as before the chaos subsystem existed.

    @property
    def banned_tiers(self) -> frozenset[int]:
        """Tier indices masked infeasible at the next re-optimization."""
        return self._banned_tiers

    def set_banned_tiers(self, banned: Iterable[int]) -> None:
        """Replace the banned-tier set (a provider outage's dead tiers)."""
        self._banned_tiers = frozenset(int(index) for index in banned)

    def partitions_on_tiers(self, tier_indices: Iterable[int]) -> list[str]:
        """Names of partitions currently placed on any of the given tiers."""
        wanted = sorted(set(int(index) for index in tier_indices))
        placement = self._placement
        if not wanted or placement is None:
            return []
        hit = np.isin(placement.tier, np.asarray(wanted, dtype=np.int64))
        if placement.placed is not None:
            hit &= placement.placed
        return [placement.names[row] for row in np.flatnonzero(hit).tolist()]

    def lift_provider_affinity(self, names: Iterable[str]) -> list[str]:
        """Suspend residency pins for ``names``; returns the names lifted.

        Used during forced evacuation when a partition's pinned providers
        have no live tier left: the pin is *suspended* (kept aside for
        :meth:`restore_provider_affinity` at recovery) rather than deleted,
        and the evacuation is recorded as an SLO violation by the injector.
        """
        if not self._provider_affinity:
            return []
        lifted = []
        for name in names:
            entry = self._provider_affinity.pop(name, None)
            if entry is not None:
                self._lifted_affinity[name] = entry
                lifted.append(name)
        return lifted

    def restore_provider_affinity(self) -> list[str]:
        """Re-arm every suspended residency pin; returns the restored names.

        Restoring makes an evacuated partition's current placement violate
        its affinity again, so the next policy-driven re-optimization — not
        the recovery event itself — moves it home (re-admission happens at
        reopt time, never mid-epoch).
        """
        if not self._lifted_affinity:
            return []
        if self._provider_affinity is None:
            self._provider_affinity = {}
        restored = list(self._lifted_affinity)
        self._provider_affinity.update(self._lifted_affinity)
        self._lifted_affinity.clear()
        return restored

    def tier_usage_gb(self) -> np.ndarray:
        """Stored GB per catalog tier under the current placement.

        Zeros before the first re-optimization (nothing is placed yet).  The
        fleet layer sums this across engines to account shared
        :class:`~repro.cloud.CapacityPool` budgets.
        """
        if self.placement is None:
            return np.zeros(len(self.tiers), dtype=np.float64)
        return self._compiled_placement().tier_usage_gb()

    def _compiled_placement(self) -> CompiledPlacement:
        """The applied placement compiled for billing.

        The block that holds this engine keeps it, compiled again whenever a
        re-optimization moved data or the catalog was re-priced; without
        such a block it is compiled afresh.
        """
        block = self._block
        if block is None or not block.intact():
            return self.simulator.compile_placement(self._arrays, self.placement)
        block._refresh_prices([self._block_k])
        return block._priced[self._block_k]

    # -- re-optimization ---------------------------------------------------------
    def _constraint_parts(self, epoch: int, codecs: Callable[[], tuple]) -> tuple:
        """``(profiles, slo, affinity, banned, profile columns, tier mask)``
        validated for ``epoch``'s build; ``codecs`` gives the live codec of
        every row.

        The constraint state — profile table, SLO caps, provider affinity,
        banned tiers — is validated by the full ``OptAssignProblem.__init__``
        once, and its validated form (plus the profile columns and the
        combined tier-eligibility mask, which no re-pricing changes) is
        reused for as long as every input compares equal to what was
        validated; any change, however it was made, re-validates.
        """
        profiles = (
            self._profile_provider(epoch)
            if self._profile_provider is not None
            else self._profiles
        )
        constraints = (
            profiles,
            self._latency_slo,
            self._provider_affinity,
            self._banned_tiers,
        )
        if self._validated is not None and self._validated[0] == constraints:
            return self._validated[1]
        config = self.config
        problem = OptAssignProblem(
            replace(self._arrays, current_codec=codecs()),
            self.simulator.cost_model(
                duration_months=config.horizon_months, weights=config.weights
            ),
            profiles,
            latency_slo_s=self._latency_slo,
            provider_affinity=self._provider_affinity,
            banned_tiers=self._banned_tiers or None,
        )
        parts = (
            problem._profiles,
            problem._latency_slo,
            problem._provider_affinity,
            problem._banned_tiers,
            problem._profile_columns(),
            problem._tier_mask(),
        )
        self._validated = (_snapshot(constraints), parts)
        return parts

    def _notify_applied(self, epoch: int) -> None:
        """Hand the policy the forecast the just-applied placement was
        planned from."""
        self.policy.notify_reoptimized(epoch, self._pending_forecast)
        # The forecast this placement was planned from doubles as the drift
        # baseline for DriftTriggers (see run_stream).  It is
        # read-only, so policy and trigger share it without a copy.
        self._last_applied_forecast = self._pending_forecast
        self._pending_forecast = None


class SettleBlock:
    """Row-aligned state of one or more engines, settled and planned in one
    pass each.

    The block holds its engines' feature stores in one
    :class:`~repro.engine.features.StoreBlock` (ring, lifetime and
    last-access columns), their forecasters in one
    :class:`~repro.core.access_predict.forecast.ForecastBlock` (EWMA value
    and epoch columns) and their residency clocks in one column.  Each
    engine keeps its :class:`FeatureStore`, forecaster and
    ``months_in_tier`` objects (and their own epochs), but they hold row
    ranges (views) of the block's columns, so one fold updates all of them.

    The block also owns each engine's placement columns — tier, scheme code,
    ratio, decompression — the live codec of every row, and the compiled
    price columns (:func:`~repro.cloud.simulator.compile_prices`: stored GB,
    storage per month, read and decompression cost per read, latency and the
    SLA flag).  The plan pass (:class:`WindowPlan`) writes them for the rows
    it places, hands each engine a :class:`~repro.cloud.PlacementColumns` of
    its own (copies of its rows) and keeps a
    :class:`~repro.cloud.CompiledPlacement` over its row range of the price
    columns.  A placement an engine got any other way (the ``placement``
    setter) is copied in, with its rows' codecs, and its prices compiled, at
    the block's next use; so are the prices of an engine whose catalog was
    re-priced since they were compiled (its ``pricing_version`` moved).
    Beside them the block keeps each engine's validated
    constraint parts (profile table, SLO and affinity maps, banned tiers,
    profile columns, tier mask) and its tagged names and maps.

    The engines must share a feature-store window width and an EWMA alpha,
    the two values one ring slide and one EWMA step assume.  A block stays
    valid while every engine still holds the arrays it handed out
    (:meth:`intact`); an engine adopted by another block, or whose store or
    forecaster grew, leaves it stale, and its owner builds a new one.
    ``tenants`` names the engines (a fleet's tenants), whose instances the
    block tags ``tenant::name``; without it every engine has the empty
    tenant, which tags nothing (a lone engine's block of one).
    """

    def __init__(
        self,
        engines: Sequence[OnlineTieringEngine],
        tenants: Sequence[str] | None = None,
    ):
        if not engines:
            raise ValueError("a settle block needs at least one engine")
        stores = [engine.feature_store for engine in engines]
        forecasters = [engine.forecaster for engine in engines]
        width, alpha = stores[0].window_months, forecasters[0].alpha
        if any(
            store.window_months != width or forecaster.alpha != alpha
            for store, forecaster in zip(stores, forecasters)
        ):
            raise ValueError(
                "engines settled in one block must share window_months and "
                "the forecaster's alpha"
            )
        if len({id(forecaster) for forecaster in forecasters}) != len(engines):
            raise ValueError("engines settled in one block need their own forecasters")
        self.engines = tuple(engines)
        # Engine k owns block rows _starts[k]:_starts[k + 1]; _owner and
        # _shift give each block row's engine and that engine's first row.
        sizes = [len(engine._arrays) for engine in engines]
        self._sizes = sizes
        self._starts = [0, *accumulate(sizes)]
        self._offsets = np.asarray(self._starts[:-1], dtype=np.intp)
        self._owner = np.repeat(np.arange(len(engines)), sizes)
        self._shift = self._offsets[self._owner]
        self._ranges = [
            np.arange(start, stop) for start, stop in zip(self._starts, self._starts[1:])
        ]
        # Engine rows: residency clocks.
        self.months_in_tier = np.concatenate(
            [engine.months_in_tier for engine in engines]
        )
        for k, (engine, start, stop) in enumerate(
            zip(engines, self._starts, self._starts[1:])
        ):
            engine.months_in_tier = self.months_in_tier[start:stop]
            engine._block, engine._block_k = self, k
        total = len(self.months_in_tier)
        # The partitions, and their static columns.
        self._partitions = [
            partition for engine in engines for partition in engine._partitions
        ]
        arrays = [engine._arrays for engine in engines]
        self._size = np.concatenate([a.size_gb for a in arrays])
        self._read_gb = np.concatenate([a.read_gb_per_access for a in arrays])
        self._threshold = np.concatenate([a.latency_threshold_s for a in arrays])
        self._read_fraction = np.concatenate([a.read_fraction for a in arrays])
        self._pushdown = np.concatenate([a.pushdown_fraction for a in arrays])
        # Placement columns (``tier`` is where each row lives today: the
        # placement's tier, else its partition's) and each row's live codec,
        # as codes into the append-only scheme vocabulary (-1 = none).
        self._schemes: list[str] = []
        self._scheme_code: dict[str, int] = {}
        self._codec_names: np.ndarray | None = None
        self.tier = np.empty(total, dtype=np.int64)
        self.scheme = np.full(total, -1, dtype=np.int64)
        self.ratio = np.ones(total, dtype=np.float64)
        self.decompression = np.zeros(total, dtype=np.float64)
        self.placed = np.zeros(total, dtype=bool)
        self._codec = np.full(total, -1, dtype=np.int64)
        self._placements: list[object] = [_UNSYNCED] * len(engines)
        self._tables: dict[tuple[str, ...], np.ndarray] = {}
        # Compiled price columns, in compile_prices order.
        self._prices = tuple(
            np.zeros(total, dtype=bool if k == 5 else np.float64) for k in range(6)
        )
        self._stored_gb, _, self._read_price, self._decompression_price, _, self._violates = (
            self._prices
        )
        # Per engine: the storage sum of its compiled prices, and the last
        # window's (duration, storage bill), whose float object windows of
        # the same width share (a long run keeps one record per window).
        self._storage: list[float] = [0.0] * len(engines)
        self._storage_bill: list[tuple[float, float]] = [(math.nan, 0.0)] * len(engines)
        self._priced: list[CompiledPlacement | None] = [None] * len(engines)
        # The catalog pricing_version each engine's prices were compiled at.
        self._versions: list[int] = [0] * len(engines)
        self._usage: np.ndarray | None = None
        # Constraint parts: each engine's validated state last written in
        # and its tagged maps.
        self.tenants = ("",) * len(engines) if tenants is None else tuple(tenants)
        self._prefixes = [
            f"{tenant}{TENANT_SEPARATOR}" if tenant else "" for tenant in self.tenants
        ]
        self._parts: list[tuple | None] = [None] * len(engines)
        # Engines whose pinned codecs are still to be checked against their
        # profile columns.
        self._unchecked: set[int] = set()
        self._tagged: list[tuple | None] = [None] * len(engines)
        self._tagged_names = [
            tuple(f"{prefix}{name}" for name in a.names)
            for prefix, a in zip(self._prefixes, arrays)
        ]
        self._sync()
        # The stores and forecasters, and each engine row's row in them.
        self._stores = StoreBlock(stores)
        self._forecasts = ForecastBlock(forecasters)
        self._store_row = np.concatenate(
            [
                start + engine._store_rows
                for start, engine in zip(self._stores.starts, engines)
            ]
        )
        self._forecast_row = np.concatenate(
            [
                start + engine._forecast_rows
                for start, engine in zip(self._forecasts.starts, engines)
            ]
        )

    def intact(self) -> bool:
        """True while every engine still holds the arrays this block bound."""
        clocks = self.months_in_tier
        for engine in self.engines:
            if engine._block is not self or engine.months_in_tier.base is not clocks:
                return False
        return self._stores.intact() and self._forecasts.intact()

    def rows(self, ks: Sequence[int]) -> np.ndarray:
        """The block rows of engines ``ks``, in that order."""
        return np.concatenate([self._ranges[k] for k in ks])

    # -- the scheme vocabulary and the codec column --------------------------------
    def _code(self, scheme: str) -> int:
        """The vocabulary code of ``scheme``, appending it when new."""
        code = self._scheme_code.get(scheme)
        if code is None:
            code = self._scheme_code[scheme] = len(self._schemes)
            self._schemes.append(scheme)
            self._codec_names = None
        return code

    def _codecs(self, rows: np.ndarray) -> tuple[str | None, ...]:
        """The live codec of every row in ``rows``."""
        if self._codec_names is None:
            # The trailing None is what a -1 code gathers.
            self._codec_names = np.empty(len(self._schemes) + 1, dtype=object)
            self._codec_names[:-1] = self._schemes
        return tuple(self._codec_names[self._codec[rows]].tolist())

    # -- placements and prices -----------------------------------------------------
    def _sync(self) -> None:
        """Copy in every placement an engine got outside this block since it
        was last copied (or written) here."""
        placements = self._placements
        for k, engine in enumerate(self.engines):
            if engine._placement is not placements[k]:
                self._copy_placement(k)

    def _copy_placement(self, k: int) -> None:
        """Copy engine ``k``'s placement in and re-read its partitions'
        codecs; its prices are compiled at the next use."""
        engine = self.engines[k]
        placement = engine._placement
        rows = slice(self._starts[k], self._starts[k + 1])
        if placement is None:
            placed = np.zeros(self._sizes[k], dtype=bool)
        else:
            self.tier[rows] = placement.tier
            self.scheme[rows] = self._recode(placement.schemes)[placement.scheme]
            self.ratio[rows] = placement.ratio
            self.decompression[rows] = placement.decompression_s_per_gb
            placed = (
                np.ones(self._sizes[k], dtype=bool)
                if placement.placed is None
                else placement.placed
            )
        self.placed[rows] = placed
        partitions = engine._partitions
        for row in np.flatnonzero(~placed).tolist():
            self.tier[rows.start + row] = partitions[row].current_tier
        code = self._code
        self._codec[rows] = [
            -1 if partition.current_codec is None else code(partition.current_codec)
            for partition in partitions
        ]
        self._unchecked.add(k)
        self._placements[k] = placement
        self._priced[k] = None
        self._usage = None

    def _refresh_prices(self, ks: Sequence[int] | None = None) -> None:
        """Copy in placements as :meth:`_sync` does, and compile the prices
        of every placed engine (of ``ks``, default all) whose placement or
        catalog prices changed since they were last compiled here."""
        placements = self._placements
        stale = []
        engines = self.engines
        for k in range(len(engines)) if ks is None else ks:
            placement = engines[k]._placement
            if placement is not placements[k]:
                self._copy_placement(k)
            if placement is not None and self._stale_prices(k):
                stale.append(k)
        if stale:
            self._compile(stale)

    def _stale_prices(self, k: int) -> bool:
        """True when engine ``k``'s prices were never compiled here, or its
        catalog was re-priced since."""
        return (
            self._priced[k] is None
            or self._versions[k] != self.engines[k].tiers.pricing_version
        )

    def _compile(self, ks: Sequence[int]) -> None:
        """Compile the prices of engines ``ks`` from the placement columns
        and give each engine its compiled placement over them."""
        engines = self.engines
        groups: dict[tuple, list[int]] = {}
        for k in ks:
            simulator = engines[k].simulator
            groups.setdefault((id(simulator.tiers), simulator.compute_cost_per_s), []).append(k)
        for members in groups.values():
            rows = self.rows(members)
            unplaced = rows[~self.placed[rows]]
            if unplaced.size:
                names = [
                    engines[self._owner[row]]._arrays.names[row - self._shift[row]]
                    for row in unplaced.tolist()
                ]
                raise KeyError(f"placement missing partitions: {names}")
            self._price_rows(engines[members[0]].simulator, rows)
        for k in ks:
            engine = engines[k]
            rows = slice(self._starts[k], self._starts[k + 1])
            self._priced[k] = CompiledPlacement.from_columns(
                engine.simulator,
                engine._arrays,
                self.tier[rows],
                [column[rows] for column in self._prices],
            )
            self._versions[k] = engine.tiers.pricing_version
            self._sum_storage(k)

    def _price_rows(self, simulator: CloudStorageSimulator, rows: np.ndarray) -> None:
        """Compile the prices of ``rows`` under ``simulator``'s catalog."""
        prices = compile_prices(
            simulator.tiers.cost_arrays(),
            simulator.compute_cost_per_s,
            self.tier[rows],
            self.ratio[rows],
            self.decompression[rows],
            self._size[rows],
            self._read_gb[rows],
            self._threshold[rows],
        )
        for column, values in zip(self._prices, prices):
            column[rows] = values

    def _sum_storage(self, k: int) -> None:
        """Engine ``k``'s monthly storage total: the sum over its own rows,
        the same pairwise sum as ``np.sum`` over a compiled placement's own
        column."""
        self._storage[k] = self._prices[1][self._starts[k] : self._starts[k + 1]].sum()
        self._storage_bill[k] = (math.nan, 0.0)

    def tier_usage(self) -> np.ndarray:
        """Stored GB per engine per catalog tier, ``(engines, tiers)``: each
        row what that engine's :meth:`~OnlineTieringEngine.tier_usage_gb`
        returns.  Kept until a placement changes."""
        self._refresh_prices()
        if self._usage is None:
            engines = self.engines
            count = len(engines[0].tiers)
            placed = [k for k, engine in enumerate(engines) if engine._placement is not None]
            usage = np.zeros((len(engines), count), dtype=np.float64)
            if placed:
                rows = self.rows(placed)
                # One bincount keyed by engine x tier adds each bin's rows in
                # row order, as each engine's own bincount does.
                usage = np.bincount(
                    self._owner[rows] * count + self.tier[rows],
                    weights=self._stored_gb[rows],
                    minlength=len(engines) * count,
                ).reshape(len(engines), count)
            self._usage = usage
        return self._usage

    # -- the plan pass --------------------------------------------------------------
    def forecast(self, epoch: int, ks: Sequence[int], rows: np.ndarray) -> np.ndarray:
        """Projected monthly reads of ``rows`` (engines ``ks``' rows) for
        ``epoch``, as each engine's forecaster computes them over its store's
        window (``forecast_rows`` at ``epoch - 1``): one EWMA gather and
        decay over every row, then one window gather and blend per store
        epoch (a store that has not observed yet has an empty window)."""
        engines = self.engines
        forecasts = self._forecasts
        rates = _decayed(
            forecasts._value, forecasts._at, self._forecast_row[rows], epoch - 1, forecasts._decay
        )
        stores = [engines[k].feature_store for k in ks]
        epochs = [store._epoch for store in stores]
        bounds = [0, *accumulate(self._sizes[k] for k in ks)]
        blend = np.repeat(
            [engines[k].forecaster.blend for k in ks], [self._sizes[k] for k in ks]
        )
        forecast = np.empty_like(rates)
        for store_epoch in dict.fromkeys(epochs):
            group = [i for i, e in enumerate(epochs) if e == store_epoch]
            at = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in group])
            forecast[at] = window_rates(
                rates[at], self._window(stores[group[0]], rows[at]), blend[at]
            )
        return forecast

    def _window(self, store: FeatureStore, rows: np.ndarray) -> np.ndarray:
        """``store``'s current window over ``rows`` (block rows)."""
        return self._stores._window.take(self._store_row[rows], axis=0).take(
            store._window_columns(), axis=1
        )

    def _prepare(self, epoch: int, ks: Sequence[int]) -> list[tuple]:
        """Validate engines ``ks``' constraint state and write what changed
        into the block; returns each engine's validated parts.  Raises
        unless every pinned row has a profile for its codec."""
        self._sync()
        engines = self.engines
        parts = []
        for k in ks:
            engine = engines[k]
            own = engine._constraint_parts(epoch, lambda k=k: self._codecs(self._ranges[k]))
            if own is not self._parts[k]:
                self._write_parts(k, own)
            parts.append(own)
        # A codec the apply pass wrote is a scheme of the engine's profiles,
        # so only codecs read in, or profiles written in, since the last
        # check need one: each pinned row's codec, looked up in its engine's
        # own profile columns.
        for k, own in zip(ks, parts):
            if k not in self._unchecked:
                continue
            codes = self._codec[self._ranges[k]]
            pinned = np.flatnonzero(codes >= 0)
            if pinned.size:
                schemes, _, _, available = own[4]
                position = {scheme: i for i, scheme in enumerate(schemes)}
                # A codec the engine's profiles lack looks up the trailing
                # all-false column.
                lookup = np.array(
                    [position.get(scheme, len(schemes)) for scheme in self._schemes]
                )
                offered = np.zeros((len(codes), len(schemes) + 1), dtype=bool)
                offered[:, :-1] = available
                missing = pinned[~offered[pinned, lookup[codes[pinned]]]]
                if missing.size:
                    row = int(missing[0])
                    raise ValueError(
                        f"partition {engines[k]._arrays.names[row]!r} is pinned to "
                        f"codec {self._schemes[codes[row]]!r} "
                        "but no profile for that codec was provided"
                    )
            self._unchecked.discard(k)
        return parts

    def _write_parts(self, k: int, parts: tuple) -> None:
        """Write engine ``k``'s validated constraint state into the block."""
        profiles, slo, affinity = parts[:3]
        self._unchecked.add(k)
        prefix = self._prefixes[k]
        self._tagged[k] = (
            dict(zip(self._tagged_names[k], profiles.values())),
            {f"{prefix}{name}": cap for name, cap in slo.items()},
            {f"{prefix}{name}": allowed for name, allowed in affinity.items()},
        )
        self._parts[k] = parts

    def gather(
        self, epoch: int, ks: Sequence[int], rows: np.ndarray, predicted: np.ndarray
    ) -> "_Gathered":
        """Engines ``ks``' rows of a warm-started instance, with their
        validated constraint parts: the partition columns (``predicted``
        holds the horizon forecast of ``rows``) and the live codecs."""
        return _Gathered(
            parts=self._prepare(epoch, ks),
            size_gb=self._size[rows],
            predicted=predicted,
            threshold=self._threshold[rows],
            tier=self.tier[rows],
            read_fraction=self._read_fraction[rows],
            pushdown=self._pushdown[rows],
            codecs=self._codecs(rows),
        )

    def apply(
        self,
        epoch: int,
        ks: Sequence[int],
        rows: np.ndarray,
        placement: PlacementColumns,
        profiles: Sequence[Mapping],
    ) -> list[MigrationReport]:
        """Move engines ``ks`` to ``placement`` (columns over ``rows``) and
        bill the moves in one pass (:meth:`MigrationExecutor.migrate`), then
        write the placement, codec, clock and price columns.  Returns each
        engine's report; ``profiles[i]`` is engine ``ks[i]``'s profile table,
        which its new placement's decisions come from.

        Each engine's new ``placement`` holds copies of its rows: a later
        plan rewrites the block's columns, never a placement handed out."""
        engines = self.engines
        bounds = [0, *accumulate(self._sizes[k] for k in ks)]
        tier = placement.tier.copy()
        ratio = placement.ratio.copy()
        decompression = placement.decompression_s_per_gb.copy()
        code = self._recode(placement.schemes)[placement.scheme]
        vocabulary = tuple(self._schemes)
        old = PlacementColumns(
            (),
            self.tier[rows],
            self.scheme[rows],
            vocabulary,
            self.ratio[rows],
            self.decompression[rows],
            {},
            self.placed[rows],
        )
        # Rows whose prices change: the moves, and a new ratio or
        # decompression for a row that keeps its tier and scheme.
        changed = (ratio != old.ratio) | (decompression != old.decompression_s_per_gb)
        # Moves *off* a banned (dead) tier are forced evacuations, not
        # voluntary early deletions: their minimum-residency penalty is
        # waived, or the outage would be billed twice.  A calm run bans
        # nothing and waives nothing.
        moves = engines[ks[0]].executor.migrate(
            self._partitions,
            self.months_in_tier,
            rows,
            self._size[rows],
            old,
            placement,
            [
                (start, stop, engines[k]._banned_tiers)
                for k, start, stop in zip(ks, bounds, bounds[1:])
                if engines[k]._banned_tiers
            ],
        )
        changed[moves.rows] = True
        moved = rows[moves.rows]
        self.tier[rows] = tier
        self.scheme[rows] = code
        self.ratio[rows] = ratio
        self.decompression[rows] = decompression
        self.placed[rows] = True
        new_code = code[moves.rows]
        self._codec[moved] = np.where(new_code == self._code(NO_COMPRESSION), -1, new_code)
        for k, own, start, stop in zip(ks, profiles, bounds, bounds[1:]):
            engine = engines[k]
            self._placements[k] = engine._placement = PlacementColumns(
                engine._arrays.names,
                tier[start:stop],
                code[start:stop],
                vocabulary,
                ratio[start:stop],
                decompression[start:stop],
                own,
            )
        self._reprice(ks, rows[changed])
        columns = moves._replace(rows=moved - self._shift[moved])
        values = {
            "moved_gb": columns.moved_gb.tolist(),
            "migration_cost": (columns.cost + columns.egress_cost).tolist(),
            "egress_cost": columns.egress_cost.tolist(),
            "early_deletion_penalty": columns.early_deletion_penalty.tolist(),
        }
        spans = np.searchsorted(moves.rows, bounds).tolist()
        return [
            MigrationReport(
                epoch,
                names=engines[k]._arrays.names,
                columns=columns,
                span=(start, stop),
                totals={
                    field: float(sum(column[start:stop]))
                    for field, column in values.items()
                },
            )
            for k, start, stop in zip(ks, spans, spans[1:])
        ]

    def _recode(self, schemes: tuple[str, ...]) -> np.ndarray:
        """Codes into ``schemes`` as a gather table into the vocabulary (the
        trailing entry is what a -1 code gathers)."""
        table = self._tables.get(schemes)
        if table is None:
            table = self._tables[schemes] = np.array(
                [*map(self._code, schemes), -1], dtype=np.int64
            )
        return table

    def _reprice(self, ks: Sequence[int], changed: np.ndarray) -> None:
        """Compile the prices of the ``changed`` rows of engines ``ks`` just
        applied; the other rows keep theirs.  An engine placed for the first
        time, or re-priced since, compiles whole."""
        engines = self.engines
        whole = [k for k in ks if self._stale_prices(k)]
        if whole:
            self._compile(whole)
            changed = changed[~np.isin(self._owner[changed], whole)]
        if changed.size:
            self._price_rows(engines[ks[0]].simulator, changed)
            for k in dict.fromkeys(self._owner[changed].tolist()):
                self._sum_storage(k)
        self._usage = None

    # -- the settle pass ------------------------------------------------------------
    def settle(
        self,
        windows: Sequence[StreamWindow],
        rows: Sequence[np.ndarray],
        migrations: Sequence[MigrationReport | None],
        reoptimized: Sequence[bool],
        started: float | None = None,
    ) -> list[WindowRecord]:
        """Bill every engine's window and fold its reads in: one pass.

        ``windows[k]`` is engine ``k``'s window — all of them share one span
        — with its events' rows (:meth:`OnlineTieringEngine._window_rows`,
        which validated the window), the migration its re-optimization
        applied, if any, and whether it re-optimized.  Returns each
        engine's record; ``started`` (the pass's start time) gives every
        record the pass's wall time split evenly across the engines.

        Each engine's read and decompression totals are one dot product over
        its own events in event order, so they equal the per-engine bill bit
        for bit; counts are integer sums.  One ``bincount`` over block rows
        adds each row's reads in event order, and ``first_occurrence`` over
        the engine-ordered events keeps each engine's first-read order.
        """
        tracer = get_tracer()
        first = windows[0]
        index = first.index
        duration = first.duration_months
        engines = self.engines
        with tracer.span(
            "engine.settle",
            window=index,
            duration_months=duration,
            engines=len(engines),
        ):
            with tracer.span("engine.ingest") as ingest_span:
                self._refresh_prices()
                lengths = [len(engine_rows) for engine_rows in rows]
                bounds = [0, *accumulate(lengths)]
                block_rows = np.concatenate(rows) + np.repeat(self._offsets, lengths)
                reads = np.concatenate([window.events.reads for window in windows])
                read_cost = self._read_price[block_rows]
                decompression_cost = self._decompression_price[block_rows]
                # np.rint rounds half to even, exactly like round().
                accesses = np.rint(reads).astype(np.int64)
                accessed = _segment_sums(accesses, bounds)
                violated = _segment_sums(accesses * self._violates[block_rows], bounds)
                bills = [
                    (
                        self._storage_cents(k, duration),
                        float(read_cost[start:stop] @ reads[start:stop]),
                        float(decompression_cost[start:stop] @ reads[start:stop]),
                    )
                    for k, (start, stop) in enumerate(zip(bounds, bounds[1:]))
                ]
                ingest_span.set(events=len(reads))

            with tracer.span("engine.feature_store"):
                touched, rates = _observed_rates(block_rows, reads, duration)
                self._stores.fold(index, self._store_row[touched], rates)
                self._forecasts.fold(index, self._forecast_row[touched], rates)
                MigrationExecutor.tick(self.months_in_tier, months=duration)
                ends = [
                    0,
                    *accumulate(
                        np.bincount(self._owner[touched], minlength=len(engines)).tolist()
                    ),
                ]
                local = touched - self._shift[touched]
                for k, engine in enumerate(engines):
                    engine._last_observed = RateColumns(
                        engine._arrays.names,
                        rates[ends[k] : ends[k + 1]],
                        local[ends[k] : ends[k + 1]],
                    )
                    engine._last_window = index
                    engine._window_clock = first.end_month
                    engine._pending_forecast = None
                if tracer.enabled:
                    gauge = get_metrics().gauge("engine.window_fill")
                    for engine in engines:
                        gauge.set(engine.feature_store.window_fill)

        wall = (monotonic_s() - started) / len(engines) if started is not None else 0.0
        records = []
        for k, window in enumerate(windows):
            storage, read, decompression = bills[k]
            migration = migrations[k]
            records.append(
                WindowRecord(
                    epoch=index,
                    reoptimized=reoptimized[k],
                    storage_cost=storage,
                    read_cost=read,
                    decompression_cost=decompression,
                    migration_cost=migration.migration_cost if migration else 0.0,
                    early_deletion_penalty=(
                        migration.early_deletion_penalty if migration else 0.0
                    ),
                    num_moved=migration.num_moved if migration else 0,
                    moved_gb=migration.moved_gb if migration else 0.0,
                    access_count=accessed[k],
                    latency_violations=violated[k],
                    wall_clock_s=wall,
                    start_month=window.start_month,
                    end_month=window.end_month,
                    cause=window.cause,
                )
            )
        return records

    def _storage_cents(self, k: int, duration: float) -> float:
        """Engine ``k``'s storage bill for ``duration`` months, as
        ``CompiledPlacement.step`` computes it."""
        last, cents = self._storage_bill[k]
        if last != duration:
            cents = float(self._storage[k] * duration)
            self._storage_bill[k] = (duration, cents)
        return cents


@dataclass
class _Gathered:
    """Engines' rows of a warm-started instance (:meth:`SettleBlock.gather`)
    and each engine's validated constraint parts."""

    parts: list[tuple]
    size_gb: np.ndarray
    predicted: np.ndarray
    threshold: np.ndarray
    tier: np.ndarray
    read_fraction: np.ndarray
    pushdown: np.ndarray
    codecs: tuple[str | None, ...]


class WindowPlan:
    """One window's re-optimization of its firing engines, planned on their
    blocks' columns: the only way an engine plans.

    ``members`` lists the firing engines — a fleet's tenants in roster
    order, or a lone engine as the one member of its block of one — each
    with its tenant name, the :class:`SettleBlock` that holds it and its
    index there.  Consecutive members of one block form a run (a fleet whose
    tenants share one block has one run).  The plan forecasts every row of a
    run in one pass (:meth:`forecast`), assembles the
    :class:`~repro.core.optassign.StackedProblem` from the blocks' cached
    per-tenant parts (:meth:`stack`) and prices and applies every move of a
    run in one pass (:meth:`apply`) — what each engine's own forecast, the
    object build, a stack of the per-tenant instances and the per-partition
    scan do one tenant at a time, bit for bit (the references in
    ``tests/oracles/plan.py``).  The runs in order give the stacked rows:
    members in order, each member's rows in its engine's order, named as
    its block tags them (a lone engine's block leaves them untagged).
    Between :meth:`stack` and :meth:`apply` every host solves the instance
    through :func:`solve_stacked`.
    """

    def __init__(self, epoch: int, members: Sequence[tuple[str, SettleBlock, int]]):
        self.epoch = epoch
        self.members = tuple(members)
        runs: list[tuple[SettleBlock, list[int]]] = []
        for _, block, k in self.members:
            if runs and runs[-1][0] is block:
                runs[-1][1].append(k)
            else:
                runs.append((block, [k]))
        self._runs = [(block, ks, block.rows(ks)) for block, ks in runs]
        self._predicted: list[np.ndarray] = []

    def forecast(self) -> None:
        """Forecast every firing row and hand each engine its forecast."""
        epoch = self.epoch
        for block, ks, rows in self._runs:
            rates = block.forecast(epoch, ks, rows)
            engines = [block.engines[k] for k in ks]
            # A fleet's tenants share one horizon: they price alike.
            predicted = rates * engines[0].config.horizon_months
            if (predicted < 0).any():
                raise ValueError("predicted_accesses must be non-negative")
            self._predicted.append(predicted)
            start = 0
            for engine in engines:
                stop = start + len(engine._arrays)
                engine._pending_forecast = RateColumns(
                    engine._arrays.names, rates[start:stop]
                )
                start = stop

    def stack(self) -> StackedProblem:
        """The firing engines' instance (after :meth:`forecast`), priced by
        the first member's cost model (a fleet's tenants price alike)."""
        epoch = self.epoch
        gathered = [
            block.gather(epoch, ks, rows, predicted)
            for (block, ks, rows), predicted in zip(self._runs, self._predicted)
        ]
        profiles: dict[str, dict] = {}
        slo: dict[str, float] = {}
        affinity: dict[str, frozenset[str]] = {}
        spans: list[tuple[int, int]] = []
        start = 0
        for _, block, k in self.members:
            tagged_profiles, tagged_slo, tagged_affinity = block._tagged[k]
            profiles.update(tagged_profiles)
            slo.update(tagged_slo)
            affinity.update(tagged_affinity)
            spans.append((start, start + block._sizes[k]))
            start += block._sizes[k]
        engines = [block.engines[k] for _, block, k in self.members]
        # Each tenant's cached profile columns and tier mask, stacked onto
        # the scheme union.
        parts = [own for part in gathered for own in part.parts]
        banned = frozenset().union(*(own[3] for own in parts))
        config = engines[0].config

        def column(field: str) -> np.ndarray:
            return np.concatenate([getattr(part, field) for part in gathered])

        problem = OptAssignProblem._assemble(
            engines[0].simulator.cost_model(
                duration_months=config.horizon_months, weights=config.weights
            ),
            PartitionArrays(
                names=tuple(
                    chain.from_iterable(
                        block._tagged_names[k] for _, block, k in self.members
                    )
                ),
                size_gb=column("size_gb"),
                predicted_accesses=column("predicted"),
                latency_threshold_s=column("threshold"),
                current_tier=column("tier"),
                read_fraction=column("read_fraction"),
                pushdown_fraction=column("pushdown"),
                current_codec=tuple(chain.from_iterable(part.codecs for part in gathered)),
                file_ids=tuple(
                    chain.from_iterable(engine._arrays.file_ids for engine in engines)
                ),
            ),
            profiles,
            slo,
            affinity,
            banned,
            profile_columns=_stack_profile_columns([own[4] for own in parts], spans),
            tier_mask=_stack_tier_masks([own[5] for own in parts], spans, banned),
        )
        return StackedProblem(
            problem=problem,
            tenants=tuple(name for name, _, _ in self.members),
            tenant_spans=tuple(spans),
        )

    def apply(self, assignment) -> list[MigrationReport]:
        """Apply and bill a solve of :meth:`stack`'s instance; returns each
        firing tenant's report, in roster order.  Every tenant's policy is
        notified with the forecast its placement was planned from."""
        epoch = self.epoch
        placement = assignment.to_placement()
        reports: list[MigrationReport] = []
        start = 0
        for block, ks, rows in self._runs:
            stop = start + len(rows)
            part = PlacementColumns(
                (),
                placement.tier[start:stop],
                placement.scheme[start:stop],
                placement.schemes,
                placement.ratio[start:stop],
                placement.decompression_s_per_gb[start:stop],
                {},
            )
            reports += block.apply(
                epoch, ks, rows, part, [block._parts[k][0] for k in ks]
            )
            start = stop
        counter = get_metrics().counter("engine.reoptimizations")
        for (_, block, k), report in zip(self.members, reports):
            count_moves(report)
            block.engines[k]._notify_applied(epoch)
            counter.add()
        return reports


def solve_stacked(
    stacked: StackedProblem,
    engines: Sequence[OnlineTieringEngine],
    delta: DeltaSolver | None = None,
    pools: PoolSet | None = None,
    reserved_gb: np.ndarray | None = None,
) -> tuple[Assignment, float]:
    """The one solve of a window's instance: its assignment and the latency
    relaxation it needed (1.0 = none).  A lone engine and a fleet solve
    through it alike.

    ``engines`` are the firing engines, one per tenant span of ``stacked``.
    Without a ``delta`` solver this is
    :func:`~repro.core.optassign.solve_optassign` (the greedy solver on an
    uncapacitated catalog, such as every fleet's), with
    :func:`~repro.core.optassign.repair_pools` inside its relaxation loop
    when ``pools`` are given: an unfixable pool relaxes latency exactly as
    solver infeasibility does, while the fail-fast certificates run once.
    With one, it is that solver's incremental solve, fed each engine's
    drift-hint rows offset by its span: the rows its policy's
    per-partition scores flag (:meth:`~repro.engine.policies.TieringPolicy.
    drifted_rows`), or every row of an engine with a ``profile_provider``,
    whose refreshed profiles can reprice every candidate.  ``reserved_gb``
    is the pool capacity the placements outside the instance hold.  Raises
    :class:`~repro.core.optassign.InfeasibleError` when no relaxation
    helps.
    """
    problem = stacked.problem
    if delta is None:
        post_repair = None
        if pools is not None:
            post_repair = lambda assignment: repair_pools(  # noqa: E731
                assignment, pools, reserved_gb=reserved_gb
            )
        report = solve_optassign(problem, post_repair=post_repair)
        return report.assignment, report.latency_relaxation
    hints = []
    for engine, (start, stop) in zip(engines, stacked.tenant_spans):
        if engine._profile_provider is not None:
            hints.append(np.arange(start, stop))
            continue
        rows = engine.policy.drifted_rows(delta.drift_threshold)
        if rows is not None and rows.size:
            hints.append(rows + start)
    report = delta.solve(
        problem,
        changed=np.concatenate(hints) if hints else None,
        pool_set=pools,
        reserved_gb=reserved_gb,
    )
    full = report.full_report
    return report.assignment, 1.0 if full is None else full.latency_relaxation


def _observed_rates(
    rows: np.ndarray, reads: np.ndarray, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """The rows the events touched, in first-read order, and each one's
    reads per month of ``duration`` (raw counts for a zero-width window).

    ``bincount`` adds each row's reads in event order, as a per-event loop
    would.
    """
    touched = first_occurrence(rows)
    counts = np.bincount(rows, weights=reads)[touched]
    return touched, (counts / duration if duration > 0 else counts)


def _segment_sums(values: np.ndarray, bounds: list[int]) -> list[int]:
    """The integer sum of ``values[bounds[k]:bounds[k + 1]]`` for every
    ``k``, 0 for an empty segment: one ``reduceat`` over the segments that
    have values."""
    sums = [0] * (len(bounds) - 1)
    filled = [k for k in range(len(sums)) if bounds[k + 1] > bounds[k]]
    if filled:
        totals = np.add.reduceat(values, [bounds[k] for k in filled])
        for k, total in zip(filled, totals.tolist()):
            sums[k] = total
    return sums
