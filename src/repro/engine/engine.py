"""The online tiering engine: continuous SCOPe over a stream of access events.

:class:`OnlineTieringEngine` wraps the batch components in a rolling-horizon
control loop.  Per epoch (billing month) it:

1. asks its :class:`~repro.engine.policies.TieringPolicy` whether to
   re-optimize, using only causally available information (the previous
   epoch's observations);
2. on re-optimization, forecasts each partition's monthly access rate from
   the feature store's sliding window (warm-started
   :class:`~repro.core.access_predict.WindowedAccessForecaster`), builds an
   :class:`~repro.core.optassign.OptAssignProblem` whose partitions carry the
   *current* placement (so the objective's tier-change term prices migrations
   truthfully), solves it, and lets the
   :class:`~repro.engine.executor.MigrationExecutor` apply and bill the moves;
3. steps the :class:`~repro.cloud.CloudStorageSimulator` one month
   (storage + the epoch's actual reads) and folds the epoch's events into the
   :class:`~repro.engine.features.FeatureStore` in O(new events).

Per-partition state lives in row-aligned numpy columns, in the row order of
the engine's cached :class:`~repro.cloud.PartitionArrays`: the engine
resolves its partitions to feature-store and forecaster rows once, at
construction.  Settling a window gathers each event's row once (the same
gather bills it), sums the reads per row with one ``bincount`` and hands the
touched rows to the feature store, the forecaster and the policy as
:class:`~repro.engine.policies.RateColumns`; forecasts come back as one
column, and the residency clocks (``months_in_tier``) are one float64 column
that ticks with a single vector add.

The resulting :class:`EngineReport` carries the true end-to-end bill —
storage, reads, decompression, migrations and early-deletion penalties — so
``StaticOnce`` / ``PeriodicReoptimize`` / ``DriftTriggered`` policies can be
compared apples to apples on the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
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
    TierCatalog,
    TimedEvent,
)
from ..cloud.events import EventBatch, first_occurrence
from ..core.access_predict import WindowedAccessForecaster
from ..core.optassign import (
    DeltaSolver,
    InfeasibleError,
    OptAssignProblem,
    ProfileTable,
    solve_optassign,
)
from ..core.optassign.problem import check_pinned_codecs
from ..obs import get_metrics, get_tracer
from ..obs.clock import monotonic_s
from .events import EpochBatch, StreamWindow, TriggerWindow, windowed
from .executor import MigrationExecutor, MigrationReport
from .features import FeatureStore
from .policies import RateColumns, TieringPolicy

__all__ = [
    "EngineConfig",
    "EpochRecord",
    "WindowRecord",
    "EngineReport",
    "OnlineTieringEngine",
]


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
        if self.horizon_months <= 0:
            raise ValueError("horizon_months must be positive")
        if self.window_months <= 0:
            raise ValueError("window_months must be positive")
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
class EpochRecord:
    """What one epoch cost and what the engine did during it.

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

    @property
    def bill_total(self) -> float:
        """Everything billed this epoch, in cents."""
        return (
            self.storage_cost
            + self.read_cost
            + self.decompression_cost
            + self.migration_cost
            + self.early_deletion_penalty
        )


@dataclass(slots=True)
class WindowRecord(EpochRecord):
    """An :class:`EpochRecord` for one epoch-free trigger window.

    ``epoch`` holds the window's ordinal index; ``start_month`` /
    ``end_month`` locate it on the virtual wall clock and ``cause`` names the
    trigger that closed it.  Extending :class:`EpochRecord` keeps windowed
    runs first-class citizens of :class:`EngineReport` (totals, summaries and
    comparisons work unchanged).
    """

    start_month: float = 0.0
    end_month: float = 0.0
    cause: str = ""

    @property
    def duration_months(self) -> float:
        return self.end_month - self.start_month


@dataclass
class EngineReport:
    """The outcome of running one policy over one stream."""

    policy: str
    records: list[EpochRecord]

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
        :class:`~repro.chaos.DisruptionSchedule` at epoch boundaries (provider
        outages, price shocks).  Without one — the calm run — every chaos code
        path is inert and the engine's bills are bit-identical to the
        pre-chaos code.
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
        self._compiled: CompiledPlacement | None = None
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
        # columns) behind the last build; see _assemble_problem.
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
        # Months each partition has resided in its current tier, in row order.
        self.months_in_tier = np.array(
            [0.0 if partition.is_new else float("inf") for partition in self._partitions]
        )
        self._last_epoch = -1
        self._last_window = -1
        self._window_clock = 0.0
        self._last_observed: RateColumns | None = None
        self._pending_forecast: RateColumns | None = None
        self._last_applied_forecast: RateColumns | None = None
        self._delta: DeltaSolver | None = (
            DeltaSolver(drift_threshold=self.config.delta_drift_threshold)
            if self.config.reopt_mode == "delta"
            else None
        )
        self.last_delta_report = None

    @property
    def placement(self) -> PlacementColumns | None:
        """The applied placement, a ``Mapping[str, PlacementDecision]`` kept
        as columns in partition order (``None`` before the first apply)."""
        return self._placement

    @placement.setter
    def placement(self, placement: Mapping[str, PlacementDecision] | None) -> None:
        self._placement = (
            None
            if placement is None
            else PlacementColumns.from_mapping(self._arrays.names, placement)
        )
        self._compiled = None

    # -- the control loop -------------------------------------------------------
    def run(self, stream: Iterable[EpochBatch]) -> EngineReport:
        """Consume the stream epoch by epoch and return the end-to-end report.

        The engine lives on a single continuous timeline: ``run`` may be
        called again with a stream whose epochs continue the previous one
        (picking up placement, features, drift observations and residency
        clocks where they left off).  Once the engine has consumed a batch,
        epochs must advance by exactly one month — billing, residency clocks
        and forecast decay all assume a dense monthly timeline, so a gap (or
        a repeated/earlier epoch) raises *before* anything is billed or
        migrated and the engine's state is never half-advanced.  Quiet
        months are modelled as batches with no events (every provided stream
        yields them), not as skipped epochs.
        """
        records = [self.step(batch) for batch in stream]
        return EngineReport(policy=self.policy.name, records=records)

    def step(self, batch: EpochBatch) -> EpochRecord:
        """Consume a single epoch batch: the body of :meth:`run`'s loop.

        Equivalent to ``begin_epoch`` → (``build_problem`` →
        ``solve_optassign`` → ``apply_assignment`` when the policy fires) →
        ``settle``.  External schedulers (the fleet layer) call those hooks
        individually so the solve can be batched across engines; everything
        else should call ``step`` or ``run``.
        """
        started = monotonic_s()
        with get_tracer().span("engine.epoch", epoch=batch.epoch) as span:
            migration: MigrationReport | None = None
            reoptimized = False
            force_fire = False
            if self.chaos is not None:
                force_fire = self.chaos.before_engine_epoch(self, batch.epoch)
            if self.begin_epoch(batch.epoch) or force_fire:
                problem = self.build_problem(batch.epoch)
                try:
                    assignment = self.solve_problem(problem)
                except InfeasibleError as error:
                    # Graceful degradation is a chaos-run contract only: a calm
                    # run keeps its loud fail-fast certificates.  With chaos
                    # attached and a standing placement to fall back on, the
                    # epoch is billed at the frozen layout and the failure is
                    # recorded as a structured DegradationReport.
                    if self.chaos is None or self.placement is None:
                        raise
                    self.chaos.record_frozen_placement(self, batch.epoch, error)
                else:
                    migration = self.apply_assignment(
                        batch.epoch, assignment.to_placement()
                    )
                    reoptimized = True
                    if self.chaos is not None:
                        self.chaos.note_migration(
                            batch.epoch, migration, self._banned_tiers
                        )
            record = self.settle(
                batch, migration=migration, reoptimized=reoptimized, started=started
            )
            span.set(reoptimized=reoptimized)
        return record

    def solve_problem(self, problem: OptAssignProblem):
        """Solve a built instance under the configured ``reopt_mode``.

        ``"full"`` runs :func:`solve_optassign` from scratch.  ``"delta"``
        hands the instance to the engine's persistent
        :class:`~repro.core.optassign.DeltaSolver`; the policy's
        per-partition drift scores (when it has them — see
        :meth:`~repro.engine.policies.TieringPolicy.drifted_partitions`)
        widen the changed-row set, and a ``profile_provider`` forces every
        row changed since refreshed profiles reprice all candidate options.
        The delta report lands in :attr:`last_delta_report` for inspection.
        """
        with get_tracer().span("engine.solve", mode=self.config.reopt_mode):
            if self._delta is None:
                return solve_optassign(problem).assignment
            if self._profile_provider is not None:
                changed = set(problem.partition_names)
            else:
                changed = self.policy.drifted_partitions(
                    self.config.delta_drift_threshold
                )
            report = self._delta.solve(problem, changed=changed)
            self.last_delta_report = report
            return report.assignment

    # -- the epoch-free control loop ---------------------------------------------
    # The windowed timeline generalizes the dense monthly grid: trigger
    # windows (event-count / wall-clock / drift-score, see
    # :mod:`repro.engine.events`) close batches at arbitrary points of
    # virtual time.  An engine commits to one timeline on first use — mixing
    # step() and step_window() raises, because residency clocks, feature
    # epochs and forecast decay cannot straddle two clocks.  Month-aligned
    # ``TimeTrigger(1.0)`` windows reproduce the dense path bit-exactly (the
    # oracle lock in tests/engine/test_windows.py).

    def run_stream(
        self,
        events: Iterable[TimedEvent],
        trigger: TriggerWindow,
        *,
        start_month: float = 0.0,
        horizon_months: float | None = None,
    ) -> EngineReport:
        """Consume a continuous timed-event stream under a trigger window.

        The streaming analogue of :meth:`run`: cuts ``events`` (time-ordered
        :class:`repro.cloud.TimedEvent`, e.g. a
        :class:`repro.workloads.PoissonZipfStream`) into
        :class:`~repro.engine.events.StreamWindow` batches with
        :func:`~repro.engine.events.windowed` and steps each one.  Only the
        open window is ever materialized, so RAM stays flat at millions of
        events.  A :class:`~repro.engine.events.DriftTrigger` without a
        ``baseline_provider`` (including inside an
        :class:`~repro.engine.events.AnyTrigger`) is wired to this engine's
        last *applied* forecast, closing the loop drift detection needs.
        """
        self._wire_drift_baseline(trigger)
        records: list[EpochRecord] = [
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
        """Consume one closed trigger window: the epoch-free :meth:`step`.

        A window whose ``cause`` is ``"drift"`` forces a re-optimization even
        if the policy would not fire — the trigger has already detected drift
        against the engine's own applied forecast, and closing the window
        *was* the decision to react now rather than at the next grid point.
        """
        started = monotonic_s()
        with get_tracer().span(
            "engine.window", index=window.index, cause=window.cause
        ) as span:
            migration: MigrationReport | None = None
            reoptimized = False
            force_fire = window.cause == "drift"
            if self.chaos is not None:
                force_fire = (
                    self.chaos.before_engine_window(
                        self, window.index, window.start_month, window.end_month
                    )
                    or force_fire
                )
            if self.begin_window(window.index) or force_fire:
                problem = self.build_problem(window.index)
                try:
                    assignment = self.solve_problem(problem)
                except InfeasibleError as error:
                    if self.chaos is None or self.placement is None:
                        raise
                    self.chaos.record_frozen_placement(self, window.index, error)
                else:
                    migration = self.apply_assignment(
                        window.index, assignment.to_placement()
                    )
                    reoptimized = True
                    if self.chaos is not None:
                        self.chaos.note_migration(
                            window.index, migration, self._banned_tiers
                        )
            record = self.settle_window(
                window, migration=migration, reoptimized=reoptimized, started=started
            )
            span.set(reoptimized=reoptimized)
        get_metrics().counter("engine.window_closes", cause=window.cause).add()
        return record

    def _validate_window(self, index: int) -> None:
        """Raise unless ``index`` continues the windowed timeline."""
        if self._last_epoch >= 0:
            raise ValueError(
                "this engine is on the dense monthly timeline (step was "
                "called); epoch-free window stepping cannot be mixed in — "
                "the two clocks would disagree"
            )
        if self._last_window >= 0 and index != self._last_window + 1:
            raise ValueError(
                f"stream windows must be consecutive (got window {index} "
                f"after {self._last_window}); windowed() yields gap-free "
                "indices"
            )

    def begin_window(self, index: int) -> bool:
        """Validate the window and ask the policy whether to re-optimize.

        The windowed twin of :meth:`begin_epoch`: the policy sees the window
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

    def settle_window(
        self,
        window: StreamWindow,
        migration: MigrationReport | None = None,
        reoptimized: bool = False,
        started: float | None = None,
    ) -> WindowRecord:
        """Bill one trigger window and fold its events into the engine state.

        Storage accrues for exactly ``window.duration_months``; reads are
        billed per event in stream order (the identical arithmetic to a
        dense epoch — a month-aligned window settles bit-exactly like
        :meth:`settle`).  The feature store and forecaster receive observed
        **monthly rates** — window counts divided by the window's duration —
        so windows of different widths remain comparable; for the degenerate
        zero-width flush window raw counts are folded as-is.  Residency
        clocks advance by the window's fractional duration.
        """
        index = window.index
        self._validate_window(index)
        tracer = get_tracer()
        duration = window.duration_months
        with tracer.span(
            "engine.settle", window=index, duration_months=duration
        ):
            if self._compiled is None:
                self._compiled = self.simulator.compile_placement(
                    self._arrays, self.placement
                )
            events = window.events
            with tracer.span("engine.ingest") as ingest_span:
                rows = self._arrays.event_rows(events)
                step = self._compiled.step(
                    events, storage_months=duration, rows=rows
                )
                ingest_span.set(events=len(events))

            observed = self._observed(rows, events.reads, duration)
            with tracer.span("engine.feature_store"):
                self.feature_store.observe_rows(
                    index, self._store_rows[observed.rows], observed.rates
                )
                self.forecaster.update_rows(
                    index, self._forecast_rows[observed.rows], observed.rates
                )
            MigrationExecutor.tick(self.months_in_tier, months=duration)
            self._last_observed = observed
            self._last_window = index
            self._window_clock = window.end_month
            self._pending_forecast = None
            if tracer.enabled:
                get_metrics().gauge("engine.window_fill").set(
                    self.feature_store.window_fill
                )

        return WindowRecord(
            epoch=index,
            reoptimized=reoptimized,
            storage_cost=step.bill.storage,
            read_cost=step.bill.read,
            decompression_cost=step.bill.decompression,
            migration_cost=migration.migration_cost if migration else 0.0,
            early_deletion_penalty=(
                migration.early_deletion_penalty if migration else 0.0
            ),
            num_moved=migration.num_moved if migration else 0,
            moved_gb=migration.moved_gb if migration else 0.0,
            access_count=step.access_count,
            latency_violations=step.latency_violations,
            wall_clock_s=monotonic_s() - started if started is not None else 0.0,
            start_month=window.start_month,
            end_month=window.end_month,
            cause=window.cause,
        )

    @property
    def window_clock(self) -> float:
        """Virtual time (months) the windowed timeline has settled through."""
        return self._window_clock

    @property
    def last_applied_forecast(self) -> RateColumns | None:
        """The monthly-rate forecast behind the most recent applied placement."""
        return self._last_applied_forecast

    def _observed(
        self, rows: np.ndarray, reads: np.ndarray, duration: float
    ) -> RateColumns:
        """The reads of each row the events touched, per month of
        ``duration``, in first-read order (raw counts for a zero-width
        window).

        ``bincount`` adds each row's reads in event order, as a per-event
        loop would.
        """
        touched = first_occurrence(rows)
        counts = np.bincount(rows, weights=reads)[touched]
        rates = counts / duration if duration > 0 else counts
        return RateColumns(self._arrays.names, rates, touched)

    # -- external-scheduling hooks ----------------------------------------------
    # The fleet scheduler (:mod:`repro.fleet`) epoch-locks many engines and
    # replaces the per-engine solve with one stacked, pool-arbitrated solve.
    # Per epoch it must call, in order: ``begin_epoch`` (validation + policy
    # check, no state change), then for firing engines ``build_problem`` and
    # ``apply_assignment`` with an externally computed placement, then
    # ``settle`` for *every* engine.  ``step`` composes exactly these hooks.

    def _validate_epoch(self, epoch: int) -> None:
        """Raise unless ``epoch`` continues the dense monthly timeline."""
        if self._last_window >= 0:
            raise ValueError(
                "this engine is on the epoch-free windowed timeline "
                "(step_window was called); dense epoch stepping cannot be "
                "mixed in — the two clocks would disagree"
            )
        if self._last_epoch >= 0 and epoch != self._last_epoch + 1:
            raise ValueError(
                f"stream epochs must advance one month at a time (got "
                f"{epoch} after {self._last_epoch}); model quiet months "
                "as empty batches, not gaps"
            )

    def begin_epoch(self, epoch: int) -> bool:
        """Validate the epoch and ask the policy whether to re-optimize.

        Raises before anything is billed or migrated when ``epoch`` does not
        continue the engine's dense monthly timeline.  Mutates no engine
        state (the policy may update its own drift bookkeeping).
        """
        self._validate_epoch(epoch)
        if self.placement is None:
            return True
        tracer = get_tracer()
        with tracer.span(
            "engine.policy_decision", epoch=epoch, policy=self.policy.name
        ) as span:
            fire = self.policy.should_reoptimize(epoch, self._last_observed)
            if tracer.enabled:
                span.set(fire=fire)
                score = getattr(self.policy, "last_score", None)
                if score is not None:
                    get_metrics().gauge(
                        "engine.drift_score", policy=self.policy.name
                    ).set(score)
        return fire

    def settle(
        self,
        batch: EpochBatch,
        migration: MigrationReport | None = None,
        reoptimized: bool = False,
        started: float | None = None,
    ) -> EpochRecord:
        """Bill the epoch and fold its events into the engine's state.

        Steps the simulator one month against the (possibly just-changed)
        placement, feeds the feature store and forecaster, advances the
        residency clocks and returns the epoch's record.  ``migration`` is
        the report of this epoch's re-optimization, if one was applied.
        """
        epoch = batch.epoch
        self._validate_epoch(epoch)
        tracer = get_tracer()
        with tracer.span("engine.settle", epoch=epoch):
            # The compiled placement answers step_month queries with
            # vectorized gathers; it is invalidated whenever a
            # re-optimization moves data.
            if self._compiled is None:
                self._compiled = self.simulator.compile_placement(
                    self._arrays, self.placement
                )
            events = EventBatch.from_events(batch.events)
            with tracer.span("engine.ingest") as ingest_span:
                rows = self._arrays.event_rows(events)
                step = self._compiled.step(events, rows=rows)
                ingest_span.set(events=len(events))

            observed = self._observed(rows, events.reads, 1.0)
            with tracer.span("engine.feature_store"):
                # Event by event: a batch may read a partition many times,
                # and each lifetime total adds its reads in event order.
                self.feature_store.observe(batch)
                self.forecaster.update_rows(
                    epoch, self._forecast_rows[observed.rows], observed.rates
                )
            MigrationExecutor.tick(self.months_in_tier)
            self._last_observed = observed
            self._last_epoch = epoch
            # A forecast built for this epoch is stale once the epoch
            # settles; if a solve failed between build_problem and here,
            # dropping it keeps the apply_assignment guard honest for later
            # epochs.
            self._pending_forecast = None
            if tracer.enabled:
                get_metrics().gauge("engine.window_fill").set(
                    self.feature_store.window_fill
                )

        return EpochRecord(
            epoch=epoch,
            reoptimized=reoptimized,
            storage_cost=step.bill.storage,
            read_cost=step.bill.read,
            decompression_cost=step.bill.decompression,
            migration_cost=migration.migration_cost if migration else 0.0,
            early_deletion_penalty=(
                migration.early_deletion_penalty if migration else 0.0
            ),
            num_moved=migration.num_moved if migration else 0,
            moved_gb=migration.moved_gb if migration else 0.0,
            access_count=step.access_count,
            latency_violations=step.latency_violations,
            wall_clock_s=monotonic_s() - started if started is not None else 0.0,
        )

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

    def invalidate_pricing(self) -> None:
        """Drop price-derived caches after an in-place catalog re-pricing.

        The compiled placement snapshots the catalog's price vectors at
        compile time; recompiling against the live (just-repriced) catalog is
        what makes the *next* settle bill at post-shock prices.
        """
        self._compiled = None

    @property
    def delta_solver(self) -> DeltaSolver | None:
        """The persistent delta solver in ``reopt_mode="delta"`` (else None)."""
        return self._delta

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
        if self._compiled is None:
            self._compiled = self.simulator.compile_placement(
                self._arrays, self.placement
            )
        return self._compiled.tier_usage_gb()

    # -- re-optimization ---------------------------------------------------------
    def forecast_monthly(self, epoch: int) -> RateColumns:
        """Projected monthly reads per partition, from windowed features.

        Uses only information available *before* ``epoch``: the feature
        store's sliding window and the forecaster's warm EWMA state (seeded
        with the priors at construction).  One column over every row.
        """
        window = self.feature_store.window_matrix(self._store_rows)
        rates = self.forecaster.forecast_rows(
            self._forecast_rows, window, epoch=epoch - 1
        )
        return RateColumns(self._arrays.names, rates)

    def build_problem(self, epoch: int) -> OptAssignProblem:
        """The OPTASSIGN instance this epoch's re-optimization would solve.

        Forecasts monthly rates from the feature store, scales them to the
        planning horizon, prices against the engine's cost model and warm
        starts from the current placement (so staying put is free and every
        move must earn back its own cost over the horizon).  The forecast is
        remembered so that :meth:`apply_assignment` can hand it to the policy.
        """
        config = self.config
        tracer = get_tracer()
        with tracer.span("engine.build_problem", epoch=epoch):
            with tracer.span("engine.forecast"):
                predicted_monthly = self.forecast_monthly(epoch)
            problem = self._assemble_problem(epoch, predicted_monthly)
        self._pending_forecast = predicted_monthly
        return problem

    def _assemble_problem(
        self, epoch: int, predicted_monthly: RateColumns
    ) -> OptAssignProblem:
        """The instance as columns over the engine's cached partition arrays.

        ``predicted_monthly`` is a forecast over every row.

        Only three columns change between builds: the horizon forecast, the
        warm-start tier (where the data lives today, so staying put is free
        and every move must earn back its own cost over the horizon) and the
        live codec.  The constraint state — profile table, SLO caps,
        provider affinity, banned tiers — is validated by the full
        ``OptAssignProblem.__init__`` once, and its validated form (plus the
        profile columns) is reused for as long as every input compares equal
        to what was validated; any change, however it was made, re-validates.
        """
        config = self.config
        base = self._arrays
        names = base.names
        partitions = self._partitions
        predicted = predicted_monthly.dense() * config.horizon_months
        if (predicted < 0).any():
            raise ValueError("predicted_accesses must be non-negative")
        # Where the data lives today: the placement's tier column, and the
        # live partition for any row the placement does not cover.
        placement = self._placement
        if placement is None:
            current_tier = np.fromiter(
                map(attrgetter("current_tier"), partitions),
                dtype=np.int64,
                count=len(partitions),
            )
        else:
            current_tier = placement.tier.copy()
            if placement.placed is not None:
                for row in np.flatnonzero(~placement.placed).tolist():
                    current_tier[row] = partitions[row].current_tier
        codecs = tuple(map(attrgetter("current_codec"), partitions))
        arrays = replace(
            base,
            predicted_accesses=predicted,
            current_tier=current_tier,
            current_codec=codecs,
        )
        cost_model = self.simulator.cost_model(
            duration_months=config.horizon_months, weights=config.weights
        )
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
            valid_profiles, slo, affinity, banned, columns = self._validated[1]
            check_pinned_codecs(names, codecs, valid_profiles)
            return OptAssignProblem._assemble(
                cost_model,
                arrays,
                valid_profiles,
                slo,
                affinity,
                banned,
                profile_columns=columns,
            )
        problem = OptAssignProblem(
            arrays,
            cost_model,
            profiles,
            latency_slo_s=self._latency_slo,
            provider_affinity=self._provider_affinity,
            banned_tiers=self._banned_tiers or None,
        )
        self._validated = (
            _snapshot(constraints),
            (
                problem._profiles,
                problem._latency_slo,
                problem._provider_affinity,
                problem._banned_tiers,
                problem._profile_columns(),
            ),
        )
        return problem

    def apply_assignment(
        self, epoch: int, new_placement: Mapping[str, PlacementDecision]
    ) -> MigrationReport:
        """Apply and bill a solved placement, completing a re-optimization.

        ``new_placement`` is usually ``report.assignment.to_placement()`` of
        a solve over :meth:`build_problem`'s instance — or, in the fleet
        setting, this engine's slice of a stacked, pool-arbitrated solve.
        The policy is notified with the forecast the problem was built from,
        so every ``apply_assignment`` requires a fresh preceding
        :meth:`build_problem` (notifying with a stale forecast would corrupt
        a drift policy's baseline silently).
        """
        if self._pending_forecast is None:
            raise ValueError(
                "apply_assignment requires a preceding build_problem for "
                "this re-optimization (the policy must be notified with the "
                "forecast the applied placement was planned from)"
            )
        with get_tracer().span("engine.migrate", epoch=epoch) as span:
            placement = PlacementColumns.from_mapping(self._arrays.names, new_placement)
            # Moves *off* a banned (dead) tier are forced evacuations, not
            # voluntary early deletions — the minimum-residency penalty is
            # waived for them.  Empty banned set (every calm run): no waiver.
            migration = self.executor.apply(
                self._partitions,
                self._placement,
                placement,
                self.months_in_tier,
                epoch=epoch,
                waive_early_deletion_tiers=self._banned_tiers or None,
            )
            span.set(num_moved=migration.num_moved)
        self.placement = placement
        self.policy.notify_reoptimized(epoch, self._pending_forecast)
        # The forecast this placement was planned from doubles as the drift
        # baseline for epoch-free DriftTriggers (see run_stream).  It is
        # read-only, so policy and trigger share it without a copy.
        self._last_applied_forecast = self._pending_forecast
        self._pending_forecast = None
        get_metrics().counter("engine.reoptimizations").add()
        return migration
