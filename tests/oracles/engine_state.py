"""Name-keyed oracles for the engine's columnar per-partition state.

The engine keeps its feature store, forecaster, drift scores and residency
clocks as numpy columns in partition row order.  These are the
implementations they replaced, one Python object or dict entry per
partition: the sparse-deque :class:`ScalarFeatureStore`, the dict-keyed
:class:`DictForecaster` and the dict drift scores.  The columnar paths must
reproduce them bit for bit (``tests/engine/test_state_oracle.py``).

:func:`reference_settle_window` is the per-engine window settle that one
:class:`~repro.engine.SettleBlock` pass over many engines replaced, and
:func:`settle_each_engine` makes a fleet settle through it
(``tests/engine/test_settle_block.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.engine import (
    EpochBatch,
    MigrationExecutor,
    PartitionFeatures,
    RateColumns,
    StreamWindow,
    WindowRecord,
)
from repro.obs.clock import monotonic_s

from oracles.streams import sorted_first_occurrence


def reference_observed_rates(
    rows: np.ndarray, reads: np.ndarray, duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """The rows the events touched, in first-read order (by the stable sort
    of :func:`~oracles.streams.sorted_first_occurrence`), and each one's
    reads per month of ``duration`` (raw counts for a zero-width window),
    added in event order."""
    touched = sorted_first_occurrence(rows)
    counts = np.bincount(rows, weights=reads)[touched]
    return touched, (counts / duration if duration > 0 else counts)


def reference_settle_window(
    engine,
    window: StreamWindow,
    migration=None,
    reoptimized: bool = False,
    started: float | None = None,
) -> WindowRecord:
    """Bill one engine's window and fold its events into that engine's
    state, alone: the billing step of its placement compiled afresh, then
    ``observe_rows``, ``update_rows`` and a clock tick on the engine's own
    objects."""
    index = window.index
    engine._validate_window(index, window.start_month)
    duration = window.duration_months
    events = window.events
    rows = engine._arrays.event_rows(events)
    compiled = engine.simulator.compile_placement(engine._arrays, engine.placement)
    step = compiled.step(events, storage_months=duration, rows=rows)
    touched, rates = reference_observed_rates(rows, events.reads, duration)
    observed = RateColumns(engine._arrays.names, rates, touched)
    engine.feature_store.observe_rows(
        index, engine._store_rows[observed.rows], observed.rates
    )
    engine.forecaster.update_rows(
        index, engine._forecast_rows[observed.rows], observed.rates
    )
    MigrationExecutor.tick(engine.months_in_tier, months=duration)
    engine._last_observed = observed
    engine._last_window = index
    engine._window_clock = window.end_month
    engine._pending_forecast = None
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


def settle_each_engine(scheduler) -> None:
    """Make ``scheduler`` settle every tenant's window alone through
    :func:`reference_settle_window`, in roster order: its block's settle
    pass is replaced, while the block still plans and prices."""
    fleet_block = scheduler._fleet_block

    def block():
        block = fleet_block()

        def settle(windows, rows, migrations, reoptimized, started=None):
            return [
                reference_settle_window(engine, window, migration, fired, started)
                for engine, window, migration, fired in zip(
                    block.engines, windows, migrations, reoptimized
                )
            ]

        block.settle = settle
        return block

    scheduler._fleet_block = block


def left_to_right_sum(values: Iterable[float]) -> float:
    """The float sum of ``values`` taken left to right from 0.0: the window
    sum rule, which is Python 3.11's built-in ``sum`` of floats (3.12 and
    later compensate)."""
    total = 0.0
    for value in values:
        total += value
    return total


def dict_drift_score(
    predicted_monthly: Mapping[str, float], observed: Mapping[str, float]
) -> float:
    """Divergence in [0, 1] between predicted and observed monthly accesses.

    ``max(shape, volume)`` where *shape* is the total-variation distance
    between the two distributions normalised over the union of partitions and
    *volume* is the relative difference in total reads.  0 means the epoch
    looked exactly as predicted; 1 means completely different partitions were
    read (or activity appeared from / vanished into silence).
    """
    predicted_total = float(sum(predicted_monthly.values()))
    observed_total = float(sum(observed.values()))
    if predicted_total <= 0.0 and observed_total <= 0.0:
        return 0.0
    if predicted_total <= 0.0 or observed_total <= 0.0:
        return 1.0
    # A deterministic union (predicted keys, then observed-only keys): set
    # order follows the string hash seed, and float sums follow the order.
    names = list(predicted_monthly)
    names.extend(name for name in observed if name not in predicted_monthly)
    shape = 0.5 * sum(
        abs(
            predicted_monthly.get(name, 0.0) / predicted_total
            - observed.get(name, 0.0) / observed_total
        )
        for name in names
    )
    volume = abs(observed_total - predicted_total) / max(
        observed_total, predicted_total
    )
    return max(shape, volume)


def dict_partition_drift_scores(
    predicted_monthly: Mapping[str, float], observed: Mapping[str, float]
) -> dict[str, float]:
    """Per-partition drift in [0, 1]: relative access-count divergence.

    ``|observed - predicted| / max(observed, predicted)`` per partition over
    the union of names (a partition missing from one side scores 1.0 unless
    both sides are zero).  This is exactly the relative-move metric the
    incremental :class:`~repro.core.optassign.DeltaSolver` thresholds on, so
    a policy's scores can feed the delta solver's changed-row set directly.
    """
    scores: dict[str, float] = {}
    for name in set(predicted_monthly) | set(observed):
        predicted = float(predicted_monthly.get(name, 0.0))
        seen = float(observed.get(name, 0.0))
        top = max(abs(predicted), abs(seen))
        scores[name] = abs(seen - predicted) / top if top > 0.0 else 0.0
    return scores


class DictForecaster:
    """The dict-keyed ``WindowedAccessForecaster``: one ``(value, epoch)``
    tuple per partition name.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1]; higher reacts faster to drift.
    blend:
        Weight of the EWMA versus the plain window mean when a dense window
        is supplied to :meth:`forecast_monthly` (1.0 = EWMA only).
    """

    def __init__(self, alpha: float = 0.4, blend: float = 0.6):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        self.alpha = alpha
        self.blend = blend
        # name -> (ewma value, epoch at which that value was current)
        self._state: dict[str, tuple[float, int]] = {}
        self._last_epoch: int | None = None

    # -- warm-start updates ---------------------------------------------------
    def update(self, epoch: int, observed: Mapping[str, float]) -> None:
        """Fold one epoch of observed read counts into the running rates.

        Only partitions that actually appear in ``observed`` are touched;
        everything else decays implicitly (months without an update count as
        zero-read months thanks to the lazy geometric decay).  Epochs must be
        strictly increasing — one ``update`` call per epoch; folding the same
        epoch twice would double-apply the EWMA, so aggregate an epoch's
        observations before calling.
        """
        if self._last_epoch is not None and epoch <= self._last_epoch:
            raise ValueError(
                f"epochs must be strictly increasing (got {epoch} after "
                f"{self._last_epoch}); aggregate an epoch's reads into one update"
            )
        self._last_epoch = epoch
        for name, reads in observed.items():
            if reads < 0:
                raise ValueError(f"negative read count for {name!r}")
            previous = self._decayed_rate(name, through_epoch=epoch - 1)
            self._state[name] = (
                self.alpha * float(reads) + (1.0 - self.alpha) * previous,
                epoch,
            )

    def _decayed_rate(self, name: str, through_epoch: int) -> float:
        """The EWMA as of ``through_epoch``, decaying lazily over silent months."""
        state = self._state.get(name)
        if state is None:
            return 0.0
        value, at_epoch = state
        gap = through_epoch - at_epoch
        if gap <= 0:
            return value
        return value * (1.0 - self.alpha) ** gap

    # -- forecasting -----------------------------------------------------------
    def rate(self, name: str, epoch: int | None = None) -> float:
        """Current estimated monthly read rate of one partition."""
        through = self._last_epoch if epoch is None else epoch
        if through is None:
            return 0.0
        return self._decayed_rate(name, through_epoch=through)

    def forecast_monthly(
        self,
        names: Iterable[str],
        window_series: Mapping[str, Sequence[float]] | None = None,
        epoch: int | None = None,
    ) -> dict[str, float]:
        """Projected reads **per month** for the upcoming horizon.

        When ``window_series`` supplies a dense recent-months series per
        partition (the engine's feature-store window), the forecast blends
        the EWMA with the window mean (the series summed by
        :func:`left_to_right_sum`); otherwise it is the EWMA alone.
        Multiply by the horizon length to get ``predicted_accesses`` for
        OPTASSIGN.
        """
        forecasts: dict[str, float] = {}
        for name in names:
            rate = self.rate(name, epoch)
            series = window_series.get(name, ()) if window_series is not None else ()
            # An empty window carries no signal — keep the EWMA/prior.  Only a
            # missing series is empty: a numpy row has no truth value.
            if len(series):
                mean = left_to_right_sum(series) / len(series)
                rate = self.blend * rate + (1.0 - self.blend) * mean
            forecasts[name] = max(rate, 0.0)
        return forecasts

    def __contains__(self, name: str) -> bool:
        """True if ``name`` already has warm EWMA state."""
        return name in self._state

    def seed(self, priors: Mapping[str, float], epoch: int = 0) -> None:
        """Warm-start the running rates from prior knowledge (e.g. batch history)."""
        for name, rate in priors.items():
            if rate < 0:
                raise ValueError(f"negative prior rate for {name!r}")
            self._state[name] = (float(rate), epoch)


class _PartitionState:
    """Sparse per-partition window state (internal to the scalar oracle)."""

    __slots__ = ("entries", "window_total", "lifetime_total", "last_access_epoch")

    def __init__(self) -> None:
        self.entries: deque[list[float]] = deque()  # [epoch, reads] pairs
        self.window_total = 0.0
        self.lifetime_total = 0.0
        self.last_access_epoch = -1


class ScalarFeatureStore:
    """The original per-partition sparse implementation (reference oracle).

    Maintains, per partition, a sparse deque of (epoch, reads) entries
    restricted to the sliding window plus running aggregates, with lazy
    eviction: each entry is evicted at most once over its lifetime and cold
    partitions are never touched.  Kept so the vectorized
    :class:`FeatureStore` has an independent implementation to be checked
    against; the two expose the same API and must return identical answers.
    """

    def __init__(self, window_months: int = 6):
        if window_months <= 0:
            raise ValueError("window_months must be positive")
        self.window_months = window_months
        self._states: dict[str, _PartitionState] = {}
        self._epoch = -1

    @property
    def current_epoch(self) -> int:
        """The most recent epoch observed (-1 before any observation)."""
        return self._epoch

    @property
    def window_fill(self) -> float:
        """Fraction of the sliding window backed by elapsed epochs (0..1)."""
        return min(self.window_months, self._epoch + 1) / self.window_months

    # -- ingestion -------------------------------------------------------------
    def observe(self, batch: EpochBatch) -> None:
        """Fold one epoch's *complete* batch in.  One batch per epoch.

        Mirrors :meth:`FeatureStore.observe`: strictly increasing epochs;
        use :meth:`accumulate` for sub-epoch partial batches.
        """
        self._check_complete_batch(batch.epoch)
        self._epoch = batch.epoch
        for event in batch.events:
            self._add(event.partition, batch.epoch, event.reads)

    def observe_counts(self, epoch: int, reads_by_partition: Mapping[str, float]) -> None:
        """Like :meth:`observe` but from pre-aggregated per-partition counts."""
        self._check_complete_batch(epoch)
        self._epoch = epoch
        for name, reads in reads_by_partition.items():
            self._add(name, epoch, reads)

    def accumulate(self, epoch: int, reads_by_partition: Mapping[str, float]) -> None:
        """Fold a *partial* (sub-epoch) batch; same-epoch calls add up.

        Mirrors :meth:`FeatureStore.accumulate` (the explicit streaming
        path); epochs must still be non-decreasing.
        """
        if epoch < self._epoch:
            raise ValueError(
                f"epochs must be non-decreasing (got {epoch} after {self._epoch})"
            )
        self._epoch = epoch
        for name, reads in reads_by_partition.items():
            self._add(name, epoch, reads)

    def _check_complete_batch(self, epoch: int) -> None:
        """The observe/observe_counts contract: strictly increasing epochs."""
        if epoch < self._epoch:
            raise ValueError(
                f"epochs must be non-decreasing (got {epoch} after {self._epoch})"
            )
        if epoch == self._epoch and self._epoch >= 0:
            raise ValueError(
                f"epoch {epoch} was already observed; observe()/observe_counts() "
                "take one complete batch per epoch — use accumulate() to fold "
                "sub-epoch partial batches"
            )

    def _add(self, name: str, epoch: int, reads: float) -> None:
        if reads < 0:
            raise ValueError(f"negative read count for {name!r}")
        if reads == 0:
            return
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = _PartitionState()
        self._evict(state)
        if state.entries and state.entries[-1][0] == epoch:
            state.entries[-1][1] += reads
        else:
            state.entries.append([epoch, reads])
        state.window_total += reads
        state.lifetime_total += reads
        state.last_access_epoch = max(state.last_access_epoch, epoch)

    def _evict(self, state: _PartitionState) -> None:
        """Drop entries that have slid out of the window (lazy, amortized O(1))."""
        boundary = self._epoch - self.window_months
        entries = state.entries
        while entries and entries[0][0] <= boundary:
            _, reads = entries.popleft()
            state.window_total -= reads
        if not entries:
            state.window_total = 0.0  # clamp float residue when empty

    # -- queries ----------------------------------------------------------------
    def window_reads(self, name: str) -> float:
        """Total reads of ``name`` within the current window."""
        state = self._states.get(name)
        if state is None:
            return 0.0
        self._evict(state)
        return state.window_total

    def lifetime_reads(self, name: str) -> float:
        state = self._states.get(name)
        return state.lifetime_total if state is not None else 0.0

    def epochs_since_access(self, name: str) -> float:
        """Epochs since the last read (``inf`` if never accessed)."""
        state = self._states.get(name)
        if state is None or state.last_access_epoch < 0:
            return float("inf")
        return float(self._epoch - state.last_access_epoch)

    def window_series(self, name: str) -> tuple[float, ...]:
        """Dense per-epoch reads over the window, oldest epoch first."""
        length = min(self.window_months, self._epoch + 1)
        if length <= 0:
            return ()
        start = self._epoch - length + 1
        series = [0.0] * length
        state = self._states.get(name)
        if state is not None:
            self._evict(state)
            for epoch, reads in state.entries:
                if epoch >= start:
                    series[epoch - start] = reads
        return tuple(series)

    def window_series_map(
        self, names: Iterable[str]
    ) -> dict[str, tuple[float, ...]]:
        """:meth:`window_series` for many partitions (loop; oracle parity API)."""
        return {name: self.window_series(name) for name in names}

    def snapshot(self, names: Iterable[str]) -> dict[str, PartitionFeatures]:
        """Windowed features for ``names`` (used at re-optimization points)."""
        features: dict[str, PartitionFeatures] = {}
        for name in names:
            features[name] = PartitionFeatures(
                name=name,
                window_reads=self.window_reads(name),
                window_series=self.window_series(name),
                lifetime_reads=self.lifetime_reads(name),
                epochs_since_access=self.epochs_since_access(name),
            )
        return features

    def tracked_partitions(self) -> list[str]:
        """Names of every partition that has ever been accessed."""
        return sorted(self._states)
