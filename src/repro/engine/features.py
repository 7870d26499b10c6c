"""Incremental sliding-window access features — the engine's hot path.

A production tiering service observes millions of access events; recomputing
every partition's windowed features from the full trace each epoch would make
the control loop O(trace length).  :class:`FeatureStore` keeps **preallocated
numpy ring buffers** instead: one ``(partitions, window)`` matrix whose column
``e % window`` holds epoch ``e``'s reads, plus lifetime/last-access vectors,
one row per registered partition.

The engine registers its partitions once and then works on rows only, and
reads the window back with :meth:`FeatureStore.window_matrix` (one gather).
On the windowed timeline the engine's store joins a :class:`StoreBlock`,
which concatenates the columns of several stores and folds a window's
per-row reads into all of them at once (zeroing the ring column that slides
out, plus a fancy add over the rows read).  :meth:`FeatureStore.observe_rows`
and the name-keyed methods (:meth:`~FeatureStore.observe`,
:meth:`~FeatureStore.observe_counts`, :meth:`~FeatureStore.accumulate` and
the per-name queries) fold one store the same way: the slide and the add
are the module functions ``_slide`` and ``_add_reads``, shared by both.

The per-partition sparse-deque ``ScalarFeatureStore`` in
``tests/oracles/engine_state.py`` is the reference oracle: the equivalence
suites drive both on the same streams and require identical answers, and
both must equal a brute-force recompute over the full history.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.access_predict.forecast import reject_negative
from .events import EpochBatch

__all__ = ["PartitionFeatures", "FeatureStore"]


@dataclass(frozen=True)
class PartitionFeatures:
    """Windowed access features of one partition at one point in time.

    ``window_series`` is dense (one entry per epoch in the window, oldest
    first), so it can feed :class:`repro.core.access_predict`-style lag
    features or a forecaster's window mean directly.
    """

    name: str
    window_reads: float
    window_series: tuple[float, ...]
    lifetime_reads: float
    epochs_since_access: float

    @property
    def window_mean(self) -> float:
        if not self.window_series:
            return 0.0
        return self.window_reads / len(self.window_series)


class FeatureStore:
    """Sliding-window access features on preallocated numpy ring buffers.

    Parameters
    ----------
    window_months:
        Width of the sliding window; the window at epoch ``e`` covers epochs
        ``(e - window_months, e]``, i.e. the current epoch and the
        ``window_months - 1`` before it.
    initial_capacity:
        Rows preallocated for distinct partitions; the buffers double when
        exceeded, so ingest stays amortized O(new events).

    Every call validates its whole input before it changes any state: a
    rejected call leaves the buffers and the epoch as they were, so the
    corrected call for the same epoch is accepted.
    """

    def __init__(self, window_months: int = 6, initial_capacity: int = 1024):
        if window_months <= 0:
            raise ValueError("window_months must be positive")
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        self.window_months = window_months
        self._epoch = -1
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._capacity = initial_capacity
        self._window = np.zeros((initial_capacity, window_months), dtype=np.float64)
        self._lifetime = np.zeros(initial_capacity, dtype=np.float64)
        self._last_access = np.full(initial_capacity, -1, dtype=np.int64)

    @property
    def current_epoch(self) -> int:
        """The most recent epoch observed (-1 before any observation)."""
        return self._epoch

    @property
    def window_fill(self) -> float:
        """Fraction of the sliding window backed by elapsed epochs (0..1).

        Below 1.0 the window is still warming up — forecasts lean on priors;
        the engine exports this as the ``engine.window_fill`` gauge.
        """
        return min(self.window_months, self._epoch + 1) / self.window_months

    # -- rows --------------------------------------------------------------------
    def register(self, names: Iterable[str]) -> np.ndarray:
        """The store rows of ``names``, adding rows for the new ones.

        A registered row reads as cold until its first positive read; it
        does not show up in :meth:`tracked_partitions` before that.
        """
        index = self._index
        rows = []
        for name in names:
            row = index.get(name)
            if row is None:
                row = index[name] = len(self._names)
                self._names.append(name)
            rows.append(row)
        while len(self._names) > self._capacity:
            self._grow()
        return np.asarray(rows, dtype=np.intp)

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        window = np.zeros((new_capacity, self.window_months), dtype=np.float64)
        window[: self._capacity] = self._window
        lifetime = np.zeros(new_capacity, dtype=np.float64)
        lifetime[: self._capacity] = self._lifetime
        last_access = np.full(new_capacity, -1, dtype=np.int64)
        last_access[: self._capacity] = self._last_access
        self._window, self._lifetime, self._last_access = window, lifetime, last_access
        self._capacity = new_capacity

    # -- ingestion -------------------------------------------------------------
    def observe_rows(self, epoch: int, rows: np.ndarray, counts: np.ndarray) -> None:
        """Fold one epoch's *complete* per-row reads in: ``counts[k]`` reads
        of row ``rows[k]``.  One call per epoch; ``rows`` are distinct rows
        from :meth:`register`.

        Epochs must be strictly increasing: re-observing the current epoch
        would silently double-fold its reads (the forecaster already rejects
        the same mistake), so it raises.
        """
        rows = np.asarray(rows, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.float64)
        self._check_complete_batch(epoch)
        if rows.shape != counts.shape:
            raise ValueError("rows and counts must have the same length")
        # Viewed unsigned, a negative row is out of range too.
        if rows.size and rows.view(np.uintp).max() >= len(self._names):
            raise ValueError("row outside the registered partitions")
        reject_negative(counts, "read count", lambda k: self._names[rows[k]])
        self._fold(epoch, rows, counts, distinct=True)

    def observe(self, batch: EpochBatch) -> None:
        """Fold one epoch's *complete* batch in.  One batch per epoch.

        Streaming callers that fold an epoch in several partial batches must
        use :meth:`accumulate`, which opts into same-epoch addition
        explicitly.  A batch may read one partition many times; its reads
        add up in event order.
        """
        names = [event.partition for event in batch.events]
        counts = np.fromiter(
            (event.reads for event in batch.events), dtype=np.float64, count=len(names)
        )
        self._check_complete_batch(batch.epoch)
        reject_negative(counts, "read count", names.__getitem__)
        self._fold(batch.epoch, self.register(names), counts, distinct=False)

    def observe_counts(self, epoch: int, reads_by_partition: Mapping[str, float]) -> None:
        """Like :meth:`observe` but from pre-aggregated per-partition counts."""
        names, counts = self._named_counts(reads_by_partition)
        self._check_complete_batch(epoch)
        reject_negative(counts, "read count", names.__getitem__)
        self._fold(epoch, self.register(names), counts, distinct=True)

    def accumulate(self, epoch: int, reads_by_partition: Mapping[str, float]) -> None:
        """Fold a *partial* (sub-epoch) batch; same-epoch calls add up.

        The explicit streaming path: a caller slicing one epoch into many
        micro-batches calls this repeatedly with the same ``epoch`` and the
        reads accumulate — the semantics :meth:`observe` deliberately rejects
        so one-batch-per-epoch callers cannot double-fold by accident.
        Epochs must still be non-decreasing.
        """
        names, counts = self._named_counts(reads_by_partition)
        self._check_epoch_order(epoch)
        reject_negative(counts, "read count", names.__getitem__)
        self._fold(epoch, self.register(names), counts, distinct=True)

    @staticmethod
    def _named_counts(
        reads_by_partition: Mapping[str, float],
    ) -> tuple[list[str], np.ndarray]:
        names = list(reads_by_partition)
        counts = np.fromiter(
            reads_by_partition.values(), dtype=np.float64, count=len(names)
        )
        return names, counts

    def _check_epoch_order(self, epoch: int) -> None:
        if epoch < self._epoch:
            raise ValueError(
                f"epochs must be non-decreasing (got {epoch} after {self._epoch})"
            )

    def _check_complete_batch(self, epoch: int) -> None:
        """The observe contract: strictly increasing epochs."""
        self._check_epoch_order(epoch)
        if epoch == self._epoch and self._epoch >= 0:
            raise ValueError(
                f"epoch {epoch} was already observed; observe()/observe_counts() "
                "take one complete batch per epoch — use accumulate() to fold "
                "sub-epoch partial batches"
            )

    def _fold(
        self, epoch: int, rows: np.ndarray, counts: np.ndarray, distinct: bool
    ) -> None:
        """Slide the ring to ``epoch`` and add ``counts`` into ``rows``.

        Validated input only.  ``distinct`` rows take one fancy add; a batch
        that may repeat a row adds event by event (``np.add.at``), in order.
        """
        self._advance(epoch)
        if rows.size:
            _add_reads(
                self._window,
                self._lifetime,
                self._last_access,
                epoch,
                rows,
                counts,
                distinct,
            )

    def _advance(self, epoch: int) -> None:
        """Slide the ring forward: zero the columns whose epochs expired."""
        if self._epoch >= 0 and epoch != self._epoch:
            _slide(self._window[: len(self._names)], self._epoch, epoch)
        self._epoch = epoch

    # -- queries ----------------------------------------------------------------
    def window_reads(self, name: str) -> float:
        """Total reads of ``name`` within the current window."""
        row = self._index.get(name)
        if row is None:
            return 0.0
        return float(self._window[row].sum())

    def lifetime_reads(self, name: str) -> float:
        row = self._index.get(name)
        return float(self._lifetime[row]) if row is not None else 0.0

    def epochs_since_access(self, name: str) -> float:
        """Epochs since the last read (``inf`` if never accessed)."""
        row = self._index.get(name)
        if row is None or self._last_access[row] < 0:
            return float("inf")
        return float(self._epoch - self._last_access[row])

    def _window_columns(self) -> list[int]:
        """Ring columns of the current window, oldest epoch first.

        Before ``window_months`` epochs have elapsed the window is shorter
        (only the epochs that exist so far), so window means are not diluted
        by non-existent history.
        """
        length = min(self.window_months, self._epoch + 1)
        window = self.window_months
        return [e % window for e in range(self._epoch - length + 1, self._epoch + 1)]

    def window_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Dense per-epoch reads over the window for ``rows``: a
        ``(len(rows), months)`` matrix, oldest epoch first (zero columns
        before the first observation)."""
        return self._window.take(rows, axis=0).take(self._window_columns(), axis=1)

    def window_series(self, name: str) -> tuple[float, ...]:
        """Dense per-epoch reads over the window, oldest epoch first."""
        return self.window_series_map([name])[name]

    def window_series_map(
        self, names: Iterable[str]
    ) -> dict[str, tuple[float, ...]]:
        """:meth:`window_series` for many partitions in one vectorized gather."""
        names = list(names)
        rows = np.fromiter(
            (self._index.get(name, -1) for name in names), dtype=np.intp, count=len(names)
        )
        matrix = self.window_matrix(np.maximum(rows, 0))
        matrix[rows < 0] = 0.0
        return dict(zip(names, map(tuple, matrix.tolist())))

    def snapshot(self, names: Iterable[str]) -> dict[str, PartitionFeatures]:
        """Windowed features for ``names`` (used at re-optimization points)."""
        names = list(names)
        series_map = self.window_series_map(names)
        features: dict[str, PartitionFeatures] = {}
        for name in names:
            series = series_map[name]
            features[name] = PartitionFeatures(
                name=name,
                window_reads=float(sum(series)),
                window_series=series,
                lifetime_reads=self.lifetime_reads(name),
                epochs_since_access=self.epochs_since_access(name),
            )
        return features

    def tracked_partitions(self) -> list[str]:
        """Names of every partition that has ever been read."""
        used = len(self._names)
        read = np.flatnonzero(self._last_access[:used] >= 0).tolist()
        return sorted(self._names[row] for row in read)


class StoreBlock:
    """The ring, lifetime and last-access columns of several stores, folded
    as one.

    The block concatenates the stores' row state, each store's rows after
    the previous store's (store ``k`` owns block rows ``starts[k]`` to
    ``starts[k + 1]``), and rebinds every store to its row range (a view):
    each store keeps its object and its own epoch while one :meth:`fold`
    updates all of them.  The stores must share one window width.
    """

    def __init__(self, stores: Sequence[FeatureStore]):
        self.stores = tuple(stores)
        self.starts = [0, *accumulate(len(store._lifetime) for store in stores)]
        self._window = np.concatenate([store._window for store in stores])
        self._lifetime = np.concatenate([store._lifetime for store in stores])
        self._last_access = np.concatenate([store._last_access for store in stores])
        for store, start, stop in zip(stores, self.starts, self.starts[1:]):
            store._window = self._window[start:stop]
            store._lifetime = self._lifetime[start:stop]
            store._last_access = self._last_access[start:stop]

    def intact(self) -> bool:
        """True while every store still holds its rows of these columns
        (a store that grew, or joined another block, does not)."""
        window = self._window
        for store in self.stores:
            if store._window.base is not window:
                return False
        return True

    def fold(self, epoch: int, rows: np.ndarray, counts: np.ndarray) -> None:
        """Fold one epoch's reads into every store: ``counts[k]`` reads of
        the distinct block row ``rows[k]``.  Validated input only.

        Zeroing the expiring ring column is exact across the whole block,
        because a store that has never observed holds zeros.  A store
        whose last epoch lags further behind (folded outside the block)
        first slides on its own.
        """
        for store in self.stores:
            if store._epoch not in (-1, epoch - 1):
                store._advance(epoch)
            store._epoch = epoch
        _slide(self._window, epoch - 1, epoch)
        _add_reads(self._window, self._lifetime, self._last_access, epoch, rows, counts)


def _slide(window: np.ndarray, last_epoch: int, epoch: int) -> None:
    """Zero the ring columns of the epochs after ``last_epoch`` through
    ``epoch`` (every column once the gap spans the ring)."""
    width = window.shape[1]
    if epoch - last_epoch >= width:
        window[:] = 0.0
    else:
        for expired in range(last_epoch + 1, epoch + 1):
            window[:, expired % width] = 0.0


def _add_reads(
    window: np.ndarray,
    lifetime: np.ndarray,
    last_access: np.ndarray,
    epoch: int,
    rows: np.ndarray,
    counts: np.ndarray,
    distinct: bool = True,
) -> None:
    """Add ``epoch``'s ``counts`` of ``rows`` into the ring column of the
    epoch and the lifetime totals, and mark the rows read at ``epoch``; rows
    without a positive read are left alone.

    ``distinct`` rows take one fancy add; rows that may repeat add event by
    event (``np.add.at``), in order.
    """
    read = counts > 0
    if not read.all():
        rows, counts = rows[read], counts[read]
    column = window[:, epoch % window.shape[1]]
    if distinct:
        column[rows] += counts
        lifetime[rows] += counts
    else:
        np.add.at(column, rows, counts)
        np.add.at(lifetime, rows, counts)
    last_access[rows] = epoch
