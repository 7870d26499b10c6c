"""Warm-start access forecasting over sliding-window features.

The batch experiments predict a dataset's future accesses once, from its full
history (:mod:`repro.core.access_predict.features`).  The online tiering
engine (:mod:`repro.engine`) needs the same projection *every epoch* without
re-reading the trace, so :class:`WindowedAccessForecaster` keeps an
exponentially-weighted running rate per partition that is updated in
O(partitions observed this epoch) and blends it with the short dense window
the engine's feature store maintains.

The EWMA state is two columns behind a name index: each row's value and the
epoch at which that value was current.  The engine resolves its partitions
to rows once and then updates and forecasts whole columns
(:meth:`~WindowedAccessForecaster.update_rows`,
:meth:`~WindowedAccessForecaster.forecast_rows`); the name-keyed methods
resolve names and run the same arithmetic.  A row that goes silent is not
touched at all — the geometric decay of the skipped zero-months is applied
when the row is next read, so warm-starting across thousands of epochs costs
nothing for cold data.  The decay factors come from a table of Python float
powers, so every row decays exactly as ``value * (1 - alpha) ** gap`` does.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["WindowedAccessForecaster"]

#: Gaps below this many epochs read their decay factor from the table; the
#: rare longer silence computes its factor directly.
_POWER_TABLE_LIMIT = 4096


def reject_negative(
    values: np.ndarray, what: str, name_at: Callable[[int], str]
) -> None:
    """Raise on the first negative value, naming its partition.

    NaN is not negative and passes, but does not hide a negative beside it.
    """
    negative = np.flatnonzero(values < 0)
    if negative.size:
        raise ValueError(f"negative {what} for {name_at(int(negative[0]))!r}")


class WindowedAccessForecaster:
    """Per-partition monthly access-rate forecaster with incremental updates.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1]; higher reacts faster to drift.
    blend:
        Weight of the EWMA versus the plain window mean when a dense window
        is supplied to :meth:`forecast_monthly` (1.0 = EWMA only).

    Every update validates its whole input before it changes any state: a
    rejected call leaves every rate and the epoch as they were.
    """

    def __init__(self, alpha: float = 0.4, blend: float = 0.6):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        self.alpha = alpha
        self.blend = blend
        # Row state: the EWMA value and the epoch at which it was current.
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._value = np.zeros(0, dtype=np.float64)
        self._at = np.zeros(0, dtype=np.int64)
        self._last_epoch: int | None = None
        # _powers[g] == (1.0 - alpha) ** g, grown on demand.
        self._powers = np.ones(1, dtype=np.float64)

    # -- rows --------------------------------------------------------------------
    def rows(self, names: Iterable[str]) -> np.ndarray:
        """The state rows of ``names``; each must already have state
        (:meth:`seed` or :meth:`update`), else ``KeyError``."""
        return np.asarray([self._index[name] for name in names], dtype=np.intp)

    def _rows_creating(self, names: Sequence[str]) -> np.ndarray:
        """Rows of ``names``, appending zero-rate rows for the new ones."""
        index = self._index
        rows = []
        for name in names:
            row = index.get(name)
            if row is None:
                row = index[name] = len(self._names)
                self._names.append(name)
            rows.append(row)
        added = len(self._names) - len(self._value)
        if added:
            self._value = np.concatenate([self._value, np.zeros(added)])
            self._at = np.concatenate([self._at, np.zeros(added, dtype=np.int64)])
        return np.asarray(rows, dtype=np.intp)

    def _decay(self, gaps: np.ndarray) -> np.ndarray:
        """``(1.0 - alpha) ** gap`` per element (``gaps >= 0``), as Python's
        float power computes it; NumPy's vectorized ``pow`` may differ in the
        last bit."""
        if not gaps.size:
            return np.ones(0, dtype=np.float64)
        base = 1.0 - self.alpha
        table = self._powers
        top = int(gaps.max())
        if len(table) <= top < _POWER_TABLE_LIMIT:
            size = min(max(top + 1, 2 * len(table)), _POWER_TABLE_LIMIT)
            table = self._powers = np.array([base**g for g in range(size)])
        if top < len(table):
            return table[gaps]
        factors = table[np.minimum(gaps, len(table) - 1)]
        far = np.flatnonzero(gaps >= len(table))
        factors[far] = [base**g for g in gaps[far].tolist()]
        return factors

    def _rates(self, rows: np.ndarray, through: int | None) -> np.ndarray:
        """The EWMA of ``rows`` as of epoch ``through`` (default: the last
        update; zero before any), decayed over the silent epochs since each
        row was last current."""
        if through is None:
            through = self._last_epoch
            if through is None:
                return np.zeros(len(rows), dtype=np.float64)
        return self._value[rows] * self._decay(np.maximum(through - self._at[rows], 0))

    # -- warm-start updates ---------------------------------------------------
    def update_rows(self, epoch: int, rows: np.ndarray, observed: np.ndarray) -> None:
        """Fold one epoch of observed read counts into the rates of ``rows``
        (distinct rows from :meth:`rows`): ``observed[k]`` reads of
        ``rows[k]``.  Rows not listed are untouched and decay implicitly.

        Epochs must be strictly increasing — one update per epoch; folding
        the same epoch twice would double-apply the EWMA, so aggregate an
        epoch's observations before calling.
        """
        rows = np.asarray(rows, dtype=np.intp)
        observed = np.asarray(observed, dtype=np.float64)
        self._check_epoch(epoch)
        if rows.shape != observed.shape:
            raise ValueError("rows and observed must have the same length")
        # Viewed unsigned, a negative row is out of range too.
        if rows.size and rows.view(np.uintp).max() >= len(self._names):
            raise ValueError("row outside the forecaster's state")
        reject_negative(observed, "read count", lambda k: self._names[rows[k]])
        self._fold(epoch, rows, observed)

    def update(self, epoch: int, observed: Mapping[str, float]) -> None:
        """:meth:`update_rows` keyed by partition name; names without state
        start from a zero rate."""
        names = list(observed)
        counts = np.fromiter(observed.values(), dtype=np.float64, count=len(names))
        self._check_epoch(epoch)
        reject_negative(counts, "read count", names.__getitem__)
        self._fold(epoch, self._rows_creating(names), counts)

    def _check_epoch(self, epoch: int) -> None:
        if self._last_epoch is not None and epoch <= self._last_epoch:
            raise ValueError(
                f"epochs must be strictly increasing (got {epoch} after "
                f"{self._last_epoch}); aggregate an epoch's reads into one update"
            )

    def _fold(self, epoch: int, rows: np.ndarray, observed: np.ndarray) -> None:
        """The EWMA step for validated input."""
        previous = self._rates(rows, epoch - 1)
        self._value[rows] = self.alpha * observed + (1.0 - self.alpha) * previous
        self._at[rows] = epoch
        self._last_epoch = epoch

    # -- forecasting -----------------------------------------------------------
    def forecast_rows(
        self,
        rows: np.ndarray,
        window: np.ndarray | None = None,
        epoch: int | None = None,
    ) -> np.ndarray:
        """Projected reads **per month** for ``rows``, as a float64 column.

        ``window`` is the rows' dense recent-months matrix (oldest first, one
        row per entry of ``rows``; e.g.
        :meth:`repro.engine.FeatureStore.window_matrix`).  With at least one
        month in it the forecast blends the EWMA with each row's window mean;
        otherwise it is the EWMA alone.  Multiply by the horizon length to
        get ``predicted_accesses`` for OPTASSIGN.
        """
        rates = self._rates(rows, epoch)
        if window is not None and window.shape[1]:
            # The built-in ``sum`` per row, in order: from Python 3.12 on it
            # compensates, which no plain numpy sum reproduces.
            sums = np.fromiter(map(sum, window.tolist()), np.float64, len(window))
            rates = self._blend(rates, sums / window.shape[1])
        return np.maximum(rates, 0.0)

    def _blend(self, rates: np.ndarray, means: np.ndarray) -> np.ndarray:
        return self.blend * rates + (1.0 - self.blend) * means

    def rate(self, name: str, epoch: int | None = None) -> float:
        """Current estimated monthly read rate of one partition."""
        row = self._index.get(name)
        if row is None:
            return 0.0
        return float(self._rates(np.array([row]), epoch)[0])

    def forecast_monthly(
        self,
        names: Iterable[str],
        window_series: Mapping[str, Sequence[float]] | None = None,
        epoch: int | None = None,
    ) -> dict[str, float]:
        """:meth:`forecast_rows` keyed by partition name.

        ``window_series`` maps partitions to their dense recent-months series;
        a partition it lacks, or whose series is empty, gets the EWMA alone.
        Partitions without state forecast from a zero rate.
        """
        names = list(names)
        rows = np.fromiter(
            (self._index.get(name, -1) for name in names), np.intp, len(names)
        )
        known = rows >= 0
        rates = np.zeros(len(names), dtype=np.float64)
        rates[known] = self._rates(rows[known], epoch)
        if window_series is not None:
            series = [window_series.get(name) for name in names]
            windowed = np.array([bool(values) for values in series], dtype=bool)
            means = np.array(
                [sum(values) / len(values) if values else 0.0 for values in series],
                dtype=np.float64,
            )
            rates = np.where(windowed, self._blend(rates, means), rates)
        return dict(zip(names, np.maximum(rates, 0.0).tolist()))

    def __contains__(self, name: str) -> bool:
        """True if ``name`` already has warm EWMA state."""
        return name in self._index

    def seed(self, priors: Mapping[str, float], epoch: int = 0) -> None:
        """Warm-start the running rates from prior knowledge (e.g. batch history)."""
        names = list(priors)
        rates = np.fromiter(priors.values(), dtype=np.float64, count=len(names))
        reject_negative(rates, "prior rate", names.__getitem__)
        rows = self._rows_creating(names)
        self._value[rows] = rates
        self._at[rows] = epoch
