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
resolve names and run the same arithmetic.  A :class:`ForecastBlock`
concatenates the columns of several forecasters and folds one epoch into all
of them at once, through the same EWMA step.  A row that goes silent is not
touched at all — the geometric decay of the skipped zero-months is applied
when the row is next read, so warm-starting across thousands of epochs costs
nothing for cold data.  The decay factors come from a table of Python float
powers, so every row decays exactly as ``value * (1 - alpha) ** gap`` does.
"""

from __future__ import annotations

from itertools import accumulate
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
        self._decay = _PowerTable(alpha)

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

    def _rates(self, rows: np.ndarray, through: int | None) -> np.ndarray:
        """The EWMA of ``rows`` as of epoch ``through`` (default: the last
        update; zero before any), decayed over the silent epochs since each
        row was last current."""
        if through is None:
            through = self._last_epoch
            if through is None:
                return np.zeros(len(rows), dtype=np.float64)
        return _decayed(self._value, self._at, rows, through, self._decay)

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
        _ewma_step(self._value, self._at, rows, observed, epoch, self.alpha, self._decay)
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
        return window_rates(self._rates(rows, epoch), window, self.blend)

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
        Partitions without state forecast from a zero rate.  Each series is
        summed by :func:`window_sums`, the series padded with zeros at the
        end to the longest one's length, which leaves every sum exact.
        """
        names = list(names)
        rows = np.fromiter(
            (self._index.get(name, -1) for name in names), np.intp, len(names)
        )
        known = rows >= 0
        rates = np.zeros(len(names), dtype=np.float64)
        rates[known] = self._rates(rows[known], epoch)
        if window_series is not None:
            # Only a missing series is empty: a numpy row has no truth value.
            series = [window_series.get(name, ()) for name in names]
            lengths = np.fromiter(map(len, series), np.intp, len(series))
            window = np.zeros((len(series), lengths.max(initial=0)))
            for row, values in enumerate(series):
                window[row, : len(values)] = values
            means = window_sums(window) / np.maximum(lengths, 1)
            rates = np.where(lengths > 0, _blend(self.blend, rates, means), rates)
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


def window_rates(
    rates: np.ndarray, window: np.ndarray | None, blend: float
) -> np.ndarray:
    """The forecast rule: EWMA ``rates`` blended with each row's window mean
    (when ``window`` has a month in it), clamped at zero.

    ``window`` holds one row per rate (oldest month first); ``blend`` is the
    one weight of every row.  A row's mean is its :func:`window_sums` over the
    window width.  A forecaster's :meth:`~WindowedAccessForecaster.
    forecast_rows` and the engine's block forecast both end here.
    """
    if window is not None and window.shape[1]:
        rates = _blend(blend, rates, window_sums(window) / window.shape[1])
    return np.maximum(rates, 0.0)


def window_sums(window: np.ndarray) -> np.ndarray:
    """Each row of ``window`` summed left to right from 0.0, one vector add
    per column: Python 3.11's built-in ``sum`` of the row, bit for bit, on
    every Python version.

    The one window-sum rule of the forecast and the feature store.  Neither
    numpy's ``sum`` (it blocks rows of eight and more) nor the built-in of
    Python 3.12 and later (it compensates) keeps it.
    """
    sums = np.zeros(len(window), dtype=np.float64)
    for column in window.T:
        sums += column
    return sums


def _blend(blend: float, rates: np.ndarray, means: np.ndarray) -> np.ndarray:
    return blend * rates + (1.0 - blend) * means


class ForecastBlock:
    """The EWMA value and epoch columns of several forecasters, folded as one.

    The block concatenates the forecasters' row state, each forecaster's
    rows after the previous one's (forecaster ``k`` owns block rows
    ``starts[k]`` to ``starts[k + 1]``), and rebinds every forecaster to its
    row range (a view): each keeps its object and its own last epoch while
    one :meth:`fold` updates all of them.  The forecasters must be distinct
    objects sharing one ``alpha``; the block reads its decay factors from one
    table of powers for that alpha.
    """

    def __init__(self, forecasters: Sequence[WindowedAccessForecaster]):
        self.forecasters = tuple(forecasters)
        self.alpha = forecasters[0].alpha
        self._decay = _PowerTable(self.alpha)
        self.starts = [0, *accumulate(len(f._value) for f in forecasters)]
        self._value = np.concatenate([forecaster._value for forecaster in forecasters])
        self._at = np.concatenate([forecaster._at for forecaster in forecasters])
        for forecaster, start, stop in zip(forecasters, self.starts, self.starts[1:]):
            forecaster._value = self._value[start:stop]
            forecaster._at = self._at[start:stop]

    def intact(self) -> bool:
        """True while every forecaster still holds its rows of these columns
        (one that gained rows, or joined another block, does not)."""
        value = self._value
        for forecaster in self.forecasters:
            if forecaster._value.base is not value:
                return False
        return True

    def fold(self, epoch: int, rows: np.ndarray, observed: np.ndarray) -> None:
        """Fold one epoch of observed reads into every forecaster:
        ``observed[k]`` reads of the distinct block row ``rows[k]``.
        Validated input only."""
        _ewma_step(self._value, self._at, rows, observed, epoch, self.alpha, self._decay)
        for forecaster in self.forecasters:
            forecaster._last_epoch = epoch


class _PowerTable:
    """``(1.0 - alpha) ** gap`` per element of ``gaps >= 0``, as Python's
    float power computes it; NumPy's vectorized ``pow`` may differ in the
    last bit.  The table grows on demand."""

    def __init__(self, alpha: float):
        self._base = 1.0 - alpha
        # _powers[g] == (1.0 - alpha) ** g.
        self._powers = np.ones(1, dtype=np.float64)

    def __call__(self, gaps: np.ndarray) -> np.ndarray:
        if not gaps.size:
            return np.ones(0, dtype=np.float64)
        base = self._base
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


def _decayed(
    value: np.ndarray, at: np.ndarray, rows: np.ndarray, through: int, decay: _PowerTable
) -> np.ndarray:
    """The EWMA of ``rows`` as of epoch ``through``: each value decayed over
    the silent epochs since it was current."""
    return value[rows] * decay(np.maximum(through - at[rows], 0))


def _ewma_step(
    value: np.ndarray,
    at: np.ndarray,
    rows: np.ndarray,
    observed: np.ndarray,
    epoch: int,
    alpha: float,
    decay: _PowerTable,
) -> None:
    """Fold ``epoch``'s ``observed`` reads of ``rows`` into their EWMA."""
    previous = _decayed(value, at, rows, epoch - 1, decay)
    value[rows] = alpha * observed + (1.0 - alpha) * previous
    at[rows] = epoch
