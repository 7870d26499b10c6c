"""Re-optimization policies: when should the engine re-run SCOPe?

Every policy answers one question per epoch — *do we pay the optimizer (and
the migrations it may trigger) now?* — using only causally available
information: the epoch number and the previous epoch's observed accesses.

* :class:`StaticOnce` — the paper's batch baseline: optimize at the first
  epoch, never revisit.  Placements go stale as access patterns drift.
* :class:`PeriodicReoptimize` — re-optimize every ``period_months`` epochs,
  the classic cron-style production setup.  Reacts within one period but pays
  for re-optimizations whether or not anything changed.
* :class:`DriftTriggered` — re-optimize only when the observed access
  distribution diverges from what the last optimization predicted.  The
  divergence score combines total-variation distance over the *shape* of the
  per-partition access distribution with the relative error in total
  *volume*, so both "different data got hot" and "everything went quiet"
  fire the trigger.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import ItemsView, Mapping, ValuesView
from contextlib import nullcontext
from typing import Sequence

import numpy as np

__all__ = [
    "TieringPolicy",
    "StaticOnce",
    "PeriodicReoptimize",
    "DriftTriggered",
    "RateColumns",
    "drift_score",
    "partition_drift_scores",
]


class RateColumns(Mapping):
    """Per-partition rates as row-aligned columns: a read-only
    ``Mapping[str, float]``.

    ``rates[k]`` (float64) belongs to partition ``names[rows[k]]``; ``rows``
    (intp, ``None`` = every row of ``names`` in order) also fixes the
    iteration order.  ``names`` is the row space — an engine's partition
    names, shared without a copy.  An engine's forecast covers every row;
    a window's observed rates cover the rows read, in the order they were
    first read, which is the order :func:`drift_score` sums them in.

    The form an engine's observed and forecast rates travel in to its policy
    and its problem build, as :class:`~repro.cloud.PlacementColumns` is for
    placements.  :meth:`from_mapping` is the one adapter for other mappings.
    """

    __slots__ = ("names", "rates", "rows", "_positions")

    def __init__(
        self,
        names: tuple[str, ...],
        rates: np.ndarray,
        rows: np.ndarray | None = None,
    ):
        self.names = names
        self.rates = rates
        self.rows = rows
        self._positions: dict[str, int] | None = None

    @classmethod
    def from_mapping(
        cls, names: Sequence[str], rates: Mapping[str, float]
    ) -> "RateColumns":
        """``rates`` as columns over the row space ``names``, keeping the
        mapping's own order; every key must be one of ``names``."""
        names = tuple(names)
        index = dict(zip(names, range(len(names))))
        return cls(
            names,
            np.fromiter(rates.values(), dtype=np.float64, count=len(rates)),
            np.fromiter(map(index.__getitem__, rates), dtype=np.intp, count=len(rates)),
        )

    def dense(self) -> np.ndarray:
        """The rates over every row of ``names`` (0.0 where there is none)."""
        if self.rows is None:
            return self.rates
        dense = np.zeros(len(self.names), dtype=np.float64)
        dense[self.rows] = self.rates
        return dense

    def keys_where(self, mask: np.ndarray) -> list[str]:
        """The names of the entries ``mask`` selects, in order."""
        rows = np.flatnonzero(mask) if self.rows is None else self.rows[mask]
        names = self.names
        return [names[row] for row in rows.tolist()]

    # -- Mapping protocol --------------------------------------------------------
    def _position(self) -> dict[str, int]:
        if self._positions is None:
            self._positions = dict(zip(self, range(len(self))))
        return self._positions

    def __getitem__(self, name: str) -> float:
        return float(self.rates[self._position()[name]])

    def __contains__(self, name) -> bool:
        return name in self._position()

    def __iter__(self):
        if self.rows is None:
            return iter(self.names)
        return map(self.names.__getitem__, self.rows.tolist())

    def __len__(self) -> int:
        return len(self.names) if self.rows is None else len(self.rows)

    def items(self) -> ItemsView:
        return _RateItems(self)

    def values(self) -> ValuesView:
        return _RateValues(self)

    def __repr__(self) -> str:
        return f"RateColumns({dict(self.items())!r})"


class _RateItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.rates.tolist())


class _RateValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.rates.tolist())


def _one_space(
    predicted: Mapping[str, float], observed: Mapping[str, float]
) -> tuple[RateColumns, RateColumns]:
    """Both rate sets as columns over one row space.

    Columns over the same names pass through.  Anything else is adapted once
    over the union of the names — the predicted names first, then the
    observed-only ones (a deterministic order: set order would follow the
    string hash seed, and float sums follow the order).
    """
    if (
        isinstance(predicted, RateColumns)
        and isinstance(observed, RateColumns)
        and predicted.names == observed.names
    ):
        return predicted, observed
    union = dict.fromkeys(predicted)
    union.update(dict.fromkeys(observed))
    names = tuple(union)
    return (
        RateColumns.from_mapping(names, predicted),
        RateColumns.from_mapping(names, observed),
    )


def _aligned(
    predicted: RateColumns, observed: RateColumns
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """``(rows, predicted, observed)`` over the union of two rate sets on one
    row space: the predicted rows, then the observed-only rows (``rows`` is
    ``None`` when the predicted rates cover every row)."""
    if predicted.rows is None:
        return None, predicted.rates, observed.dense()
    seen = np.zeros(len(predicted.names), dtype=bool)
    seen[predicted.rows] = True
    observed_rows = (
        np.arange(len(observed.names)) if observed.rows is None else observed.rows
    )
    rows = np.concatenate([predicted.rows, observed_rows[~seen[observed_rows]]])
    return rows, predicted.dense()[rows], observed.dense()[rows]


def drift_score(
    predicted_monthly: Mapping[str, float], observed: Mapping[str, float]
) -> float:
    """Divergence in [0, 1] between predicted and observed monthly accesses.

    ``max(shape, volume)`` where *shape* is the total-variation distance
    between the two distributions normalised over the union of partitions and
    *volume* is the relative difference in total reads.  0 means the epoch
    looked exactly as predicted; 1 means completely different partitions were
    read (or activity appeared from / vanished into silence).

    Each sum is the built-in ``sum`` over the entries in order (from Python
    3.12 on it compensates), exactly as a per-name loop would add them.
    """
    predicted, seen = _one_space(predicted_monthly, observed)
    predicted_total = float(sum(predicted.rates.tolist()))
    observed_total = float(sum(seen.rates.tolist()))
    if predicted_total <= 0.0 and observed_total <= 0.0:
        return 0.0
    if predicted_total <= 0.0 or observed_total <= 0.0:
        return 1.0
    _, predicted_rates, seen_rates = _aligned(predicted, seen)
    # A share cannot overflow over a total of at least 1.  Below that,
    # cancelling rates can sum to a total so small that one does (and
    # inf - inf gives NaN), which a per-name loop over Python floats does
    # without a word; so does this.
    quiet = (
        np.errstate(over="ignore", invalid="ignore")
        if predicted_total < 1.0 or observed_total < 1.0
        else nullcontext()
    )
    with quiet:
        shares = np.abs(predicted_rates / predicted_total - seen_rates / observed_total)
    shape = 0.5 * sum(shares.tolist())
    volume = abs(observed_total - predicted_total) / max(
        observed_total, predicted_total
    )
    return max(shape, volume)


def partition_drift_scores(
    predicted_monthly: Mapping[str, float], observed: Mapping[str, float]
) -> RateColumns:
    """Per-partition drift in [0, 1]: relative access-count divergence.

    ``|observed - predicted| / max(observed, predicted)`` per partition over
    the union of names (a partition missing from one side scores 1.0 unless
    both sides are zero).  This is exactly the relative-move metric the
    incremental :class:`~repro.core.optassign.DeltaSolver` thresholds on, so
    a policy's scores can feed the delta solver's changed-row set directly.
    """
    predicted, seen = _one_space(predicted_monthly, observed)
    rows, predicted_rates, seen_rates = _aligned(predicted, seen)
    top = np.maximum(np.abs(predicted_rates), np.abs(seen_rates))
    scores = np.zeros(len(top), dtype=np.float64)
    np.divide(np.abs(seen_rates - predicted_rates), top, out=scores, where=top > 0.0)
    return RateColumns(predicted.names, scores, rows)


class TieringPolicy(ABC):
    """Decides, once per epoch, whether the engine re-runs the optimizer."""

    name: str = "policy"

    @abstractmethod
    def should_reoptimize(
        self, epoch: int, observed: Mapping[str, float] | None
    ) -> bool:
        """``observed`` is the previous epoch's per-partition read counts
        (``None`` at the very first epoch, when nothing has been seen yet)."""

    def notify_reoptimized(
        self, epoch: int, predicted_monthly: Mapping[str, float]
    ) -> None:
        """Called by the engine after a re-optimization with the monthly
        access rates the optimizer was given, so drift-aware policies can
        compare future observations against them."""

    def drifted_partitions(self, threshold: float) -> "set[str] | None":
        """Names whose accesses drifted past ``threshold`` since the last
        re-optimization, or ``None`` when the policy carries no per-partition
        signal.  An incremental engine (``reopt_mode="delta"``) feeds this
        into the :class:`~repro.core.optassign.DeltaSolver` changed-row set;
        ``None`` means the solver's own feature-drift detector decides alone.
        """
        return None


class StaticOnce(TieringPolicy):
    """Optimize once at the start, then never again (the batch baseline)."""

    name = "static_once"

    def __init__(self) -> None:
        self._done = False

    def should_reoptimize(
        self, epoch: int, observed: Mapping[str, float] | None
    ) -> bool:
        return not self._done

    def notify_reoptimized(
        self, epoch: int, predicted_monthly: Mapping[str, float]
    ) -> None:
        self._done = True


class PeriodicReoptimize(TieringPolicy):
    """Re-optimize every ``period_months`` epochs, unconditionally."""

    name = "periodic"

    def __init__(self, period_months: int):
        if period_months <= 0:
            raise ValueError("period_months must be positive")
        self.period_months = period_months
        self._last_reoptimized: int | None = None

    def should_reoptimize(
        self, epoch: int, observed: Mapping[str, float] | None
    ) -> bool:
        if self._last_reoptimized is None:
            return True
        return epoch - self._last_reoptimized >= self.period_months

    def notify_reoptimized(
        self, epoch: int, predicted_monthly: Mapping[str, float]
    ) -> None:
        self._last_reoptimized = epoch


class DriftTriggered(TieringPolicy):
    """Re-optimize only when observation diverges from prediction.

    Parameters
    ----------
    threshold:
        Drift score above which a re-optimization fires (see
        :func:`drift_score`).  0.3-0.5 is a reasonable range: periodic
        workloads with noisy jitter stay below it, pattern flips (a cold
        dataset turning hot) shoot well above.
    min_gap_months:
        Refractory period: never re-optimize twice within this many epochs,
        so a noisy month cannot thrash migrations back and forth.
    """

    name = "drift_triggered"

    def __init__(self, threshold: float = 0.4, min_gap_months: int = 1):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if min_gap_months < 1:
            raise ValueError("min_gap_months must be at least 1")
        self.threshold = threshold
        self.min_gap_months = min_gap_months
        self.last_score = 0.0
        # The forecast of the last re-optimization, stored as given (an
        # engine hands over read-only RateColumns).
        self._predicted: Mapping[str, float] | None = None
        self._last_reoptimized: int | None = None
        # The last scored (predicted, observed) pair; per-partition scores are
        # derived from it on first use (only delta re-solves read them).
        # notify_reoptimized rebinds _predicted, so the captured pair keeps
        # scoring against the forecast it was seen with.
        self._scored_pair: (
            tuple[Mapping[str, float], Mapping[str, float]] | None
        ) = None
        self._partition_scores: RateColumns | None = None

    @property
    def last_partition_scores(self) -> Mapping[str, float]:
        """Per-partition drift of the last scored window (see
        :func:`partition_drift_scores`); empty before the first score."""
        if self._partition_scores is None:
            if self._scored_pair is None:
                return {}
            self._partition_scores = partition_drift_scores(*self._scored_pair)
        return self._partition_scores

    def should_reoptimize(
        self, epoch: int, observed: Mapping[str, float] | None
    ) -> bool:
        if self._predicted is None:
            return True  # bootstrap: nothing has been optimized yet
        if observed is None:
            return False
        self.last_score = drift_score(self._predicted, observed)
        self._scored_pair = (self._predicted, observed)
        self._partition_scores = None
        if (
            self._last_reoptimized is not None
            and epoch - self._last_reoptimized < self.min_gap_months
        ):
            return False
        return self.last_score > self.threshold

    def drifted_partitions(self, threshold: float) -> "set[str] | None":
        """The partitions whose last-epoch reads moved past ``threshold``
        relative to the last optimization's forecast — the changed-row hint
        for an incremental re-solve.  ``None`` until the first scores exist
        (bootstrap epochs re-solve everything anyway)."""
        scores = self.last_partition_scores
        if not scores:
            return None
        return set(scores.keys_where(scores.rates > threshold))

    def notify_reoptimized(
        self, epoch: int, predicted_monthly: Mapping[str, float]
    ) -> None:
        """Keeps ``predicted_monthly`` as given, without a copy: pass a
        mapping that will not change afterwards."""
        self._predicted = predicted_monthly
        self._last_reoptimized = epoch
