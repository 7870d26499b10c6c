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
from typing import Mapping

__all__ = [
    "TieringPolicy",
    "StaticOnce",
    "PeriodicReoptimize",
    "DriftTriggered",
    "drift_score",
    "partition_drift_scores",
]


def drift_score(
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


def partition_drift_scores(
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
        self._predicted: dict[str, float] | None = None
        self._last_reoptimized: int | None = None
        # The last scored (predicted, observed) pair; per-partition scores are
        # derived from it on first use (only delta re-solves read them).
        # notify_reoptimized rebinds _predicted rather than mutating it, so
        # the captured pair keeps scoring against the forecast it was seen
        # with.
        self._scored_pair: (
            tuple[Mapping[str, float], Mapping[str, float]] | None
        ) = None
        self._partition_scores: dict[str, float] | None = None

    @property
    def last_partition_scores(self) -> dict[str, float]:
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
        if not self.last_partition_scores:
            return None
        return {
            name
            for name, score in self.last_partition_scores.items()
            if score > threshold
        }

    def notify_reoptimized(
        self, epoch: int, predicted_monthly: Mapping[str, float]
    ) -> None:
        self._predicted = dict(predicted_monthly)
        self._last_reoptimized = epoch
