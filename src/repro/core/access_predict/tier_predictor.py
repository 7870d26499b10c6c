"""The tier predictor (Random Forest) and the rule-based baselines of Table IV.

``TierPredictor`` learns the OPTASSIGN-derived ideal tier from historical
access features; the module also provides the caching-style rules the paper
compares against:

* **all hot** — the platform default (everything stays in the hottest tier);
* **hot if accessed in the last n months** — the classic lifecycle rule;
* **previous period's optimal tier** — reuse last month's OPTASSIGN output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...cloud import CostModel, DatasetCatalog
from ...ml import RandomForestClassifier, confusion_matrix, f1_score, precision_recall_f1
from .features import HistorySplit, TierFeatureBuilder, split_history
from .labeling import ideal_tier_labels

__all__ = [
    "TierPredictor",
    "TierPredictionReport",
    "rule_all_hot",
    "rule_hot_if_recent",
    "rule_previous_optimal",
]


@dataclass
class TierPredictionReport:
    """Held-out quality of the tier predictor (the paper's Table III)."""

    confusion: np.ndarray
    labels: list[int]
    f1_macro: float
    precision_per_class: dict[int, float]
    recall_per_class: dict[int, float]


class TierPredictor:
    """Random-Forest classifier over the tier-prediction features."""

    def __init__(
        self,
        feature_builder: TierFeatureBuilder | None = None,
        n_estimators: int = 60,
        max_depth: int = 10,
        random_state: int = 5,
    ):
        self.feature_builder = feature_builder or TierFeatureBuilder()
        self._model = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=max_depth, random_state=random_state
        )
        self._fitted = False

    def fit(self, features: np.ndarray, labels: Sequence[int]) -> "TierPredictor":
        self._model.fit(np.asarray(features, dtype=float), np.asarray(labels))
        self._fitted = True
        return self

    def fit_catalog(
        self,
        catalog: DatasetCatalog,
        horizon_months: int,
        cost_model: CostModel,
    ) -> "TierPredictor":
        """Label ``catalog`` with OPTASSIGN's ideal tiers and fit on its features."""
        features, splits = self.feature_builder.build_matrix(catalog, horizon_months)
        labels = ideal_tier_labels(catalog, splits, cost_model)
        return self.fit(features, labels)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("predictor must be fitted before calling predict")
        return self._model.predict(np.asarray(features, dtype=float))

    def predict_catalog(
        self, catalog: DatasetCatalog, horizon_months: int
    ) -> dict[str, int]:
        """Predicted tier per dataset name."""
        features, _ = self.feature_builder.build_matrix(catalog, horizon_months)
        predictions = self.predict(features)
        return {
            dataset.name: int(tier) for dataset, tier in zip(catalog, predictions)
        }

    def evaluate(
        self, features: np.ndarray, true_labels: Sequence[int]
    ) -> TierPredictionReport:
        """Confusion matrix, per-class precision/recall and macro F1 on held-out data."""
        predictions = self.predict(features)
        true_labels = np.asarray(true_labels)
        labels = sorted(set(true_labels.tolist()) | set(predictions.tolist()))
        matrix = confusion_matrix(true_labels, predictions, labels=labels)
        precision: dict[int, float] = {}
        recall: dict[int, float] = {}
        for label in labels:
            p, r, _ = precision_recall_f1(true_labels, predictions, positive_label=label)
            precision[int(label)] = p
            recall[int(label)] = r
        return TierPredictionReport(
            confusion=matrix,
            labels=[int(label) for label in labels],
            f1_macro=f1_score(true_labels, predictions, average="macro"),
            precision_per_class=precision,
            recall_per_class=recall,
        )


# ---------------------------------------------------------------------------
# Rule-based baselines (Table IV)
# ---------------------------------------------------------------------------

def rule_all_hot(catalog: DatasetCatalog, hot_tier: int = 0) -> dict[str, int]:
    """The platform default: every dataset stays in the hottest available tier."""
    return {dataset.name: hot_tier for dataset in catalog}


def rule_hot_if_recent(
    catalog: DatasetCatalog,
    horizon_months: int,
    recency_months: int,
    hot_tier: int = 0,
    cold_tier: int | None = None,
) -> dict[str, int]:
    """Keep a dataset hot iff it was read in the last ``recency_months`` of *history*.

    ``cold_tier`` defaults to the tier right after ``hot_tier``.  The recency
    window looks at the months before the prediction horizon (the rule cannot
    see the future), exactly as a lifecycle policy would.
    """
    if cold_tier is None:
        cold_tier = hot_tier + 1
    placement = {}
    for dataset in catalog:
        split = split_history(dataset, horizon_months)
        recent_reads = sum(split.history_reads[-recency_months:]) if recency_months else 0.0
        placement[dataset.name] = hot_tier if recent_reads > 0 else cold_tier
    return placement


def rule_previous_optimal(
    catalog: DatasetCatalog,
    horizon_months: int,
    previous_window_months: int,
    cost_model: CostModel,
) -> dict[str, int]:
    """Reuse the tier that *was* optimal for the most recent history window.

    This is the "use optimal tier of previous month" baseline: compute the
    OPTASSIGN-ideal tier using the last ``previous_window_months`` of history
    as if they were the projection, then apply it to the upcoming horizon.
    """
    from ...cloud import DataPartition
    from ..optassign import OptAssignProblem, solve_greedy

    partitions = []
    for dataset in catalog:
        split = split_history(dataset, horizon_months)
        recent_reads = (
            sum(split.history_reads[-previous_window_months:])
            if previous_window_months
            else 0.0
        )
        partitions.append(
            DataPartition(
                name=dataset.name,
                size_gb=dataset.size_gb,
                predicted_accesses=float(recent_reads),
                latency_threshold_s=dataset.latency_threshold_s,
                current_tier=dataset.current_tier,
            )
        )
    problem = OptAssignProblem(partitions, cost_model)
    assignment = solve_greedy(problem)
    return dict(zip(problem.partition_names, assignment.tier.tolist()))
