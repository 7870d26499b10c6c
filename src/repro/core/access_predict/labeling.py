"""Ground-truth "ideal tier" labels derived from OPTASSIGN.

The paper trains its tier classifier on labels produced by running OPTASSIGN
with *known* future accesses: the optimal tier under perfect information is
the class the model learns to predict from history alone.  This module wraps
that labelling step, and also computes the billed cost of an arbitrary tier
placement over the horizon so that the % cost-benefit numbers of Tables II
and IV can be reproduced for both predicted and rule-based placements.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ...cloud import (
    CostBreakdown,
    CostModel,
    DataPartition,
    DatasetCatalog,
    NO_COMPRESSION_PROFILE,
)
from ..optassign import OptAssignProblem, solve_greedy
from .features import HistorySplit

__all__ = ["ideal_tier_labels", "placement_cost", "percent_benefit_vs_baseline"]


def _partition_for(dataset, future_accesses: float) -> DataPartition:
    return DataPartition(
        name=dataset.name,
        size_gb=dataset.size_gb,
        predicted_accesses=future_accesses,
        latency_threshold_s=dataset.latency_threshold_s,
        current_tier=dataset.current_tier,
    )


def ideal_tier_labels(
    catalog: DatasetCatalog,
    splits: Sequence[HistorySplit],
    cost_model: CostModel,
) -> list[int]:
    """The cost-optimal tier index per dataset given its *actual* future accesses.

    Uses the greedy OPTASSIGN solver with no compression (``K = 0``), which is
    optimal in the unbounded-capacity data-lake setting the enterprise
    experiments run in.
    """
    if len(splits) != len(catalog):
        raise ValueError("one history split per dataset is required")
    partitions = [
        _partition_for(dataset, split.future_read_total)
        for dataset, split in zip(catalog, splits)
    ]
    problem = OptAssignProblem(partitions, cost_model)
    assignment = solve_greedy(problem)
    return assignment.tier.tolist()  # rows follow the catalog order


def placement_cost(
    catalog: DatasetCatalog,
    splits: Sequence[HistorySplit],
    tier_of: Mapping[str, int] | Sequence[int],
    cost_model: CostModel,
) -> CostBreakdown:
    """Billed cost of holding every dataset in its assigned tier over the horizon.

    ``tier_of`` is either a mapping from dataset name to tier index or a
    sequence aligned with the catalog order.  The *actual* future accesses
    (from the splits) drive the read costs, so mispredictions are charged at
    their true price.
    """
    if len(splits) != len(catalog):
        raise ValueError("one history split per dataset is required")
    total = CostBreakdown()
    for position, (dataset, split) in enumerate(zip(catalog, splits)):
        if isinstance(tier_of, Mapping):
            tier_index = tier_of[dataset.name]
        else:
            tier_index = tier_of[position]
        partition = _partition_for(dataset, split.future_read_total)
        total += cost_model.placement_breakdown(
            partition, tier_index, NO_COMPRESSION_PROFILE
        )
    return total


def percent_benefit_vs_baseline(
    catalog: DatasetCatalog,
    splits: Sequence[HistorySplit],
    tier_of,
    cost_model: CostModel,
    baseline_tier: int = 0,
) -> float:
    """Percent cost saving of a placement versus "everything in ``baseline_tier``"."""
    baseline = placement_cost(
        catalog, splits, [baseline_tier] * len(catalog), cost_model
    )
    optimized = placement_cost(catalog, splits, tier_of, cost_model)
    if baseline.total == 0:
        return 0.0
    return 100.0 * (baseline.total - optimized.total) / baseline.total
