"""Bipartite-matching OPTASSIGN solver for the equal-size / no-compression case.

Theorem 2 of the paper: when every partition has the same span and no
compression is considered, capacity-bounded tier assignment reduces to a
minimum-weight bipartite matching between partitions and "tier copies" — tier
``l`` contributes ``Z_l = min(N, floor(S_l / S))`` copies, an edge exists only
when the tier satisfies the partition's latency SLA, and the edge weight is
the storage + expected read (+ write) cost of that placement.  The Hungarian
algorithm (``scipy.optimize.linear_sum_assignment``) then yields the optimal
assignment in polynomial time.
"""

from __future__ import annotations

import math

import numpy as np

from .problem import CandidateOption, OptAssignProblem
from .result import Assignment

__all__ = ["solve_matching", "MatchingNotApplicableError"]


class MatchingNotApplicableError(ValueError):
    """Raised when the instance is not an equal-size / no-compression special case."""


def _check_applicable(problem: OptAssignProblem, size_tolerance: float) -> float:
    sizes = [partition.size_gb for partition in problem.partitions]
    span = sizes[0]
    if any(abs(size - span) > size_tolerance * max(span, 1e-12) for size in sizes):
        raise MatchingNotApplicableError(
            "bipartite matching requires equal-sized partitions"
        )
    for partition in problem.partitions:
        schemes = problem.schemes_for(partition)
        if schemes != ["none"]:
            raise MatchingNotApplicableError(
                "bipartite matching requires the no-compression configuration "
                f"(partition {partition.name!r} has schemes {schemes})"
            )
    return span


def solve_matching(
    problem: OptAssignProblem, size_tolerance: float = 1e-9
) -> Assignment:
    """Optimal tier assignment by minimum-weight bipartite matching (Theorem 2).

    Raises
    ------
    MatchingNotApplicableError
        If partitions are not equal-sized or compression schemes are present.
    ValueError
        If the total tier capacity cannot hold all partitions, or a partition
        has no latency-feasible tier.
    """
    # Imported here: scipy.optimize adds ~40 MB of resident memory, which
    # only callers that solve a matching should pay.
    from scipy.optimize import linear_sum_assignment

    span = _check_applicable(problem, size_tolerance)
    n_partitions = len(problem.partitions)
    tiers = problem.cost_model.tiers

    # Build tier copies: Z_l = min(N, floor(S_l / span)).
    copies: list[int] = []  # tier index of each copy column
    for tier_index, tier in enumerate(tiers):
        if math.isinf(tier.capacity_gb):
            count = n_partitions
        else:
            count = min(n_partitions, int(tier.capacity_gb // span)) if span > 0 else n_partitions
        copies.extend([tier_index] * count)
    if len(copies) < n_partitions:
        raise ValueError(
            "total tier capacity cannot hold all equal-sized partitions "
            f"({len(copies)} slots for {n_partitions} partitions)"
        )

    # Cost matrix: partitions x tier copies; infeasible edges get +inf.
    infeasible_cost = np.inf
    cost = np.full((n_partitions, len(copies)), infeasible_cost)
    options_by_partition: dict[str, dict[int, CandidateOption]] = {}
    for row, partition in enumerate(problem.partitions):
        feasible = {
            option.tier_index: option for option in problem.options_for(partition)
        }
        if not feasible:
            raise ValueError(
                f"partition {partition.name!r} has no latency-feasible tier"
            )
        options_by_partition[partition.name] = feasible
        for column, tier_index in enumerate(copies):
            option = feasible.get(tier_index)
            if option is not None:
                cost[row, column] = option.objective

    # linear_sum_assignment cannot handle +inf entries directly; replace them
    # with a prohibitively large finite cost and verify afterwards.
    finite = cost[np.isfinite(cost)]
    big = (finite.max() if finite.size else 1.0) * (n_partitions + 1) + 1.0
    padded = np.where(np.isfinite(cost), cost, big)
    rows, columns = linear_sum_assignment(padded)

    choices: dict[str, CandidateOption] = {}
    for row, column in zip(rows, columns):
        if not np.isfinite(cost[row, column]):
            raise ValueError(
                "no feasible matching exists under the latency and capacity constraints"
            )
        partition = problem.partitions[row]
        tier_index = copies[column]
        choices[partition.name] = options_by_partition[partition.name][tier_index]
    return Assignment.from_choices(problem, choices, solver="matching")
