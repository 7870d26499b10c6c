"""MERGEPARTITIONS as an ILP (Eq. 2 of the paper), solved with ``scipy.optimize.milp``.

The ILP chooses a subset of candidate merges that (a) covers every initial
partition, (b) keeps the total expected read cost below ``C_thresh`` and
(c) minimises the total span (storage).  The problem is NP-hard (Theorem 4),
so for anything beyond toy sizes the candidate merge set must be restricted;
:func:`enumerate_candidate_merges` provides the standard construction
(singletons, feasible pairs, and optionally the merges G-PART found), and
:func:`solve_merge_ilp` optimises over whatever candidate set it is given.
On tiny instances the candidate set can be made exhaustive, which is how the
tests cross-check G-PART and the ordered DP against the true optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .partitions import FileUniverse, InitialPartition, Merge, MergeConstraints

__all__ = [
    "MergeIlpResult",
    "enumerate_candidate_merges",
    "solve_merge_ilp",
    "MergeIlpInfeasibleError",
]


class MergeIlpInfeasibleError(RuntimeError):
    """Raised when no candidate subset covers all partitions within the cost budget."""


@dataclass
class MergeIlpResult:
    """The chosen merges and their aggregate span / cost."""

    merges: list[Merge]
    total_span: float
    total_cost: float


def _merge_is_feasible(
    partitions: Sequence[InitialPartition], constraints: MergeConstraints
) -> bool:
    """The paper requires every *pair* inside a merge to be frequency-compatible."""
    for first, second in combinations(partitions, 2):
        if not constraints.frequencies_compatible(first.frequency, second.frequency):
            return False
    return True


def enumerate_candidate_merges(
    partitions: Sequence[InitialPartition],
    universe: FileUniverse,
    constraints: MergeConstraints | None = None,
    max_merge_size: int = 2,
    extra_merges: Sequence[Merge] = (),
) -> list[Merge]:
    """Candidate merges: all feasible subsets up to ``max_merge_size``, plus extras.

    Singletons are always included so a feasible cover exists; ``extra_merges``
    lets callers add, e.g., the merges produced by G-PART so the ILP can pick
    the best of both.  With ``max_merge_size=len(partitions)`` the enumeration
    is exhaustive (exponential — only for tiny instances / tests).
    """
    if not partitions:
        raise ValueError("at least one initial partition is required")
    constraints = constraints or MergeConstraints()
    candidates: dict[tuple[str, ...], Merge] = {}
    for size in range(1, min(max_merge_size, len(partitions)) + 1):
        for subset in combinations(partitions, size):
            if size > 1 and not _merge_is_feasible(subset, constraints):
                continue
            merge = Merge.of(list(subset), universe)
            if (
                size > 1
                and constraints.span_threshold is not None
                and merge.span > constraints.span_threshold
            ):
                continue
            candidates[tuple(sorted(merge.members))] = merge
    for merge in extra_merges:
        candidates.setdefault(tuple(sorted(merge.members)), merge)
    return list(candidates.values())


def solve_merge_ilp(
    partitions: Sequence[InitialPartition],
    candidates: Sequence[Merge],
    cost_threshold: float | None,
) -> MergeIlpResult:
    """Solve Eq. 2 over ``candidates``.

    Raises
    ------
    MergeIlpInfeasibleError
        If the candidates cannot cover every partition within the budget.
    """
    # Imported here: scipy.optimize adds ~40 MB of resident memory, which
    # only callers that solve an ILP should pay.
    from scipy.optimize import Bounds, LinearConstraint, milp

    if not partitions:
        raise ValueError("at least one initial partition is required")
    if not candidates:
        raise ValueError("at least one candidate merge is required")
    partition_names = [partition.name for partition in partitions]
    covered = set()
    for merge in candidates:
        covered.update(merge.members)
    missing = set(partition_names) - covered
    if missing:
        raise MergeIlpInfeasibleError(
            f"candidate merges never cover partitions: {sorted(missing)[:5]}"
        )

    n_variables = len(candidates)
    objective = np.array([float(merge.span) for merge in candidates])

    constraints_list: list[LinearConstraint] = []

    # Coverage: every initial partition appears in at least one chosen merge.
    coverage = np.zeros((len(partition_names), n_variables))
    for row, name in enumerate(partition_names):
        for column, merge in enumerate(candidates):
            if name in merge.members:
                coverage[row, column] = 1.0
    constraints_list.append(LinearConstraint(coverage, lb=1.0, ub=np.inf))

    # Budget: total expected read cost of chosen merges stays under C_thresh.
    if cost_threshold is not None:
        costs = np.array([[merge.cost for merge in candidates]])
        constraints_list.append(
            LinearConstraint(costs, lb=-np.inf, ub=float(cost_threshold))
        )

    result = milp(
        c=objective,
        constraints=constraints_list,
        integrality=np.ones(n_variables),
        bounds=Bounds(lb=0.0, ub=1.0),
    )
    if not result.success or result.x is None:
        raise MergeIlpInfeasibleError(
            f"MERGEPARTITIONS ILP failed (status {result.status}): {result.message}"
        )
    chosen = [
        candidates[index]
        for index, value in enumerate(np.round(result.x).astype(int))
        if value == 1
    ]
    return MergeIlpResult(
        merges=chosen,
        total_span=float(sum(merge.span for merge in chosen)),
        total_cost=float(sum(merge.cost for merge in chosen)),
    )
