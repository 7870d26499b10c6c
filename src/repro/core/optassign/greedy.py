"""Greedy OPTASSIGN solver — optimal when tiers have no capacity bound (Theorem 3).

When every tier's reserved capacity is unbounded, partitions do not compete
for space and the problem decomposes: each partition independently takes the
cheapest latency-feasible (tier, scheme) option.  The paper's enterprise data
lake is exactly this pay-per-use setting, and the greedy solver is what scales
to hundreds of PB-sized datasets (their 463-dataset account optimises in a few
seconds; ours is well under that).

The solve is a masked argmin over the problem's
:meth:`~repro.core.optassign.OptAssignProblem.batch_tensors` cost tensor, one
numpy pass for the whole instance, whose chosen cells are gathered straight
into the columnar :class:`~repro.core.optassign.Assignment`.  Its oracle is
the original per-partition ``min(options_for(...))`` loop, which lives with
the tests (``scalar_greedy`` in ``tests/oracles/results.py``; same
assignments bit for bit, see ``tests/optassign/test_vectorized_equivalence.py``).

Because the tensor's flattened (tier, scheme) axis enumerates candidates in
exactly the scalar loop's order (tiers outer, sorted schemes inner) and each
cell is computed with the same operation order as the scalar arithmetic, ties
break identically and the two return the *same* assignment, not merely
equally-good ones.
"""

from __future__ import annotations

import numpy as np

from ...obs import get_tracer
from .errors import InfeasibleError
from .problem import OptAssignProblem
from .result import (
    DECOMPRESSION,
    LATENCY,
    OBJECTIVE,
    PRICED_FIELDS,
    READ,
    STORAGE,
    WRITE,
    Assignment,
)

__all__ = ["solve_greedy"]


def solve_greedy(
    problem: OptAssignProblem,
    enforce_unbounded: bool = True,
) -> Assignment:
    """Pick the minimum-objective feasible option for every partition.

    Parameters
    ----------
    problem:
        The OPTASSIGN instance.
    enforce_unbounded:
        When True (default) the solver refuses to run on instances with
        finite tier capacities, because greedy is only *optimal* without
        capacity coupling.  Pass False to use it as a heuristic anyway (the
        capacity-aware wrapper does this as a fallback and then repairs).

    Raises
    ------
    InfeasibleError
        If some partition has no feasible option at all — its latency SLA,
        tier SLO, provider affinity and codec pinning jointly empty the
        candidate set; the caller should relax latency thresholds (see
        ``solve_optassign``) or loosen the hard constraints.
    """
    if enforce_unbounded and problem.has_finite_capacity():
        raise ValueError(
            "greedy OPTASSIGN is only optimal without capacity constraints; "
            "use solve_optassign (ILP) for capacity-bounded instances"
        )
    # Warm the tensor cache *before* opening the greedy span so the build is
    # traced as its own `optassign.batch_tensors` phase (a sibling, not a
    # child inflating the greedy timing).
    problem.batch_tensors()
    with get_tracer().span("optassign.greedy"):
        assignment, infeasible = _vectorized_assignment(problem)
    if infeasible:
        raise InfeasibleError(
            "no feasible (tier, scheme) option exists for partitions: "
            f"{infeasible[:5]}{'...' if len(infeasible) > 5 else ''}; "
            "relax latency thresholds, loosen SLO/affinity constraints or "
            "add faster tiers"
        )
    return assignment


def _vectorized_assignment(
    problem: OptAssignProblem,
) -> tuple[Assignment | None, list[str]]:
    """Masked argmin over the (N, T, K) objective tensor, gathered as columns."""
    tensors = problem.batch_tensors()
    num_partitions = tensors.num_partitions
    num_schemes = tensors.num_schemes

    # Flattening (T, K) in C order enumerates candidates tier-major with
    # sorted schemes inside each tier — the scalar loop's order — so argmin's
    # first-minimum rule reproduces min()'s tie-breaking exactly.
    flat = tensors.masked_objective().reshape(num_partitions, -1)
    best = np.argmin(flat, axis=1)
    rows = np.arange(num_partitions)
    best_objective = flat[rows, best]
    if not np.isfinite(best_objective).all():
        names = problem.partition_arrays().names
        return None, [names[i] for i in np.flatnonzero(~np.isfinite(best_objective))]

    tier = best // num_schemes
    scheme = best % num_schemes
    priced = np.empty((len(PRICED_FIELDS), num_partitions), dtype=np.float64)
    priced[OBJECTIVE] = best_objective
    priced[STORAGE] = tensors.storage[rows, tier, scheme]
    priced[READ] = tensors.read[rows, tier, scheme]
    priced[WRITE] = tensors.write[rows, tier, scheme]
    priced[DECOMPRESSION] = tensors.decompression[rows, scheme]
    priced[LATENCY] = tensors.latency_s[rows, tier, scheme]
    return Assignment(problem, tier, scheme, tensors.schemes, priced, "greedy"), []
