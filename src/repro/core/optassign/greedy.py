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

The tensors are laid out ``(T, K, N)``, partitions innermost, so the
candidates of partition ``n`` are column ``n`` of the ``(T * K, N)`` view and
the argmin runs down axis 0.  Row ``t * K + k`` of that view is tier ``t``
with scheme ``k``: the candidate axis enumerates exactly the scalar loop's
order (tiers outer, sorted schemes inner), argmin keeps the first of equal
minima as ``min()`` does, and each cell is computed with the same operation
order as the scalar arithmetic.  So ties break identically and the two
return the *same* assignment, not merely equally-good ones
(``tests/optassign/test_tensor_layout.py`` pins a tie across two tiers and
two schemes behind a masked cheaper cell).
"""

from __future__ import annotations

import numpy as np

from ...cloud import BatchCostTensors
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
    """Masked argmin over the (T, K, N) objective tensor, gathered as columns."""
    tensors = problem.batch_tensors()
    tier, scheme, priced = greedy_columns(tensors)
    infeasible = ~np.isfinite(priced[OBJECTIVE])
    if infeasible.any():
        names = problem.partition_arrays().names
        return None, [names[i] for i in np.flatnonzero(infeasible)]
    return Assignment(problem, tier, scheme, tensors.schemes, priced, "greedy"), []


def greedy_columns(
    tensors: BatchCostTensors,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tier, scheme, priced)`` of every partition's first cheapest
    feasible cell: the greedy's choice as columns, ``scheme`` coding into
    ``tensors.schemes``.  A partition with no feasible cell gets an
    infinite priced objective."""
    num_partitions = tensors.num_partitions
    num_schemes = tensors.num_schemes

    # Flattening (T, K) in C order enumerates candidates tier-major with
    # sorted schemes inside each tier — the scalar loop's order — so argmin's
    # first-minimum rule down the candidate axis reproduces min()'s
    # tie-breaking exactly.
    masked = tensors.masked_objective()
    best = np.argmin(masked.reshape(-1, num_partitions), axis=0)
    # Partition n's chosen cell [tier, scheme, n] sits at best[n] * N + n of
    # every flattened (T, K, N) tensor, and at scheme * N + n of a (K, N)
    # column: one flat index gathers each priced row with `take`.
    rows = np.arange(num_partitions)
    cell = best * num_partitions + rows
    tier = best // num_schemes
    scheme = best % num_schemes
    priced = np.empty((len(PRICED_FIELDS), num_partitions), dtype=np.float64)
    masked.take(cell, out=priced[OBJECTIVE])
    tensors.storage.take(cell, out=priced[STORAGE])
    tensors.read.take(cell, out=priced[READ])
    tensors.write.take(cell, out=priced[WRITE])
    tensors.decompression.take(
        scheme * num_partitions + rows, out=priced[DECOMPRESSION]
    )
    tensors.latency_s.take(cell, out=priced[LATENCY])
    return tier, scheme, priced
