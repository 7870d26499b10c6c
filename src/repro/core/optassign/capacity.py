"""The OPTASSIGN facade: pick the right solver and relax latency if needed.

``solve_optassign`` is the entry point the pipeline and the benchmarks use.
It dispatches to the greedy solver (optimal, linear time) when no tier has a
finite capacity, and to the ILP otherwise; when the constraints are jointly
infeasible it relaxes every latency threshold by a growing factor, as the
paper prescribes ("the latency requirements need to be relaxed iteratively
till a feasible solution is found").

For capacity-bounded instances where the ILP is too slow (tens of thousands
of partitions), ``prefer="greedy"`` now runs the vectorized greedy solver and
then :func:`repair_capacity` — a regret-based eviction pass over the same
batch cost tensors — so the facade's old promise that the greedy fallback
"repairs" capacity violations is actually kept.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ...cloud import PoolSet
from ...cloud.simulator import recode
from ...obs import get_metrics, get_tracer
from .errors import InfeasibleError
from .greedy import solve_greedy
from .ilp import solve_ilp
from .problem import OptAssignProblem
from .result import (
    DECOMPRESSION,
    LATENCY,
    OBJECTIVE,
    READ,
    STORAGE,
    WRITE,
    Assignment,
)

__all__ = [
    "solve_optassign",
    "repair_capacity",
    "repair_pools",
    "check_fail_fast_certificates",
    "SolveReport",
]


@dataclass
class SolveReport:
    """The assignment plus how it was obtained (solver, relaxation applied)."""

    assignment: Assignment
    solver: str
    latency_relaxation: float

    @property
    def relaxed(self) -> bool:
        return self.latency_relaxation > 1.0


def _repair_groups(
    assignment: Assignment,
    group_of_tier: np.ndarray,
    capacities: np.ndarray,
    describe_failure,
    solver_suffix: str,
    tolerance: float,
    kind: str = "capacity",
) -> Assignment:
    """Greedy regret-per-GB eviction until every *tier group* fits its budget.

    The shared water-filling machinery behind :func:`repair_capacity` (every
    tier its own group, budgets = reserved tier capacities) and
    :func:`repair_pools` (groups = shared capacity pools, tiers with group
    index ``-1`` unconstrained).  Groups are processed most-overfull first;
    members of an over-full group move to their cheapest feasible option
    outside every closed group, cheapest regret per freed GB first, until the
    group fits.  A repaired group is closed to further arrivals, so the loop
    terminates after at most one round per group.  All candidate costs come
    from the problem's cached batch tensors — no per-option Python
    re-evaluation.

    ``describe_failure(index, need_gb)`` renders the complete InfeasibleError
    message when the group at ``index`` cannot shed ``need_gb`` more GB.
    ``kind`` names the telemetry series (``optassign.repair_capacity`` /
    ``optassign.repair_pools`` spans, ``optassign.repair.*{kind=}``
    counters).
    """
    tracer = get_tracer()
    with tracer.span(f"optassign.repair_{kind}") as span:
        result, rounds, evictions = _repair_groups_impl(
            assignment, group_of_tier, capacities, describe_failure,
            solver_suffix, tolerance,
        )
        if tracer.enabled:
            span.set(rounds=rounds, evictions=evictions)
            metrics = get_metrics()
            if rounds:
                metrics.counter("optassign.repair.rounds", kind=kind).add(rounds)
            if evictions:
                metrics.counter("optassign.repair.evictions", kind=kind).add(
                    evictions
                )
    return result


def _repair_groups_impl(
    assignment: Assignment,
    group_of_tier: np.ndarray,
    capacities: np.ndarray,
    describe_failure,
    solver_suffix: str,
    tolerance: float,
) -> tuple[Assignment, int, int]:
    """The water-filling algorithm behind :func:`_repair_groups`.

    Returns ``(assignment, rounds, evictions)`` — rounds is the number of
    groups that had to be repaired, evictions the partitions moved.
    """
    problem = assignment.problem
    tensors = problem.batch_tensors()
    num_groups = len(capacities)
    num_partitions = tensors.num_partitions

    current_tier = assignment.tier.copy()
    current_scheme = recode(assignment.scheme, assignment.schemes, tensors.schemes)
    rows = np.arange(num_partitions)
    stored = tensors.stored_gb[current_scheme, rows]
    tier_usage = np.bincount(current_tier, weights=stored, minlength=tensors.num_tiers)
    grouped_tiers = group_of_tier >= 0
    usage = np.bincount(
        group_of_tier[grouped_tiers],
        weights=tier_usage[grouped_tiers],
        minlength=num_groups,
    )
    if not (usage > capacities + tolerance).any():
        return assignment, 0, 0

    masked = tensors.masked_objective()
    closed = np.zeros(num_groups, dtype=bool)
    moved: set[int] = set()
    rounds = 0
    while True:
        overflow = usage - capacities
        overfull = np.flatnonzero(overflow > tolerance)
        if overfull.size == 0:
            break
        rounds += 1
        # Invariant: an over-full group here is never closed — evictions only
        # target tiers of non-closed groups (or ungrouped tiers), so a
        # repaired group's usage cannot grow again and each round closes one
        # more group (<= one round per group in total).
        target = int(overfull[np.argmax(overflow[overfull])])
        closed[target] = True
        closed_tiers = np.zeros(tensors.num_tiers, dtype=bool)
        closed_tiers[grouped_tiers] = closed[group_of_tier[grouped_tiers]]

        members = np.flatnonzero(group_of_tier[current_tier] == target)
        alternatives = masked[:, :, members]
        alternatives[closed_tiers] = np.inf
        flat = alternatives.reshape(-1, len(members))
        best = np.argmin(flat, axis=0)
        best_objective = flat[best, np.arange(len(members))]
        current_objective = masked[current_tier[members], current_scheme[members], members]
        freed = stored[members]
        regret = best_objective - current_objective
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(freed > 0, regret / freed, np.inf)

        need = overflow[target]
        for position in np.argsort(score, kind="stable"):
            if need <= tolerance:
                break
            if not np.isfinite(best_objective[position]) or freed[position] <= 0:
                continue
            index = int(members[position])
            new_tier = int(best[position] // tensors.num_schemes)
            new_scheme = int(best[position] % tensors.num_schemes)
            need -= freed[position]
            usage[target] -= freed[position]
            new_stored = float(tensors.stored_gb[new_scheme, index])
            destination = int(group_of_tier[new_tier])
            if destination >= 0:
                usage[destination] += new_stored
            current_tier[index] = new_tier
            current_scheme[index] = new_scheme
            stored[index] = new_stored
            moved.add(index)
        if need > tolerance:
            raise InfeasibleError(describe_failure(target, float(need)))

    # Only the moved rows are re-priced, straight from the cached tensors;
    # every other row keeps the cents it was chosen at.
    priced = assignment.priced.copy()
    index = np.fromiter(sorted(moved), dtype=np.int64, count=len(moved))
    tier = current_tier[index]
    scheme = current_scheme[index]
    priced[OBJECTIVE, index] = tensors.objective[tier, scheme, index]
    priced[STORAGE, index] = tensors.storage[tier, scheme, index]
    priced[READ, index] = tensors.read[tier, scheme, index]
    priced[WRITE, index] = tensors.write[tier, scheme, index]
    priced[DECOMPRESSION, index] = tensors.decompression[scheme, index]
    priced[LATENCY, index] = tensors.latency_s[tier, scheme, index]
    return (
        Assignment(
            problem,
            current_tier,
            current_scheme,
            tensors.schemes,
            priced,
            f"{assignment.solver}{solver_suffix}",
        ),
        rounds,
        len(moved),
    )


def repair_capacity(
    assignment: Assignment, tolerance: float = 1e-9
) -> Assignment:
    """Evict partitions from over-capacity tiers at minimum regret, vectorized.

    Greedy assigns every partition its individually-cheapest option, which may
    jointly exceed a tier's reserved capacity.  This pass restores capacity
    feasibility via :func:`_repair_groups` with every tier as its own group:
    tiers are processed most-overfull first, and members of an over-full tier
    are moved to their cheapest feasible option *elsewhere*, cheapest regret
    per freed GB first, until the tier fits.

    Returns the assignment unchanged (same object) when it is already
    capacity-feasible.  Raises :class:`InfeasibleError` when a tier cannot be
    repaired (not enough movable partitions with feasible options outside the
    full tiers); ``solve_optassign`` reacts by relaxing latency thresholds,
    which widens the set of feasible destinations.
    """
    tiers = assignment.problem.cost_model.tiers
    capacities = tiers.cost_arrays()["capacity_gb"]
    return _repair_groups(
        assignment,
        group_of_tier=np.arange(len(capacities), dtype=np.int64),
        capacities=capacities,
        describe_failure=lambda tier, need: (
            f"capacity repair failed: tier {tier} remains {need:.3f} GB over "
            "its reserved capacity and no movable partition has a feasible "
            "option elsewhere"
        ),
        solver_suffix="+repair",
        tolerance=tolerance,
        kind="capacity",
    )


def repair_pools(
    assignment: Assignment,
    pool_set: PoolSet,
    reserved_gb: np.ndarray | None = None,
    tolerance: float = 1e-9,
) -> Assignment:
    """Evict partitions from over-budget *capacity pools* at minimum regret.

    The pool-level counterpart of :func:`repair_capacity`: a
    :class:`~repro.cloud.PoolSet` groups catalog tiers into shared GB budgets
    (typically spanning many tenants via a stacked problem), and this pass
    restores pool feasibility by the same greedy water-filling — most-overfull
    pool first, its members moved to their cheapest feasible option outside
    every closed pool, cheapest regret per freed GB first.  A repaired pool is
    closed to further arrivals (all its tiers are masked), so the loop
    terminates after at most one round per pool.  Tiers in no pool are
    unconstrained destinations.

    ``reserved_gb`` (one entry per pool) is capacity already consumed by
    partitions *outside* this assignment — in the fleet setting, the standing
    placements of tenants that did not re-optimize this epoch — and is
    subtracted from each pool's budget before arbitration.

    Returns the assignment unchanged (same object) when every pool already
    fits.  Raises :class:`InfeasibleError` when a pool cannot be repaired;
    the fleet scheduler reacts by relaxing latency thresholds, exactly as
    ``solve_optassign`` does for tier-capacity infeasibility.
    """
    if pool_set.catalog is not assignment.problem.cost_model.tiers:
        raise ValueError(
            "pool_set was resolved against a different tier catalog than the "
            "assignment's problem"
        )
    capacities = pool_set.capacities
    if reserved_gb is not None:
        reserved_gb = np.asarray(reserved_gb, dtype=np.float64)
        if reserved_gb.shape != capacities.shape:
            raise ValueError(
                f"reserved_gb must have shape {capacities.shape}, "
                f"got {reserved_gb.shape}"
            )
        if (reserved_gb < 0).any():
            raise ValueError("reserved_gb entries must be non-negative")
        capacities = np.maximum(capacities - reserved_gb, 0.0)
    return _repair_groups(
        assignment,
        group_of_tier=pool_set.pool_of_tier,
        capacities=capacities,
        describe_failure=lambda pool, need: (
            f"pool arbitration failed: pool {pool_set.pools[pool].name!r} "
            f"remains {need:.3f} GB over its shared budget and no movable "
            "partition has a feasible option outside the full pools"
        ),
        solver_suffix="+pools",
        tolerance=tolerance,
        kind="pools",
    )


def solve_optassign(
    problem: OptAssignProblem,
    prefer: str = "auto",
    max_relaxation_rounds: int = 6,
    relaxation_step: float = 2.0,
    time_limit_s: float | None = None,
    post_repair=None,
) -> SolveReport:
    """Solve OPTASSIGN, relaxing latency thresholds if the instance is infeasible.

    Parameters
    ----------
    problem:
        The instance to solve.
    prefer:
        ``"auto"`` (greedy when capacities are unbounded, ILP otherwise),
        ``"greedy"`` or ``"ilp"``.
    max_relaxation_rounds:
        How many times to multiply latency thresholds by ``relaxation_step``
        before giving up.
    relaxation_step:
        Multiplicative latency relaxation per round (> 1).
    post_repair:
        Optional ``Assignment -> Assignment`` pass applied *inside* the
        relaxation loop, after the solver (and any tier-capacity repair)
        succeeds.  An :class:`InfeasibleError` it raises triggers the same
        latency relaxation as solver infeasibility, while the up-front
        fail-fast certificates still run exactly once.  The fleet layer
        plugs :func:`repair_pools` in here so shared-pool arbitration rides
        the one relaxation loop instead of duplicating it.

    Raises
    ------
    ValueError
        If ``prefer`` or ``relaxation_step`` is invalid.
    InfeasibleError
        If no solution exists even after every relaxation round — including
        the capacity-driven case latency relaxation can never fix (total
        minimum stored size exceeding total reserved capacity), which is
        detected up front and raised without burning relaxation rounds.
    """
    if prefer not in ("auto", "greedy", "ilp"):
        raise ValueError(f"prefer must be 'auto', 'greedy' or 'ilp', got {prefer!r}")
    if relaxation_step <= 1.0:
        raise ValueError("relaxation_step must be greater than 1")
    if prefer == "auto":
        solver = "ilp" if problem.has_finite_capacity() else "greedy"
    else:
        solver = prefer

    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("optassign.solve", solver=solver) as solve_span:
        check_fail_fast_certificates(problem)

        factor = 1.0
        last_error: Exception | None = None
        for round_index in range(max_relaxation_rounds + 1):
            candidate = problem if factor == 1.0 else problem.relaxed(factor)
            # Round 0 is the unrelaxed solve; only actual relaxation retries
            # get their own span so the relaxation loop shows up in traces
            # exactly when it ran.
            round_context = (
                tracer.span(
                    "optassign.relaxation_round", round=round_index, factor=factor
                )
                if round_index > 0
                else nullcontext()
            )
            try:
                with round_context:
                    if solver == "greedy":
                        assignment = solve_greedy(candidate, enforce_unbounded=False)
                        if candidate.has_finite_capacity():
                            assignment = repair_capacity(assignment)
                    else:
                        assignment = solve_ilp(candidate, time_limit_s=time_limit_s)
                    if post_repair is not None:
                        assignment = post_repair(assignment)
                solve_span.set(latency_relaxation=factor)
                return SolveReport(
                    assignment=assignment, solver=solver, latency_relaxation=factor
                )
            except InfeasibleError as error:
                last_error = error
                factor *= relaxation_step
                metrics.counter("optassign.relaxations").add()
        raise InfeasibleError(
            f"OPTASSIGN instance remained infeasible after relaxing latency "
            f"thresholds {max_relaxation_rounds} times (last error: {last_error})"
        )


def check_fail_fast_certificates(problem: OptAssignProblem) -> None:
    """Fail fast on the two infeasibility classes latency relaxation can
    never fix, with pointed diagnostics instead of a misleading
    exhausted-rounds error: hard-mask-empty partitions (SLO/affinity/codec)
    and aggregate capacity shortfall.

    :func:`solve_optassign` runs it once, before its relaxation loop.
    """
    metrics = get_metrics()
    masked_out = problem.hard_mask_empty_partitions()
    if masked_out:
        metrics.counter(
            "optassign.infeasibility_certificates", kind="hard_mask"
        ).add()
        raise InfeasibleError(
            "partitions have no (tier, scheme) candidate under their "
            "never-relaxed constraints (tier SLO caps, provider affinity, "
            f"codec pinning): {masked_out[:5]}"
            f"{'...' if len(masked_out) > 5 else ''}; latency relaxation "
            "cannot help — loosen those constraints or extend the catalog"
        )
    shortfall = _capacity_shortfall(problem)
    if shortfall > 0.0:
        metrics.counter(
            "optassign.infeasibility_certificates", kind="capacity_shortfall"
        ).add()
        raise InfeasibleError(
            "OPTASSIGN instance is capacity-infeasible regardless of latency "
            f"relaxation: the partitions' minimum stored size exceeds the "
            f"total reserved capacity by {shortfall:.3f} GB"
        )


def _capacity_shortfall(problem: OptAssignProblem) -> float:
    """GB by which the partitions' minimum footprint exceeds total capacity.

    A positive value certifies infeasibility no matter how far latency
    thresholds are relaxed: even packing every partition at its smallest
    available stored size cannot fit the catalog.  Only meaningful when
    *every* tier has finite capacity — one unbounded tier absorbs anything.
    """
    capacities = problem.cost_model.tiers.cost_arrays()["capacity_gb"]
    if np.isinf(capacities).any():
        return 0.0
    min_stored = problem.min_stored_gb()
    if np.isinf(min_stored).any():
        # Some partition has no usable scheme at all; the hard-mask check
        # (or the solvers) produce the more specific diagnostics.
        return 0.0
    return float(min_stored.sum() - capacities.sum())
