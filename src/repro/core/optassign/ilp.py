"""Exact OPTASSIGN solver: the paper's ILP (Eq. 1) via ``scipy.optimize.milp``.

One binary variable per latency-feasible, codec-allowed (partition, tier,
scheme) triple.  The latency constraint and the codec-pinning constraint are
enforced by *excluding* infeasible triples from the variable set (they only
ever constrain a single variable each, so exclusion is equivalent to the
paper's constraint rows); the assignment and capacity constraints become the
MILP's linear constraints.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleError
from .problem import CandidateOption, OptAssignProblem
from .result import Assignment

__all__ = ["solve_ilp", "IlpInfeasibleError"]


class IlpInfeasibleError(InfeasibleError):
    """Raised when the ILP has no feasible solution (capacity + latency conflict).

    Subclasses the shared :class:`InfeasibleError` (hence ``ValueError``) so
    the facade and callers handle every solver's give-up path uniformly.
    """


def solve_ilp(problem: OptAssignProblem, time_limit_s: float | None = None) -> Assignment:
    """Solve OPTASSIGN exactly with a mixed-integer linear program.

    Raises
    ------
    IlpInfeasibleError
        If no assignment satisfies the latency and capacity constraints
        simultaneously.  The caller (``solve_optassign``) handles iterative
        latency relaxation, mirroring the paper's prescription.
    """
    # Imported here: scipy.optimize adds ~40 MB of resident memory, which
    # only callers that solve an ILP should pay.
    from scipy.optimize import Bounds, LinearConstraint, milp

    options_by_partition = problem.all_options()
    empty = [name for name, options in options_by_partition.items() if not options]
    if empty:
        raise IlpInfeasibleError(
            "partitions with no feasible (tier, scheme) option (latency SLA, "
            f"tier SLO, provider affinity, codec pinning): {empty[:5]}"
            f"{'...' if len(empty) > 5 else ''}"
        )

    # Flatten candidate options into the variable vector.
    variables: list[CandidateOption] = []
    variable_index: dict[int, list[int]] = {}
    for partition_position, partition in enumerate(problem.partitions):
        indices = []
        for option in options_by_partition[partition.name]:
            indices.append(len(variables))
            variables.append(option)
        variable_index[partition_position] = indices

    n_variables = len(variables)
    objective = np.array([option.objective for option in variables])

    constraints: list[LinearConstraint] = []

    # Each partition is assigned exactly one (tier, scheme).
    assignment_matrix = np.zeros((len(problem.partitions), n_variables))
    for partition_position, indices in variable_index.items():
        assignment_matrix[partition_position, indices] = 1.0
    constraints.append(LinearConstraint(assignment_matrix, lb=1.0, ub=1.0))

    # Capacity constraints for tiers with finite reserved capacity.
    by_name = {partition.name: partition for partition in problem.partitions}
    finite_tiers = [
        tier_index
        for tier_index, tier in enumerate(problem.cost_model.tiers)
        if not math.isinf(tier.capacity_gb)
    ]
    if finite_tiers:
        capacity_matrix = np.zeros((len(finite_tiers), n_variables))
        capacity_limits = np.zeros(len(finite_tiers))
        for row, tier_index in enumerate(finite_tiers):
            capacity_limits[row] = problem.cost_model.tiers[tier_index].capacity_gb
            for column, option in enumerate(variables):
                if option.tier_index == tier_index:
                    capacity_matrix[row, column] = problem.stored_gb(
                        by_name[option.partition], option.scheme
                    )
        constraints.append(
            LinearConstraint(capacity_matrix, lb=-np.inf, ub=capacity_limits)
        )

    options_kwargs = {}
    if time_limit_s is not None:
        options_kwargs["time_limit"] = time_limit_s
    result = milp(
        c=objective,
        constraints=constraints,
        integrality=np.ones(n_variables),
        bounds=Bounds(lb=0.0, ub=1.0),
        options=options_kwargs,
    )
    if not result.success or result.x is None:
        raise IlpInfeasibleError(
            f"MILP failed (status {result.status}): {result.message}"
        )

    choices: dict[str, CandidateOption] = {}
    solution = np.round(result.x).astype(int)
    for partition_position, partition in enumerate(problem.partitions):
        selected = [
            variables[index]
            for index in variable_index[partition_position]
            if solution[index] == 1
        ]
        if len(selected) != 1:
            # Numerical slack: fall back to the largest fractional value.
            indices = variable_index[partition_position]
            best = max(indices, key=lambda index: result.x[index])
            selected = [variables[best]]
        choices[partition.name] = selected[0]
    return Assignment.from_choices(problem, choices, solver="ilp")
