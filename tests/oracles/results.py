"""Object-at-a-time oracles for the columnar solve results.

These are the per-row implementations the library replaced with columns:
the scalar greedy (``min`` over each partition's options), the eager greedy
compose (one ``CandidateOption`` + ``CostBreakdown`` per row, and the
one-cell :func:`breakdown_at`), the repair pass that copies the choice dict
and ``replace``-s moved rows, the per-row stacked split into
``PlacementDecision`` maps, the executor's per-partition scan, the
per-name ``CompiledPlacement`` build, the ``Assignment``
aggregates summed over option objects, and the delta solver's per-name
constraint scan.  The columnar paths must reproduce them bit for bit
(``tests/optassign/test_vectorized_equivalence.py``,
``tests/optassign/test_columnar_result.py``,
``tests/engine/test_columnar_apply.py``).  :func:`mapping_apply` moves a
name-keyed placement through the executor's column move rule, for tests
that price single moves, and records each move on the partition, as the
per-partition scan does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, MutableMapping, Sequence

import numpy as np

from oracles.problems import tenant_names
from repro.cloud import (
    BatchCostTensors,
    CostBreakdown,
    DataPartition,
    PartitionArrays,
    PlacementColumns,
    PlacementDecision,
    TierCatalog,
)
from repro.cloud.objects import NO_COMPRESSION
from repro.cloud.tiers import NEW_DATA_TIER
from repro.core.optassign import (
    Assignment,
    CandidateOption,
    InfeasibleError,
    OptAssignProblem,
)
from repro.engine import MigrationExecutor, MigrationReport
from repro.engine.executor import MoveColumns, count_moves


def scalar_greedy(problem: OptAssignProblem) -> Assignment:
    """The greedy solve one partition at a time: enumerate each partition's
    options and take the minimum objective; raises the message
    :func:`~repro.core.optassign.solve_greedy` raises."""
    choices: dict[str, CandidateOption] = {}
    infeasible: list[str] = []
    for partition in problem.partitions:
        options = problem.options_for(partition)
        if not options:
            infeasible.append(partition.name)
            continue
        choices[partition.name] = min(options, key=lambda option: option.objective)
    if infeasible:
        raise InfeasibleError(
            "no feasible (tier, scheme) option exists for partitions: "
            f"{infeasible[:5]}{'...' if len(infeasible) > 5 else ''}; "
            "relax latency thresholds, loosen SLO/affinity constraints or "
            "add faster tiers"
        )
    return Assignment.from_choices(problem, choices, solver="greedy")


def eager_greedy_choices(problem: OptAssignProblem) -> dict[str, CandidateOption]:
    """The masked argmin, composed into one option object per row."""
    tensors = problem.batch_tensors()
    arrays = problem.partition_arrays()
    num_partitions = tensors.num_partitions
    num_schemes = tensors.num_schemes
    flat = tensors.masked_objective.reshape(-1, num_partitions)
    best = np.argmin(flat, axis=0)
    rows = np.arange(num_partitions)
    best_objective = flat[best, rows]
    if not np.isfinite(best_objective).all():
        raise InfeasibleError("infeasible rows")
    tier_index = best // num_schemes
    scheme_index = best % num_schemes
    storage, read, write, decompression, latency = tensors.price_cells(
        tier_index, scheme_index, rows
    ).tolist()
    objective = best_objective.tolist()
    tiers = tier_index.tolist()
    scheme_names = [tensors.schemes[k] for k in scheme_index.tolist()]
    return {
        name: CandidateOption(
            partition=name,
            tier_index=tiers[i],
            scheme=scheme_names[i],
            objective=objective[i],
            breakdown=CostBreakdown(
                storage=storage[i],
                read=read[i],
                write=write[i],
                decompression=decompression[i],
            ),
            latency_s=latency[i],
            latency_feasible=True,
            codec_allowed=True,
            slo_feasible=True,
            provider_allowed=True,
        )
        for i, name in enumerate(arrays.names)
    }


def cell_at(tensors: BatchCostTensors, t: int, k: int, n: int) -> list[float]:
    """Storage, read, write, decompression and latency of one (tier, scheme,
    partition) cell, priced alone."""
    index = np.array([t]), np.array([k]), np.array([n])
    return tensors.price_cells(*index)[:, 0].tolist()


def breakdown_at(tensors: BatchCostTensors, t: int, k: int, n: int) -> CostBreakdown:
    """The unweighted billed breakdown of one (tier, scheme, partition) cell."""
    storage, read, write, decompression, _ = cell_at(tensors, t, k, n)
    return CostBreakdown(
        storage=storage, read=read, write=write, decompression=decompression
    )


def dict_repair_groups(
    problem: OptAssignProblem,
    choices: Mapping[str, CandidateOption],
    group_of_tier: np.ndarray,
    capacities: np.ndarray,
    tolerance: float = 1e-9,
) -> tuple[dict[str, CandidateOption], int, int]:
    """Regret-per-GB water-filling over a choice dict: ``(choices, rounds,
    evictions)``; moved rows are ``replace``-d, the rest keep their objects."""
    tensors = problem.batch_tensors()
    arrays = problem.partition_arrays()
    num_groups = len(capacities)
    num_partitions = tensors.num_partitions
    scheme_index = {scheme: k for k, scheme in enumerate(tensors.schemes)}
    current_tier = np.fromiter(
        (choices[name].tier_index for name in arrays.names),
        dtype=np.int64,
        count=num_partitions,
    )
    current_scheme = np.fromiter(
        (scheme_index[choices[name].scheme] for name in arrays.names),
        dtype=np.int64,
        count=num_partitions,
    )
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
        return dict(choices), 0, 0
    masked = tensors.masked_objective
    closed = np.zeros(num_groups, dtype=bool)
    moved: set[int] = set()
    rounds = 0
    while True:
        overflow = usage - capacities
        overfull = np.flatnonzero(overflow > tolerance)
        if overfull.size == 0:
            break
        rounds += 1
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
            raise InfeasibleError(f"group {target} remains {need:.3f} GB over")
    repaired = dict(choices)
    for index in moved:
        name = arrays.names[index]
        tier = int(current_tier[index])
        scheme = int(current_scheme[index])
        repaired[name] = replace(
            choices[name],
            tier_index=tier,
            scheme=tensors.schemes[scheme],
            objective=float(tensors.objective[tier, scheme, index]),
            breakdown=breakdown_at(tensors, tier, scheme, index),
            latency_s=cell_at(tensors, tier, scheme, index)[4],
        )
    return repaired, rounds, len(moved)


def dict_aggregates(problem: OptAssignProblem, choices: Mapping[str, CandidateOption]):
    """The assignment aggregates, summed over option objects in dict order."""
    total = CostBreakdown()
    for option in choices.values():
        total += option.breakdown
    tier_counts = [0] * problem.tier_count
    scheme_counts: dict[str, int] = {}
    usage = [0.0] * problem.tier_count
    by_name = {partition.name: partition for partition in problem.partitions}
    for name, option in choices.items():
        tier_counts[option.tier_index] += 1
        scheme_counts[option.scheme] = scheme_counts.get(option.scheme, 0) + 1
        usage[option.tier_index] += problem.stored_gb(by_name[name], option.scheme)
    return {
        "objective": float(sum(option.objective for option in choices.values())),
        "breakdown": total,
        "tier_counts": tier_counts,
        "scheme_counts": scheme_counts,
        "tier_usage_gb": usage,
        "max_read_latency_s": max(
            problem.cost_model.tiers[option.tier_index].latency_s
            for option in choices.values()
        ),
    }


def row_split_placements(
    stacked, choices: Mapping[str, CandidateOption]
) -> dict[str, dict[str, PlacementDecision]]:
    """Per-tenant placement dicts, one ``PlacementDecision`` per row."""
    tagged_names = stacked.problem.partition_arrays().names
    profiles = stacked.problem._profiles
    split: dict[str, dict[str, PlacementDecision]] = {}
    for tenant, (start, stop), names in zip(
        stacked.tenants, stacked.tenant_spans, tenant_names(stacked)
    ):
        placements = split[tenant] = {}
        for tagged, name in zip(tagged_names[start:stop], names):
            option = choices[tagged]
            placements[name] = PlacementDecision(
                tier_index=option.tier_index,
                profile=profiles[tagged][option.scheme],
            )
    return split


def scan_apply(
    tiers: TierCatalog,
    partitions: Sequence[DataPartition],
    old_placement: Mapping[str, PlacementDecision] | None,
    new_placement: Mapping[str, PlacementDecision],
    months_in_tier: MutableMapping[str, float],
    epoch: int = 0,
    waive_early_deletion_tiers=None,
) -> MigrationReport:
    """The executor's per-partition scan: compare, bill and move row by row.

    The moves are gathered one record-shaped tuple at a time and handed to
    the report as :class:`~repro.engine.executor.MoveColumns`."""
    missing = [p.name for p in partitions if p.name not in new_placement]
    if missing:
        raise KeyError(f"new placement missing partitions: {missing}")
    moves: list[tuple] = []
    for row, partition in enumerate(partitions):
        name = partition.name
        new = new_placement[name]
        old = old_placement.get(name) if old_placement is not None else None
        from_tier = partition.current_tier if old is None else old.tier_index
        old_scheme = (
            (partition.current_codec or NO_COMPRESSION)
            if old is None
            else old.profile.scheme
        )
        if from_tier == NEW_DATA_TIER:
            stored_gb = new.profile.compressed_gb(partition.size_gb)
            moves.append(
                (
                    row,
                    NEW_DATA_TIER,
                    new.tier_index,
                    stored_gb,
                    tiers[new.tier_index].write_cost_for(stored_gb),
                    0.0,
                    0.0,
                )
            )
        elif from_tier != new.tier_index or old_scheme != new.profile.scheme:
            source = tiers[from_tier]
            destination = tiers[new.tier_index]
            if old is not None:
                read_gb = old.profile.compressed_gb(partition.size_gb)
            elif old_scheme == new.profile.scheme:
                read_gb = new.profile.compressed_gb(partition.size_gb)
            else:
                read_gb = partition.size_gb
            write_gb = new.profile.compressed_gb(partition.size_gb)
            cost = source.read_cost_for(read_gb) + destination.write_cost_for(write_gb)
            egress = tiers.egress_cost_per_gb(from_tier, new.tier_index) * read_gb
            penalty = 0.0
            if from_tier != new.tier_index and not (
                waive_early_deletion_tiers and from_tier in waive_early_deletion_tiers
            ):
                resident = months_in_tier.get(name, float("inf"))
                if resident < source.early_deletion_months:
                    penalty = source.storage_cost_for(
                        partition.size_gb, source.early_deletion_months - resident
                    )
            moves.append(
                (row, from_tier, new.tier_index, read_gb, cost, penalty, egress)
            )
        else:
            continue
        partition.current_tier = new.tier_index
        scheme = new.profile.scheme
        partition.current_codec = None if scheme == NO_COMPRESSION else scheme
        months_in_tier[name] = 0.0
    columns = list(zip(*moves)) or [()] * len(MoveColumns._fields)
    return MigrationReport(
        epoch,
        names=tuple(partition.name for partition in partitions),
        columns=MoveColumns(
            *(
                np.array(column, dtype=np.int64 if k < 3 else np.float64)
                for k, column in enumerate(columns)
            )
        ),
    )


def mapping_apply(
    executor: MigrationExecutor,
    partitions: Sequence[DataPartition],
    old_placement: Mapping[str, PlacementDecision] | None,
    new_placement: Mapping[str, PlacementDecision],
    months_in_tier: np.ndarray,
    epoch: int = 0,
    waive_early_deletion_tiers=None,
) -> MigrationReport:
    """Move every partition to its new placement through ``executor``'s
    column move rule (:meth:`~repro.engine.MigrationExecutor.migrate`), with
    both placements keyed by partition name, then set each moved
    partition's ``current_tier`` and ``current_codec``.

    ``old_placement`` is ``None`` for newly ingested data; a partition it
    leaves out is where its ``current_tier`` and ``current_codec`` say.
    ``months_in_tier`` holds one residency clock per partition, in
    ``partitions`` order.  Moves off ``waive_early_deletion_tiers`` skip the
    early-deletion penalty.  Raises before anything mutates when the new
    placement misses a partition or the clocks do not match the partitions.
    """
    names = tuple(partition.name for partition in partitions)
    new = PlacementColumns.from_mapping(names, new_placement)
    missing = new.unplaced()
    if missing:
        raise KeyError(f"new placement missing partitions: {missing}")
    count = len(names)
    if months_in_tier.shape != (count,):
        raise ValueError("months_in_tier needs one clock per partition")
    old = PlacementColumns.from_mapping(names, old_placement or {})
    placed = np.ones(count, dtype=bool) if old.placed is None else old.placed
    tier, scheme, schemes = old.tier.copy(), old.scheme.copy(), list(old.schemes)
    for row in np.flatnonzero(~placed).tolist():
        partition = partitions[row]
        stored = partition.current_codec or NO_COMPRESSION
        if stored not in schemes:
            schemes.append(stored)
        tier[row] = partition.current_tier
        scheme[row] = schemes.index(stored)
    old = PlacementColumns(
        names, tier, scheme, tuple(schemes), old.ratio, old.decompression_s_per_gb, {}, placed
    )
    moves = executor.migrate(
        months_in_tier,
        np.arange(count),
        np.array([partition.size_gb for partition in partitions], dtype=np.float64),
        old,
        new,
        [(0, count, waive_early_deletion_tiers)] if waive_early_deletion_tiers else (),
    )
    for row, to_tier in zip(moves.rows.tolist(), moves.to_tier.tolist()):
        stored = new.schemes[new.scheme[row]]
        partitions[row].current_tier = to_tier
        partitions[row].current_codec = None if stored == NO_COMPRESSION else stored
    report = MigrationReport(epoch, names=names, columns=moves)
    count_moves(report)
    return report


def per_name_compiled_arrays(
    simulator, arrays: PartitionArrays, placement: Mapping[str, PlacementDecision]
) -> dict[str, np.ndarray]:
    """The compiled billing vectors, read from the placement name by name."""
    costs = simulator.tiers.cost_arrays()
    count = len(arrays)
    tier_index = np.empty(count, dtype=np.int64)
    ratio = np.empty(count, dtype=np.float64)
    decompression_per_gb = np.empty(count, dtype=np.float64)
    for i, name in enumerate(arrays.names):
        decision = placement[name]
        tier_index[i] = decision.tier_index
        ratio[i] = decision.profile.ratio
        decompression_per_gb[i] = decision.profile.decompression_s_per_gb
    stored_gb = arrays.size_gb / ratio
    read_gb_uncompressed = arrays.read_gb_per_access
    decompression_s = decompression_per_gb * read_gb_uncompressed
    latency_s = decompression_s + costs["latency_s"][tier_index]
    return {
        "tier_index": tier_index,
        "stored_gb": stored_gb,
        "storage_per_month": costs["storage_cost"][tier_index] * stored_gb,
        "read_cost_per_read": costs["read_cost"][tier_index]
        * (read_gb_uncompressed / ratio),
        "decompression_cost_per_read": simulator.compute_cost_per_s * decompression_s,
        "latency_s": latency_s,
        "violates_sla": latency_s > arrays.latency_threshold_s,
    }


def per_name_constraint_changes(solver, problem: OptAssignProblem, flagged=None):
    """The delta solver's constraint, hint and forced-name checks, scanning
    every instance name against the whole cache (no gates)."""
    names = problem.partition_arrays().names
    changed = np.zeros(len(names), dtype=bool)
    for i, name in enumerate(names):
        if (
            problem._latency_slo.get(name) != solver._slo.get(name)
            or problem._provider_affinity.get(name) != solver._affinity.get(name)
            or problem._profiles[name] != solver._profiles.get(name)
            or (flagged is not None and name in flagged)
            or name in solver._forced
        ):
            changed[i] = True
    return changed
