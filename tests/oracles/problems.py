"""Object-at-a-time oracles for the columnar OPTASSIGN problem builds.

These are the per-row implementations the library replaced with columns:
the online engine's old problem build (one ``replace`` copy of every
partition for the horizon forecast, then a second copy per partition and a
second validated ``OptAssignProblem`` from ``with_current_placement``), the
per-row codec-pinning mask, the per-tenant untagging split of a stacked
assignment, and the carve of some rows into an instance of their own
(name, codec and file-id tuples and name-keyed profile, SLO and affinity
maps included), which the delta solver used to re-solve its changed rows
on.  The fast paths must reproduce them bit for bit
(``tests/engine/test_build_oracle.py``, ``tests/optassign/test_columnar_build.py``,
``tests/optassign/test_delta_rows.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from repro.cloud import PartitionArrays, PlacementDecision
from repro.core.optassign import OptAssignProblem, StackedProblem


def object_build_problem(
    engine, epoch: int, predicted_monthly: Mapping[str, float]
) -> OptAssignProblem:
    """The engine's problem build as it was before the columnar build."""
    config = engine.config
    horizon_partitions = [
        replace(
            partition,
            predicted_accesses=predicted_monthly[partition.name]
            * config.horizon_months,
        )
        for partition in engine._partitions
    ]
    cost_model = engine.simulator.cost_model(
        duration_months=config.horizon_months, weights=config.weights
    )
    profiles = (
        engine._profile_provider(epoch)
        if engine._profile_provider is not None
        else engine._profiles
    )
    problem = OptAssignProblem(
        horizon_partitions,
        cost_model,
        profiles,
        latency_slo_s=engine._latency_slo,
        provider_affinity=engine._provider_affinity,
        banned_tiers=engine._banned_tiers or None,
    )
    if engine.placement is not None:
        problem = problem.with_current_placement(engine.placement)
    return problem


def codec_allowed_loop(arrays: PartitionArrays, schemes: Sequence[str]) -> np.ndarray:
    """(N, K) codec-pinning mask, one row at a time."""
    allowed = np.ones((len(arrays), len(schemes)), dtype=bool)
    scheme_index = {scheme: k for k, scheme in enumerate(schemes)}
    for n, codec in enumerate(arrays.current_codec):
        if codec is None:
            continue
        allowed[n] = False
        pinned = scheme_index.get(codec)
        if pinned is not None:
            allowed[n, pinned] = True
    return allowed


def untag_split_placements(
    stacked: StackedProblem, assignment
) -> dict[str, dict[str, PlacementDecision]]:
    """Per-tenant placements by untagging every row's name."""
    split: dict[str, dict[str, PlacementDecision]] = {
        tenant: {} for tenant in stacked.tenants
    }
    for tagged, option in assignment.choices.items():
        tenant, name = StackedProblem.untag(tagged)
        split[tenant][name] = PlacementDecision(
            tier_index=option.tier_index,
            profile=stacked.problem.profile_for(tagged, option.scheme),
        )
    return split


def take_rows(arrays: PartitionArrays, rows: Sequence[int] | np.ndarray) -> PartitionArrays:
    """A row subset as a new :class:`PartitionArrays` (order preserved):
    the numeric columns fancy-indexed, the object columns gathered."""
    index = np.asarray(rows, dtype=np.int64)
    positions = index.tolist()
    return PartitionArrays(
        names=tuple(arrays.names[i] for i in positions),
        size_gb=arrays.size_gb[index],
        predicted_accesses=arrays.predicted_accesses[index],
        latency_threshold_s=arrays.latency_threshold_s[index],
        current_tier=arrays.current_tier[index],
        read_fraction=arrays.read_fraction[index],
        pushdown_fraction=arrays.pushdown_fraction[index],
        current_codec=tuple(arrays.current_codec[i] for i in positions),
        file_ids=tuple(arrays.file_ids[i] for i in positions),
    )


def carve(problem: OptAssignProblem, rows: Sequence[int] | np.ndarray) -> OptAssignProblem:
    """The given rows of ``problem`` as a standalone instance (shared
    profile tables), in row order.

    Assembled without re-validation.  Its tier mask is the rows of the
    problem's; when the problem's profile columns are cached they are
    sliced (the rows, then the schemes any carved row has), which equals
    the per-row build.  Restricted to one partition's available schemes the
    carve's smaller scheme union keeps the sorted enumeration order, so the
    greedy's tie-breaks on the carve match the full instance.
    """
    sub_arrays = take_rows(problem.partition_arrays(), rows)
    names = sub_arrays.names
    index = np.asarray(rows, dtype=np.int64)
    tier_mask = problem._tier_mask()
    if tier_mask is not None:
        tier_mask = tier_mask[index]
    columns = None
    if problem._profile_columns_cache is not None:
        schemes, ratio, decompression, available = problem._profile_columns_cache
        sub_available = available[index]
        keep = np.flatnonzero(sub_available.any(axis=0))
        columns = (
            tuple(schemes[k] for k in keep.tolist()),
            ratio[np.ix_(index, keep)],
            decompression[np.ix_(index, keep)],
            sub_available[:, keep],
        )
    return OptAssignProblem._assemble(
        problem.cost_model,
        sub_arrays,
        {name: problem._profiles[name] for name in names},
        {
            name: cap
            for name in names
            if (cap := problem._latency_slo.get(name)) is not None
        },
        {
            name: allowed
            for name in names
            if (allowed := problem._provider_affinity.get(name)) is not None
        },
        problem.banned_tiers,
        profile_columns=columns,
        tier_mask=tier_mask,
    )
