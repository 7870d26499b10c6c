"""Object-at-a-time oracles for the columnar OPTASSIGN problem builds.

These are the per-row implementations the library replaced with columns:
the online engine's old problem build (one ``replace`` copy of every
partition for the horizon forecast, then a second copy per partition and a
second validated ``OptAssignProblem`` from ``with_current_placement``), the
per-row codec-pinning mask, and the per-tenant untagging split of a stacked
assignment.  The fast paths must reproduce them bit for bit
(``tests/engine/test_build_oracle.py``, ``tests/optassign/test_columnar_build.py``).
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
