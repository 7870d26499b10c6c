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

:func:`stack` combines per-tenant instances built one by one into the
tenant-tagged :class:`~repro.core.optassign.StackedProblem` the engine's
:meth:`~repro.engine.WindowPlan.stack` assembles from block columns (the
oracle of that assembly, ``tests/fleet/test_plan_pass.py``), and
:func:`split_choices` / :func:`split_placements` map a solve of it back to
each tenant's untagged names.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from repro.cloud import PartitionArrays, PlacementColumns, PlacementDecision
from repro.core.optassign import (
    TENANT_SEPARATOR,
    Assignment,
    CandidateOption,
    OptAssignProblem,
    StackedProblem,
)
from repro.core.optassign.stacked import _stack_profile_columns, _stack_tier_masks


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


def check_cost_models(problems: Mapping[str, OptAssignProblem]) -> None:
    """All sub-problems must price placements identically for stacking to be
    the per-tenant solve: same catalog object, horizon, compute price and
    objective weights."""
    reference = None
    for tenant, problem in problems.items():
        model = problem.cost_model
        if reference is None:
            reference = (tenant, model)
            continue
        first_tenant, first = reference
        if model.tiers is not first.tiers:
            raise ValueError(
                f"tenants {first_tenant!r} and {tenant!r} use different tier "
                "catalogs; a stacked problem needs one shared catalog object"
            )
        if (
            model.duration_months != first.duration_months
            or model.compute_cost_per_s != first.compute_cost_per_s
            or model.weights != first.weights
        ):
            raise ValueError(
                f"tenants {first_tenant!r} and {tenant!r} use different cost "
                "model parameters (horizon, compute price or weights); "
                "stacked solves require identical pricing"
            )


def stack(problems: Mapping[str, OptAssignProblem]) -> StackedProblem:
    """Combine per-tenant problems into one, tagging partition names.

    ``problems`` maps tenant names (which may not contain
    :data:`TENANT_SEPARATOR`) to their instances.  Iteration order fixes
    the stacked partition order: tenants in mapping order, each tenant's
    partitions in its own order.  The instance is assembled from the
    sub-problems' columns without re-validation: every sub-problem already
    validated its partitions, profiles and SLO / affinity maps against the
    same catalog, and the tags keep names unique across tenants.
    """
    if not problems:
        raise ValueError("at least one tenant problem is required")
    for tenant in problems:
        if not tenant:
            raise ValueError("tenant names must be non-empty")
        if TENANT_SEPARATOR in tenant:
            raise ValueError(
                f"tenant name may not contain {TENANT_SEPARATOR!r}: {tenant!r}"
            )
    check_cost_models(problems)
    profiles: dict[str, dict] = {}
    latency_slo: dict[str, float] = {}
    affinity: dict[str, frozenset[str]] = {}
    names: list[str] = []
    codecs: list = []
    file_ids: list = []
    per_tenant: list[PartitionArrays] = []
    spans: list[tuple[int, int]] = []
    for tenant, problem in problems.items():
        arrays = problem.partition_arrays()
        prefix = f"{tenant}{TENANT_SEPARATOR}"
        tagged_names = [f"{prefix}{name}" for name in arrays.names]
        spans.append((len(names), len(names) + len(tagged_names)))
        names.extend(tagged_names)
        codecs.extend(arrays.current_codec)
        file_ids.extend(arrays.file_ids)
        per_tenant.append(arrays)
        tenant_profiles = problem._profiles
        for tagged, name in zip(tagged_names, arrays.names):
            profiles[tagged] = tenant_profiles[name]
        for name, cap in problem._latency_slo.items():
            latency_slo[f"{prefix}{name}"] = cap
        for name, allowed in problem._provider_affinity.items():
            affinity[f"{prefix}{name}"] = allowed
    stacked_arrays = PartitionArrays(
        names=tuple(names),
        size_gb=np.concatenate([a.size_gb for a in per_tenant]),
        predicted_accesses=np.concatenate([a.predicted_accesses for a in per_tenant]),
        latency_threshold_s=np.concatenate([a.latency_threshold_s for a in per_tenant]),
        current_tier=np.concatenate([a.current_tier for a in per_tenant]),
        read_fraction=np.concatenate([a.read_fraction for a in per_tenant]),
        pushdown_fraction=np.concatenate([a.pushdown_fraction for a in per_tenant]),
        current_codec=tuple(codecs),
        file_ids=tuple(file_ids),
    )
    # Banned tiers describe the shared catalog's state (a provider outage),
    # not any one tenant, so the union is the fleet's view.
    banned = frozenset().union(*(problem.banned_tiers for problem in problems.values()))
    stacked = OptAssignProblem._assemble(
        next(iter(problems.values())).cost_model,
        stacked_arrays,
        profiles,
        latency_slo,
        affinity,
        banned,
        profile_columns=_stack_profile_columns(
            [problem._profile_columns() for problem in problems.values()], spans
        ),
        tier_mask=_stack_tier_masks(
            [problem._tier_mask() for problem in problems.values()], spans, banned
        ),
    )
    return StackedProblem(
        problem=stacked, tenants=tuple(problems), tenant_spans=tuple(spans)
    )


def untag(tagged_name: str) -> tuple[str, str]:
    """Split a tagged partition name back into (tenant, original name)."""
    tenant, separator, name = tagged_name.partition(TENANT_SEPARATOR)
    if not separator:
        raise ValueError(f"partition name {tagged_name!r} carries no tenant tag")
    return tenant, name


def tenant_names(stacked: StackedProblem) -> list[tuple[str, ...]]:
    """Each tenant's untagged partition names, in its span's row order."""
    names = stacked.problem.partition_arrays().names
    return [
        tuple(untag(tagged)[1] for tagged in names[start:stop])
        for start, stop in stacked.tenant_spans
    ]


def split_choices(
    stacked: StackedProblem, assignment: Assignment
) -> dict[str, dict[str, CandidateOption]]:
    """Per-tenant choice maps, with original (untagged) partition names."""
    return {
        tenant: {
            name: replace(assignment.option_at(row), partition=name)
            for row, name in zip(range(start, stop), names)
        }
        for tenant, (start, stop), names in zip(
            stacked.tenants, stacked.tenant_spans, tenant_names(stacked)
        )
    }


def split_placements(
    stacked: StackedProblem, assignment: Assignment
) -> dict[str, PlacementColumns]:
    """Per-tenant placements ready for the engines' executors: each tenant's
    row span of the assignment's columns, over its untagged names and the
    stacked instance's profile tables."""
    placement = assignment.to_placement()
    tagged = stacked.problem.partition_arrays().names
    profiles = stacked.problem._profiles
    return {
        tenant: PlacementColumns(
            names=names,
            tier=placement.tier[start:stop].copy(),
            scheme=placement.scheme[start:stop].copy(),
            schemes=placement.schemes,
            ratio=placement.ratio[start:stop].copy(),
            decompression_s_per_gb=placement.decompression_s_per_gb[start:stop].copy(),
            profiles={
                name: profiles[tag] for name, tag in zip(names, tagged[start:stop])
            },
        )
        for tenant, (start, stop), names in zip(
            stacked.tenants, stacked.tenant_spans, tenant_names(stacked)
        )
    }


def untag_split_placements(
    stacked: StackedProblem, assignment
) -> dict[str, dict[str, PlacementDecision]]:
    """Per-tenant placements by untagging every row's name."""
    split: dict[str, dict[str, PlacementDecision]] = {
        tenant: {} for tenant in stacked.tenants
    }
    for tagged, option in assignment.choices.items():
        tenant, name = untag(tagged)
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
