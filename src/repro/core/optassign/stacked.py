"""Tenant-tagged stacked OPTASSIGN problems — one solve for a whole fleet.

The fleet scheduler re-optimizes many tenants in the same epoch.  Solving N
small instances costs N × (tensor build + argmin + Python dispatch); stacking
them into *one* :class:`~repro.core.optassign.OptAssignProblem` amortises all
of that into a single vectorized pass — and, more importantly, gives the
pool-level capacity arbitration (:func:`repro.core.optassign.repair_pools`)
one global view of every partition competing for the shared budgets.

Stacking is sound because the OPTASSIGN objective is separable per partition:
with slack capacity each partition's argmin is independent of its neighbours,
so the stacked solve returns exactly the per-tenant solutions (same choices,
same tie-breaks — the scheme-union enumeration order restricted to one
partition's available schemes is the same sorted order in both).  The
per-tenant scalar path therefore stays the oracle the fleet layer is tested
against bill for bill.

Partition names are tagged ``tenant::name`` (:data:`TENANT_SEPARATOR`) so
identically-named partitions of different tenants cannot collide, and
:meth:`StackedProblem.split_placements` slices the solved assignment's
columns back into per-tenant placements by each tenant's row span.

The fleet scheduler assembles the same instance straight from its engines'
block columns (:class:`repro.engine.WindowPlan`); :meth:`StackedProblem.
stack` combines instances built one by one, and is the oracle of that
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from ...cloud import CompressionProfile, PartitionArrays, PlacementColumns
from .problem import CandidateOption, OptAssignProblem, ProfileColumns
from .result import Assignment

__all__ = ["TENANT_SEPARATOR", "StackedProblem"]

#: Separator between tenant and partition names in a stacked problem.
TENANT_SEPARATOR: str = "::"


def _check_cost_models(problems: Mapping[str, OptAssignProblem]) -> None:
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


@dataclass(frozen=True)
class StackedProblem:
    """N tenants' OPTASSIGN instances combined into one tagged problem.

    Build with :meth:`stack`; solve ``.problem`` with any solver; map the
    result back with :meth:`split_choices` / :meth:`split_placements`.
    """

    problem: OptAssignProblem
    tenants: tuple[str, ...]
    #: Per-tenant row spans ``(start, stop)`` in the stacked row order, one
    #: per entry of ``tenants`` — what the splits slice by and the sharded
    #: fleet solver aligns its shard boundaries to.
    tenant_spans: tuple[tuple[int, int], ...]
    #: Per-tenant untagged partition names, row-aligned with each span.
    tenant_names: tuple[tuple[str, ...], ...]
    #: Per-tenant validated profile tables (untagged names), whose profile
    #: objects the split placements hand out.
    tenant_profiles: tuple[Mapping[str, Mapping[str, CompressionProfile]], ...]

    @classmethod
    def stack(cls, problems: Mapping[str, OptAssignProblem]) -> "StackedProblem":
        """Combine per-tenant problems into one, tagging partition names.

        ``problems`` maps tenant names (which may not contain
        :data:`TENANT_SEPARATOR`) to their instances.  Iteration order fixes
        the stacked partition order: tenants in mapping order, each tenant's
        partitions in its own order.
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
        _check_cost_models(problems)

        # The stacked instance is assembled *columnar*: per-tenant
        # PartitionArrays are concatenated (numpy on the numeric columns,
        # tuple joins on the object columns) and the combined problem carries
        # only that view — DataPartition objects materialise lazily if a
        # scalar path ever asks.  Every sub-problem already validated its
        # partitions, profiles (the "none" scheme is present, pinned codecs
        # have profiles) and SLO / affinity maps against this same catalog,
        # and the tenant tags keep names unique across tenants, so
        # OptAssignProblem.__init__'s re-validation (and its per-partition
        # profile-table copies) is skipped.  At fleet scale this is what
        # keeps stacking overhead below the solve itself.
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
            predicted_accesses=np.concatenate(
                [a.predicted_accesses for a in per_tenant]
            ),
            latency_threshold_s=np.concatenate(
                [a.latency_threshold_s for a in per_tenant]
            ),
            current_tier=np.concatenate([a.current_tier for a in per_tenant]),
            read_fraction=np.concatenate([a.read_fraction for a in per_tenant]),
            pushdown_fraction=np.concatenate(
                [a.pushdown_fraction for a in per_tenant]
            ),
            current_codec=tuple(codecs),
            file_ids=tuple(file_ids),
        )
        # Banned tiers describe the shared catalog's state (a provider
        # outage), not any one tenant, so the union is the fleet's view;
        # in practice every sub-problem carries the same set.
        banned = frozenset().union(
            *(problem.banned_tiers for problem in problems.values())
        )
        stacked = OptAssignProblem._assemble(
            next(iter(problems.values())).cost_model,
            stacked_arrays,
            profiles,
            latency_slo,
            affinity,
            banned,
            profile_columns=_stack_profile_columns(
                [problem._profile_columns() for problem in problems.values()],
                spans,
            ),
            tier_mask=_stack_tier_masks(
                [problem._tier_mask() for problem in problems.values()],
                spans,
                banned,
            ),
        )
        return cls(
            problem=stacked,
            tenants=tuple(problems),
            tenant_spans=tuple(spans),
            tenant_names=tuple(arrays.names for arrays in per_tenant),
            tenant_profiles=tuple(problem._profiles for problem in problems.values()),
        )

    @staticmethod
    def untag(tagged_name: str) -> tuple[str, str]:
        """Split a tagged partition name back into (tenant, original name)."""
        tenant, separator, name = tagged_name.partition(TENANT_SEPARATOR)
        if not separator:
            raise ValueError(f"partition name {tagged_name!r} carries no tenant tag")
        return tenant, name

    def split_choices(
        self, assignment: Assignment
    ) -> dict[str, dict[str, CandidateOption]]:
        """Per-tenant choice maps, with original (untagged) partition names."""
        return {
            tenant: {
                name: replace(assignment.option_at(row), partition=name)
                for row, name in zip(range(start, stop), names)
            }
            for tenant, (start, stop), names in zip(
                self.tenants, self.tenant_spans, self.tenant_names
            )
        }

    def split_placements(self, assignment: Assignment) -> dict[str, PlacementColumns]:
        """Per-tenant placements ready for the engines' executors.

        Each tenant gets its row span of the assignment's columns, with the
        chosen profile's ratio and decompression gathered from the stacked
        profile columns; no per-row object is built.
        """
        placement = assignment.to_placement()
        return {
            tenant: PlacementColumns(
                names=names,
                tier=placement.tier[start:stop].copy(),
                scheme=placement.scheme[start:stop].copy(),
                schemes=placement.schemes,
                ratio=placement.ratio[start:stop].copy(),
                decompression_s_per_gb=placement.decompression_s_per_gb[
                    start:stop
                ].copy(),
                profiles=profiles,
            )
            for tenant, (start, stop), names, profiles in zip(
                self.tenants, self.tenant_spans, self.tenant_names, self.tenant_profiles
            )
        }


def _stack_profile_columns(columns, spans) -> ProfileColumns:
    """Each tenant's cached profile columns, placed onto the sorted union.

    Cells outside a tenant's own schemes keep the per-row build's defaults
    (ratio 1.0, decompression 0.0, unavailable), so the result equals what
    :meth:`OptAssignProblem._profile_columns` would compute row by row over
    the stacked profile table.
    """
    schemes = tuple(sorted({scheme for tenant in columns for scheme in tenant[0]}))
    index = {scheme: k for k, scheme in enumerate(schemes)}
    shape = (spans[-1][1], len(schemes))
    ratio = np.ones(shape, dtype=np.float64)
    decompression = np.zeros(shape, dtype=np.float64)
    available = np.zeros(shape, dtype=bool)
    for (start, stop), (own, own_ratio, own_decompression, own_available) in zip(
        spans, columns
    ):
        cols = [index[scheme] for scheme in own]
        ratio[start:stop, cols] = own_ratio
        decompression[start:stop, cols] = own_decompression
        available[start:stop, cols] = own_available
    return schemes, ratio, decompression, available


def _stack_tier_masks(masks, spans, banned: frozenset[int]) -> np.ndarray | None:
    """Each tenant's tier mask, concatenated (``None`` when no tenant has
    one); an unconstrained tenant contributes all-true rows.  The union of
    the banned tiers applies to every row, as it would to a mask built over
    the stacked constraints."""
    present = [mask for mask in masks if mask is not None]
    if not present:
        return None
    tiers = present[0].shape[1]
    mask = np.concatenate(
        [
            np.ones((stop - start, tiers), dtype=bool) if own is None else own
            for own, (start, stop) in zip(masks, spans)
        ]
    )
    if banned:
        mask[:, sorted(banned)] = False
    return mask
