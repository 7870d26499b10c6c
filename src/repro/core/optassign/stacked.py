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
per-tenant path therefore stays the oracle the fleet layer is tested
against bill for bill.

Partition names are tagged ``tenant::name`` (:data:`TENANT_SEPARATOR`) so
identically-named partitions of different tenants cannot collide; a lone
engine's instance is the one tenant ``""``, which tags nothing.

The instance is assembled straight from the engines' block columns
(:meth:`repro.engine.WindowPlan.stack`), with each tenant's cached profile
columns and tier mask stacked by the helpers below; the per-tenant stack it
replaced lives with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import OptAssignProblem, ProfileColumns

__all__ = ["TENANT_SEPARATOR", "StackedProblem"]

#: Separator between tenant and partition names in a stacked problem.
TENANT_SEPARATOR: str = "::"


@dataclass(frozen=True)
class StackedProblem:
    """N tenants' OPTASSIGN instances combined into one tagged problem.

    Solve ``.problem`` with any solver; tenant ``tenants[i]`` owns rows
    ``tenant_spans[i]`` of it and of its solve.
    """

    problem: OptAssignProblem
    tenants: tuple[str, ...]
    #: Per-tenant row spans ``(start, stop)`` in the stacked row order, one
    #: per entry of ``tenants``.
    tenant_spans: tuple[tuple[int, int], ...]


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
