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
(:meth:`repro.engine.WindowPlan.stack`): a block keeps its engines'
profile columns laid on a block-wide scheme axis (:func:`place_profile_columns`,
when an engine's validated parts change), the plan lays the firing rows
onto the instance's axis with the same helper, and each tenant's cached
tier mask is stacked by :func:`_stack_tier_masks`.  The per-tenant stack it
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


def place_profile_columns(
    columns: ProfileColumns, rows: np.ndarray, schemes: tuple[str, ...]
) -> ProfileColumns:
    """Rows ``rows`` of ``columns`` — profile columns over their own scheme
    axis — laid onto the sorted scheme axis ``schemes``.

    A scheme the columns lack reads the per-row build's defaults (ratio
    1.0, decompression 0.0, unavailable), so the rows read what
    :meth:`OptAssignProblem._profile_columns` computes row by row over
    ``schemes``; a scheme off ``schemes`` is dropped, which callers do only
    for a scheme none of the rows has.  A settle block lays each engine's
    validated columns onto its block-wide axis this way (and its own
    columns onto a grown axis), and a plan lays its block's firing rows
    onto the instance's axis.
    """
    own, *laid = columns
    laid = [column.take(rows, axis=0) for column in laid]
    if own == schemes:
        return (schemes, *laid)
    position = {scheme: k for k, scheme in enumerate(own)}
    present = [k for k, scheme in enumerate(schemes) if scheme in position]
    source = [position[schemes[k]] for k in present]
    placed = default_profile_columns(schemes, len(laid[0]))
    for column, values in zip(placed[1:], laid):
        column[:, present] = values[:, source]
    return placed


def default_profile_columns(schemes: tuple[str, ...], count: int) -> ProfileColumns:
    """``count`` rows of profile columns over ``schemes`` with no profile
    anywhere: ratio 1.0, decompression 0.0, unavailable."""
    shape = (count, len(schemes))
    return (
        schemes,
        np.ones(shape, dtype=np.float64),
        np.zeros(shape, dtype=np.float64),
        np.zeros(shape, dtype=bool),
    )


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
