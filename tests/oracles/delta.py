"""The name-keyed delta hints the row hints replaced.

A drift policy's hint used to be a set of partition names
(:func:`drifted_names`); a fleet tagged every firing tenant's names with
the tenant and kept those its stacked instance holds
(:func:`fleet_hint_names`), and the delta solver mapped the names back to
rows.  The library now passes rows all the way
(``DriftTriggered.drifted_rows``, ``repro.engine.solve_stacked``), pinned
against these in ``tests/optassign/test_delta_rows.py``.
"""

from __future__ import annotations

from repro.core.optassign import TENANT_SEPARATOR


def drifted_names(policy, threshold: float) -> set[str] | None:
    """The partitions whose last scored drift is above ``threshold``, or
    ``None`` before the policy has per-partition scores."""
    scores = getattr(policy, "last_partition_scores", None)
    if not scores:
        return None
    return {name for name, score in scores.items() if score > threshold}


def fleet_hint_names(scheduler, stacked, threshold: float) -> set[str]:
    """The fleet's hint for ``stacked``: each firing tenant's drifted names,
    tenant-tagged, kept where the stacked instance has them."""
    changed: set[str] = set()
    for name in stacked.tenants:
        hint = drifted_names(scheduler.engines[name].policy, threshold)
        if hint:
            changed.update(f"{name}{TENANT_SEPARATOR}{partition}" for partition in hint)
    if changed:
        rows = stacked.problem.partition_arrays().row_index()
        changed = {name for name in changed if name in rows}
    return changed


def row_hint_names(policy, threshold: float) -> set[str] | None:
    """The names of the rows ``policy.drifted_rows(threshold)`` flags (its
    rows index the names of the policy's last scores), to compare with
    :func:`drifted_names`."""
    rows = policy.drifted_rows(threshold)
    if rows is None:
        return None
    names = policy.last_partition_scores.names
    return {names[row] for row in rows.tolist()}
