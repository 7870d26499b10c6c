"""Per-layer numbers from one traced pass: span self time, calls, counters.

A span's self time is its duration minus the summed durations of its direct
children, found through ``SpanRecord.parent_id``.  The fleet runs without a
thread pool, so children never overlap and self times of all spans add up to
the durations of the root spans.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.obs import SpanRecord

#: Spans reported as ``<name>.self_s`` and ``<name>.calls``.
SPANS: tuple[str, ...] = (
    "fleet.window",
    "fleet.build_problem",
    "fleet.stack",
    "fleet.solve",
    "fleet.apply",
    "fleet.settle",
    "engine.policy_decision",
    "engine.build_problem",
    "engine.forecast",
    "engine.migrate",
    "engine.settle",
    "engine.ingest",
    "engine.feature_store",
    "optassign.solve",
    "optassign.batch_tensors",
    "optassign.greedy",
    "optassign.repair_pools",
    "optassign.delta_solve",
    "chaos.apply",
)

#: Counters summed over label sets, reported under the same name.
COUNTERS: tuple[str, ...] = (
    "optassign.delta.rows_resolved",
    "optassign.delta.rows_pinned",
    "optassign.repair.rounds",
    "optassign.repair.evictions",
    "migration.moves",
    "migration.moved_gb",
)

CLOSE_CAUSES: tuple[str, ...] = ("time", "count", "drift", "horizon")


def self_times(records: Iterable[SpanRecord]) -> dict[int, float]:
    """``span_id -> duration - sum of direct children's durations``."""
    records = list(records)
    children: dict[int, float] = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id] += record.duration_s
    return {
        record.span_id: record.duration_s - children[record.span_id]
        for record in records
    }


def span_profile(records: Iterable[SpanRecord]) -> dict[str, float]:
    """``<span>.self_s`` and ``<span>.calls`` for every span in :data:`SPANS`,
    plus ``spans.self_s``: the self time of every recorded span, listed or not.
    """
    records = list(records)
    own = self_times(records)
    profile = {f"{name}.{kind}": 0.0 for name in SPANS for kind in ("self_s", "calls")}
    for record in records:
        if record.name in SPANS:
            profile[f"{record.name}.self_s"] += own[record.span_id]
            profile[f"{record.name}.calls"] += 1
    profile["spans.self_s"] = sum(own.values())
    return profile


def counter_totals(metrics) -> dict[str, float]:
    """Every counter in :data:`COUNTERS`, summed across its label sets."""
    totals = {name: 0.0 for name in COUNTERS}
    for name, _labels, instrument in metrics.collect():
        if name in totals:
            totals[name] += instrument.value
    resolved = totals["optassign.delta.rows_resolved"]
    considered = resolved + totals["optassign.delta.rows_pinned"]
    totals["optassign.delta.resolve_share"] = resolved / considered if considered else 0.0
    return totals
