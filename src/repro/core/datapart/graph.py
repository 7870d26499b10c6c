"""The overlap graph used by G-PART (Fig. 6c of the paper).

Every initial partition is a node; an edge connects two partitions whose file
sets overlap, weighted by the *fractional overlap*
``w = Ov(u, v) / Sp(u ∪ v)`` (1.0 = identical file sets, no edge when the
overlap is zero).  Merging two nodes collapses them into a meta-vertex and
re-derives the edges incident to it, which is exactly what the greedy
algorithm does through its heap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .partitions import FileUniverse, InitialPartition, Merge, MergeConstraints

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["fractional_overlap", "build_overlap_graph", "merge_statistics"]


def fractional_overlap(
    first: InitialPartition | Merge,
    second: InitialPartition | Merge,
    universe: FileUniverse,
) -> float:
    """``Ov(u, v) / Sp(u ∪ v)`` — 0 when disjoint, 1 when identical."""
    union = first.file_ids | second.file_ids
    union_span = universe.records_of(union)
    if union_span == 0:
        return 0.0
    first_span = universe.records_of(first.file_ids)
    second_span = universe.records_of(second.file_ids)
    overlap = first_span + second_span - union_span
    return overlap / union_span


def build_overlap_graph(
    partitions: Sequence[InitialPartition],
    universe: FileUniverse,
    constraints: MergeConstraints | None = None,
) -> nx.Graph:
    """The weighted overlap graph over ``partitions``.

    Nodes carry the partition object (attribute ``"partition"``); edges carry
    the fractional overlap (attribute ``"weight"``) and a ``"feasible"`` flag
    evaluated against ``constraints`` (always True when no constraints are
    given).  Zero-overlap pairs get no edge.
    """
    # Imported here: networkx adds ~18 MB of resident memory, which only
    # callers that build an overlap graph should pay.
    import networkx as nx

    graph = nx.Graph()
    for partition in partitions:
        graph.add_node(partition.name, partition=partition)
    names = [partition.name for partition in partitions]
    if len(set(names)) != len(names):
        raise ValueError("partition names must be unique")
    for index, first in enumerate(partitions):
        for second in partitions[index + 1 :]:
            weight = fractional_overlap(first, second, universe)
            if weight <= 0.0:
                continue
            feasible = (
                constraints.pair_feasible(first, second) if constraints else True
            )
            graph.add_edge(first.name, second.name, weight=weight, feasible=feasible)
    return graph


def merge_statistics(
    merges: Sequence[Merge], universe: FileUniverse
) -> dict[str, float]:
    """Aggregate statistics of a merging solution (used by Fig. 7 reproductions)."""
    if not merges:
        return {
            "num_partitions": 0.0,
            "total_span": 0.0,
            "total_cost": 0.0,
            "distinct_records": 0.0,
        }
    distinct_files: set[str] = set()
    for merge in merges:
        distinct_files |= merge.file_ids
    return {
        "num_partitions": float(len(merges)),
        "total_span": float(sum(merge.span for merge in merges)),
        "total_cost": float(sum(merge.cost for merge in merges)),
        "distinct_records": float(universe.records_of(distinct_files)),
    }
