"""Columnar placements through the executor and the compiled billing step.

``MigrationExecutor.migrate`` finds moved rows with one vectorized compare
(placements handed to it keyed by name through ``mapping_apply``) and
``CompiledPlacement`` reads the placement columns; both must reproduce the
per-partition scan and the per-name build in ``tests/oracles/results.py``
bit for bit, whatever form the placements arrive in (dicts, partial dicts,
columns from a solve).
"""

from __future__ import annotations

import copy
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CloudStorageSimulator,
    CompressionProfile,
    DataPartition,
    NO_COMPRESSION_PROFILE,
    PartitionArrays,
    PlacementColumns,
    PlacementDecision,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.engine import MigrationExecutor
from oracles.results import mapping_apply, per_name_compiled_arrays, scan_apply

CATALOGS = {"azure": azure_tier_catalog(), "multi": multi_cloud_catalog()}


def record_bits(record) -> tuple:
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else (type(value), value)
        for value in astuple(record)
    )


@st.composite
def placement_case(draw):
    catalog_name = draw(st.sampled_from(sorted(CATALOGS)))
    tiers = len(CATALOGS[catalog_name])
    count = draw(st.integers(1, 12))
    names = [f"p{i}" for i in range(count)]
    profiles = {
        name: {
            "none": NO_COMPRESSION_PROFILE,
            "gzip": CompressionProfile("gzip", draw(st.sampled_from([2, 3.5, 5.25])), 0.5),
            "snappy": CompressionProfile("snappy", draw(st.floats(1.1, 3.0)), 0.1),
        }
        for name in names
    }
    partitions = [
        DataPartition(
            name,
            size_gb=draw(st.sampled_from([7, 10.0, 123.456])),
            predicted_accesses=1.0,
            latency_threshold_s=draw(st.sampled_from([0.01, 60.0, float("inf")])),
            current_tier=draw(st.integers(-1, tiers - 1)),
            current_codec=draw(st.sampled_from([None, "gzip", "snappy", "none"])),
            read_fraction=draw(st.floats(0.1, 1.0)),
        )
        for name in names
    ]

    def decisions(which):
        return {
            name: PlacementDecision(
                tier_index=draw(st.integers(0, tiers - 1)),
                profile=profiles[name][draw(st.sampled_from(["none", "gzip", "snappy"]))],
            )
            for name in which
        }

    old_kind = draw(st.sampled_from(["none", "full", "partial", "columns"]))
    old = None
    if old_kind == "partial":
        old = decisions([n for n in names if draw(st.booleans())])
    elif old_kind != "none":
        old = decisions(names)
    if old_kind == "columns":
        old = PlacementColumns.from_mapping(names, old)
    new = decisions(names)
    if draw(st.booleans()):
        new = PlacementColumns.from_mapping(names, new)
    months = {
        name: draw(st.sampled_from([0.0, 0.5, 2.0, 12.0]))
        for name in names
        if draw(st.booleans())
    }
    waive = draw(st.sampled_from([None, frozenset(), frozenset({0}), frozenset({1, 3})]))
    return catalog_name, partitions, old, new, months, waive


class TestExecutorColumns:
    @settings(max_examples=150, deadline=None)
    @given(case=placement_case(), epoch=st.integers(0, 5))
    def test_apply_equals_the_per_partition_scan(self, case, epoch):
        catalog_name, partitions, old, new, months, waive = case
        tiers = CATALOGS[catalog_name]
        want_partitions = copy.deepcopy(partitions)
        want_months = dict(months)
        clocks = np.array([months.get(p.name, float("inf")) for p in partitions])
        want = scan_apply(
            tiers,
            want_partitions,
            None if old is None else dict(old),
            dict(new),
            want_months,
            epoch=epoch,
            waive_early_deletion_tiers=waive,
        )
        got = mapping_apply(
            MigrationExecutor(tiers),
            partitions,
            old,
            new,
            clocks,
            epoch=epoch,
            waive_early_deletion_tiers=waive,
        )
        assert got.epoch == want.epoch
        assert [record_bits(m) for m in got.moves] == [record_bits(m) for m in want.moves]
        assert [(p.current_tier, p.current_codec) for p in partitions] == [
            (p.current_tier, p.current_codec) for p in want_partitions
        ]
        assert clocks.tolist() == [
            want_months.get(p.name, float("inf")) for p in want_partitions
        ]

    def test_missing_rows_raise_before_any_mutation(self):
        partitions = [DataPartition("a", size_gb=1.0, predicted_accesses=1.0),
                      DataPartition("b", size_gb=1.0, predicted_accesses=1.0)]
        months = np.array([3.0, 4.0])
        with pytest.raises(KeyError, match="new placement missing partitions"):
            mapping_apply(
                MigrationExecutor(azure_tier_catalog()),
                partitions,
                None,
                {"a": PlacementDecision(0)},
                months,
            )
        assert [p.current_tier for p in partitions] == [-1, -1]
        assert months.tolist() == [3.0, 4.0]


class TestCompiledColumns:
    @settings(max_examples=60, deadline=None)
    @given(case=placement_case())
    def test_compiled_arrays_equal_the_per_name_build(self, case):
        catalog_name, partitions, _, new, _, _ = case
        simulator = CloudStorageSimulator(CATALOGS[catalog_name])
        arrays = PartitionArrays.from_partitions(partitions)
        want = per_name_compiled_arrays(simulator, arrays, dict(new))
        for placement in (new, dict(new)):
            compiled = simulator.compile_placement(arrays, placement)
            for key, column in want.items():
                got = getattr(compiled, key)
                assert got.dtype == column.dtype and got.tobytes() == column.tobytes()

    def test_a_partial_placement_cannot_compile(self):
        partitions = [DataPartition("a", size_gb=1.0, predicted_accesses=1.0),
                      DataPartition("b", size_gb=1.0, predicted_accesses=1.0)]
        simulator = CloudStorageSimulator(azure_tier_catalog())
        with pytest.raises(KeyError, match=r"placement missing partitions: \['b'\]"):
            simulator.compile_placement(partitions, {"a": PlacementDecision(1)})


class TestPlacementColumnsMapping:
    def test_partial_mapping_round_trips(self):
        gzip = CompressionProfile("gzip", 3.0, 0.5)
        placement = {"b": PlacementDecision(2, gzip), "d": PlacementDecision(0)}
        columns = PlacementColumns.from_mapping(("a", "b", "c", "d"), placement)
        assert columns == placement
        assert list(columns) == ["b", "d"] and len(columns) == 2
        assert "a" not in columns and columns.get("a") is None
        assert columns["b"].profile is gzip
        assert columns.unplaced() == ["a", "c"]

    def test_columns_in_row_order_pass_through(self):
        columns = PlacementColumns.from_mapping(("x",), {"x": PlacementDecision(1)})
        assert PlacementColumns.from_mapping(("x",), columns) is columns
        reordered = PlacementColumns.from_mapping(("y", "x"), columns)
        assert reordered.unplaced() == ["y"] and reordered["x"] == columns["x"]
