"""A lone engine's planned instance against the object build it replaced.

A lone engine plans through a one-member :class:`~repro.engine.WindowPlan`
over its block of one: ``forecast`` then ``stack().problem`` assembles the
warm-started, untagged OPTASSIGN instance as columns over the block and
reuses the validated constraint state between plans.  The oracle
(``tests/oracles/problems.py``) copies every partition twice and validates two
problems per build.  Both must agree bit for bit — every array column, the
profile / SLO / affinity / banned-tier state and every ``batch_tensors()``
array — across bootstrap and warm starts, pre-compressed partitions, chaos
affinity lifts and bans, a profile provider and direct SLO edits.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cloud import (
    CompressionProfile,
    DataPartition,
    PlacementDecision,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.engine import (
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
)
from oracles.plan import lone_problem, reference_forecast
from oracles.problems import object_build_problem

MONTHS = 4
NUMERIC_COLUMNS = (
    "size_gb",
    "predicted_accesses",
    "latency_threshold_s",
    "current_tier",
    "read_fraction",
    "pushdown_fraction",
)


def assert_bit_identical(left, right) -> None:
    def same(x: np.ndarray, y: np.ndarray, what: str) -> None:
        assert x.dtype == y.dtype and x.shape == y.shape, what
        assert x.tobytes() == y.tobytes(), what

    a, b = left.partition_arrays(), right.partition_arrays()
    assert a.names == b.names
    for column in NUMERIC_COLUMNS:
        same(getattr(a, column), getattr(b, column), column)
    assert a.current_codec == b.current_codec
    assert a.file_ids == b.file_ids
    assert left._profiles == right._profiles
    assert left._latency_slo == right._latency_slo
    assert left._provider_affinity == right._provider_affinity
    assert left.banned_tiers == right.banned_tiers
    left_columns, right_columns = left._profile_columns(), right._profile_columns()
    assert left_columns[0] == right_columns[0]
    for x, y in zip(left_columns[1:], right_columns[1:]):
        same(x, y, "profile columns")
    left_tensors, right_tensors = left.batch_tensors(), right.batch_tensors()
    for field in dataclasses.fields(left_tensors):
        x = getattr(left_tensors, field.name)
        y = getattr(right_tensors, field.name)
        if isinstance(x, np.ndarray):
            same(x, y, field.name)
        else:
            assert x == y, field.name


def make_partitions(precompressed: bool = False) -> list[DataPartition]:
    rates = (300.0, 40.0, 2.0, 0.5, 80.0, 0.0, 12.0, 150.0)
    partitions = []
    for i, rate in enumerate(rates):
        partitions.append(
            DataPartition(
                name=f"p{i}",
                size_gb=20.0 + 13.5 * i,
                predicted_accesses=rate,
                latency_threshold_s=(7200.0, 60.0, float("inf"))[i % 3],
                current_tier=(i % 3) - 1 if precompressed else -1,
                current_codec=("gzip" if precompressed and i % 2 else None),
                read_fraction=(1.0, 0.25, 0.6)[i % 3],
                pushdown_fraction=(0.0, 0.3)[i % 2],
            )
        )
    return partitions


def make_profiles(partitions, scale: float = 1.0) -> dict:
    profiles = {}
    for i, partition in enumerate(partitions):
        table = {
            "gzip": CompressionProfile(
                "gzip", ratio=3.0 * scale + 0.1 * i, decompression_s_per_gb=1.5
            )
        }
        if i % 3 == 0:
            table["lz4"] = CompressionProfile(
                "lz4", ratio=2.0 * scale, decompression_s_per_gb=0.4
            )
        profiles[partition.name] = table
    return profiles


def series_for(partitions) -> dict[str, list[float]]:
    return {
        partition.name: [
            partition.predicted_accesses * (1.0 + 0.5 * (month % 2))
            for month in range(MONTHS)
        ]
        for partition in partitions
    }


def make_engine(partitions=None, tiers=None, **kwargs) -> OnlineTieringEngine:
    partitions = partitions if partitions is not None else make_partitions()
    kwargs.setdefault("profiles", make_profiles(partitions))
    return OnlineTieringEngine(
        partitions,
        tiers if tiers is not None else azure_tier_catalog(),
        PeriodicReoptimize(1),
        config=EngineConfig(horizon_months=6.0, window_months=3),
        **kwargs,
    )


def check_build(engine: OnlineTieringEngine, epoch: int):
    """Plan through the engine, then build through the oracle with the same
    forecast."""
    fast = lone_problem(engine, epoch)
    oracle = object_build_problem(engine, epoch, engine._pending_forecast)
    assert_bit_identical(fast, oracle)
    return fast


def run_epochs(engine: OnlineTieringEngine, partitions, count: int) -> None:
    for batch in list(SeriesStream(series_for(partitions), num_epochs=count)):
        engine.step(batch)


class TestColumnarBuildMatchesObjectBuild:
    def test_bootstrap_build_without_a_placement(self):
        engine = make_engine()
        assert engine.placement is None
        check_build(engine, 0)

    def test_warm_start_after_migrations(self):
        partitions = make_partitions()
        engine = make_engine(partitions)
        run_epochs(engine, partitions, 3)
        assert engine.placement is not None
        problem = check_build(engine, 3)
        tiers = [engine.placement[name].tier_index for name in problem.partition_names]
        assert problem.partition_arrays().current_tier.tolist() == tiers

    def test_placement_tier_wins_over_the_partition_tier(self):
        # The placement is where the data lives; a partition missing from it
        # keeps its own tier.
        partitions = make_partitions(precompressed=True)
        engine = make_engine(partitions)
        engine.placement = {
            name: PlacementDecision(tier_index=2) for name in ("p0", "p3", "p4")
        }
        problem = check_build(engine, 0)
        assert problem.partition_arrays().current_tier.tolist() == [
            2, 0, 1, 2, 2, 1, -1, 0
        ]

    def test_precompressed_partitions(self):
        partitions = make_partitions(precompressed=True)
        engine = make_engine(partitions)
        problem = check_build(engine, 0)
        assert "gzip" in problem.partition_arrays().current_codec
        run_epochs(engine, partitions, 2)
        check_build(engine, 2)

    def test_without_profiles(self):
        partitions = make_partitions()
        engine = make_engine(partitions, profiles=None)
        check_build(engine, 0)
        run_epochs(engine, partitions, 2)
        check_build(engine, 2)

    def test_unchanged_constraints_reuse_the_validated_state(self):
        partitions = make_partitions()
        engine = make_engine(partitions)
        check_build(engine, 0)
        first = engine._lone_block()._parts[0]
        check_build(engine, 0)
        second = engine._lone_block()._parts[0]
        # The plans stack the same validated profile table and columns.
        assert second[0] is first[0]
        assert second[4] is first[4]


class TestConstraintChangesRevalidate:
    def multi_cloud_engine(self):
        partitions = make_partitions()
        catalog = multi_cloud_catalog()
        engine = make_engine(
            partitions,
            tiers=catalog,
            provider_affinity={"p0": "azure_blob", "p2": ("aws_s3", "gcp_gcs")},
            latency_slo_s={"p4": 0.5},
        )
        run_epochs(engine, partitions, 2)
        return engine, catalog

    def test_chaos_lifted_and_restored_affinity(self):
        engine, catalog = self.multi_cloud_engine()
        check_build(engine, 2)
        engine.set_banned_tiers(catalog.tier_indices_of("azure_blob"))
        assert engine.lift_provider_affinity(["p0"]) == ["p0"]
        lifted = check_build(engine, 2)
        assert lifted.providers_allowed_for("p0") is None
        assert lifted.banned_tiers
        assert engine.restore_provider_affinity() == ["p0"]
        engine.set_banned_tiers(())
        restored = check_build(engine, 2)
        assert restored.providers_allowed_for("p0") == frozenset({"azure_blob"})
        assert not restored.banned_tiers

    def test_banned_tiers(self):
        partitions = make_partitions()
        engine = make_engine(partitions)
        run_epochs(engine, partitions, 1)
        check_build(engine, 1)
        engine.set_banned_tiers([0, 2])
        assert check_build(engine, 1).banned_tiers == frozenset({0, 2})
        engine.set_banned_tiers([])
        assert check_build(engine, 1).banned_tiers == frozenset()

    def test_in_place_affinity_edit(self):
        engine, _ = self.multi_cloud_engine()
        check_build(engine, 2)
        engine._provider_affinity["p5"] = "gcp_gcs"
        assert check_build(engine, 2).providers_allowed_for("p5") == frozenset(
            {"gcp_gcs"}
        )

    def test_direct_slo_writes(self):
        partitions = make_partitions()
        engine = make_engine(partitions)
        run_epochs(engine, partitions, 1)
        check_build(engine, 1)
        engine._latency_slo = {"p0": 0.5}
        assert check_build(engine, 1).slo_cap_for("p0") == 0.5
        engine._latency_slo["p1"] = 7200.0
        assert check_build(engine, 1).slo_cap_for("p1") == 7200.0
        engine._latency_slo = None
        assert check_build(engine, 1).slo_cap_for("p0") is None

    def test_profile_provider_tables(self):
        partitions = make_partitions(precompressed=True)
        tables = [make_profiles(partitions), make_profiles(partitions, scale=1.7)]
        engine = make_engine(
            partitions, profiles=None, profile_provider=lambda epoch: tables[epoch % 2]
        )
        first = check_build(engine, 0)
        second = check_build(engine, 1)
        assert first._profiles != second._profiles
        # An in-place edit of the table the provider just handed out.
        tables[1]["p3"]["gzip"] = CompressionProfile(
            "gzip", ratio=9.0, decompression_s_per_gb=3.0
        )
        assert check_build(engine, 3).profile_for("p3", "gzip").ratio == 9.0

    def test_in_place_edit_of_the_static_profile_table(self):
        partitions = make_partitions()
        profiles = make_profiles(partitions)
        engine = make_engine(partitions, profiles=profiles)
        check_build(engine, 0)
        profiles["p1"]["lz4"] = CompressionProfile(
            "lz4", ratio=5.0, decompression_s_per_gb=0.1
        )
        assert "lz4" in check_build(engine, 0).schemes_for(partitions[1])


class TestBuildErrors:
    def test_pinned_codec_without_profile_on_a_refreshed_table(self):
        partitions = make_partitions(precompressed=True)
        valid = make_profiles(partitions)
        missing = {name: {} for name in valid}
        engine = make_engine(
            partitions,
            profiles=None,
            profile_provider=lambda epoch: valid if epoch == 0 else missing,
        )
        check_build(engine, 0)
        with pytest.raises(ValueError, match="pinned to codec"):
            lone_problem(engine, 1)
        with pytest.raises(ValueError, match="pinned to codec"):
            object_build_problem(engine, 1, reference_forecast(engine, 1))

    def test_pinned_codec_without_profile_on_the_reused_state(self):
        partitions = make_partitions()
        engine = make_engine(partitions)
        run_epochs(engine, partitions, 1)
        check_build(engine, 1)
        # A placement handed back through the setter pins each placed row to
        # its scheme, as an applied move would: a scheme the engine's
        # profiles lack cannot be planned from.
        placement = dict(engine.placement)
        placement["p2"] = PlacementDecision(
            placement["p2"].tier_index,
            CompressionProfile("zstd", ratio=4.0, decompression_s_per_gb=0.5),
        )
        engine.placement = placement
        with pytest.raises(ValueError, match="pinned to codec 'zstd'"):
            lone_problem(engine, 1)
        with pytest.raises(ValueError, match="pinned to codec 'zstd'"):
            object_build_problem(engine, 1, reference_forecast(engine, 1))

    def test_negative_forecast_rejected(self):
        engine = make_engine()
        forecast = dict(reference_forecast(engine, 0))
        forecast["p1"] = -1.0
        engine._lone_block().forecast = lambda epoch, ks, rows: np.array(
            [forecast[name] for name in engine._arrays.names]
        )
        with pytest.raises(ValueError, match="non-negative"):
            lone_problem(engine, 0)
        with pytest.raises(ValueError, match="non-negative"):
            object_build_problem(engine, 0, forecast)
