"""The engine's external-scheduling hook ``begin_window``, stepping, and
the policy notification of a re-optimization.

The fleet scheduler calls ``begin_window`` per engine before it plans its
firing engines together, so the hook must keep its contract (validation
before billing, no state mutation, no policy consulted at bootstrap); a
step must equal ``run``; and every applied re-optimization must hand the
policy the forecast its placement was planned from.
"""

import numpy as np
import pytest

from repro.cloud import DataPartition, PlacementDecision, azure_tier_catalog
from repro.engine import (
    EngineConfig,
    EpochBatch,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
    StaticOnce,
)
from repro.workloads import DriftSegment, generate_drifting_reads

MONTHS = 10
CONFIG = EngineConfig(horizon_months=6.0, window_months=6)


@pytest.fixture
def workload():
    rng = np.random.default_rng(77)
    partitions = []
    series = {}
    for index in range(6):
        name = f"d{index}"
        segments = (
            [DriftSegment("constant", 5), DriftSegment("inactive", MONTHS - 5)]
            if index % 2
            else [DriftSegment("constant", MONTHS)]
        )
        series[name] = generate_drifting_reads(rng, segments, base_level=60.0)
        partitions.append(
            DataPartition(
                name,
                size_gb=100.0 + 40.0 * index,
                predicted_accesses=60.0,
                latency_threshold_s=7200.0,
                current_tier=0,
            )
        )
    return partitions, series


def build_engine(workload, policy):
    partitions, _ = workload
    return OnlineTieringEngine(
        partitions, azure_tier_catalog(include_premium=False), policy, CONFIG
    )


class TestHookComposition:
    def test_step_equals_run(self, workload):
        _, series = workload
        by_run = build_engine(workload, PeriodicReoptimize(3)).run(SeriesStream(series))
        engine = build_engine(workload, PeriodicReoptimize(3))
        by_step = [engine.step(batch) for batch in SeriesStream(series)]
        assert [record.bill_total for record in by_step] == [
            record.bill_total for record in by_run.records
        ]
        # Each step times itself from its own start.
        assert all(record.wall_clock_s > 0.0 for record in by_step)


class TestBeginEpoch:
    def test_validates_dense_timeline_before_anything_is_billed(self, workload):
        engine = build_engine(workload, StaticOnce())
        engine.step(EpochBatch(epoch=0, events=()))
        with pytest.raises(ValueError, match="one month at a time"):
            engine.begin_window(2)

    def test_fires_on_bootstrap_without_consulting_policy(self, workload):
        class ExplodingPolicy(StaticOnce):
            def should_reoptimize(self, epoch, observed):
                raise AssertionError("policy must not be consulted at bootstrap")

        engine = build_engine(workload, ExplodingPolicy())
        assert engine.begin_window(0) is True

    def test_does_not_advance_engine_state(self, workload):
        engine = build_engine(workload, StaticOnce())
        assert engine.begin_window(0) is True
        assert engine.begin_window(0) is True  # repeatable: nothing advanced
        assert engine.placement is None


class TestApplyAssignment:
    """The apply step of a re-optimization."""

    def test_policy_notified_with_problem_forecast(self, workload):
        captured = {}

        class RecordingPolicy(PeriodicReoptimize):
            def notify_reoptimized(self, epoch, predicted_monthly):
                super().notify_reoptimized(epoch, predicted_monthly)
                captured[epoch] = dict(predicted_monthly)

        engine = build_engine(workload, RecordingPolicy(1))
        record = engine.step(EpochBatch(epoch=0, events=()))
        assert record.reoptimized
        assert 0 in captured
        # the bootstrap forecast is the seeded prior monthly rate
        assert captured[0]["d0"] == pytest.approx(60.0)
        assert engine.last_applied_forecast is not None
        assert dict(engine.last_applied_forecast) == captured[0]


class TestTierUsage:
    def test_zeros_before_first_placement(self, workload):
        engine = build_engine(workload, StaticOnce())
        assert engine.tier_usage_gb().tolist() == [0.0, 0.0, 0.0]

    def test_tracks_stored_gb_after_placement(self, workload):
        partitions, series = workload
        engine = build_engine(workload, StaticOnce())
        engine.step(EpochBatch(epoch=0, events=()))
        usage = engine.tier_usage_gb()
        assert usage.sum() == pytest.approx(
            sum(partition.size_gb for partition in partitions)
        )


class TestPlacementSetter:
    def test_a_tier_the_catalog_lacks_is_rejected(self, workload):
        """The setter checks each placed row's tier against the catalog and
        raises, naming the partition and the tier, with nothing written."""
        engine = build_engine(workload, StaticOnce())
        with pytest.raises(ValueError, match="partition 'd0' is placed on tier 99"):
            engine.placement = {"d0": PlacementDecision(99)}
        assert engine.placement is None
        engine.step(EpochBatch(epoch=0, events=()))
        placed, usage = dict(engine.placement), engine.tier_usage_gb()
        bad = {**placed, "d3": PlacementDecision(3)}
        with pytest.raises(ValueError, match="partition 'd3' is placed on tier 3"):
            engine.placement = bad
        assert dict(engine.placement) == placed
        assert engine.tier_usage_gb().tolist() == usage.tolist()
