"""The engine's external-scheduling hooks (begin_window / build_problem /
apply_assignment / settle_window) and their equivalence to run().

The fleet scheduler replaces the per-engine solve with a stacked one by
calling ``begin_window`` directly, so the hooks' composition over
month-aligned windows must reproduce ``run`` exactly and each hook must keep
its contract (validation before billing, no state mutation in
``begin_window``, policy notification on apply).
"""

import numpy as np
import pytest

from repro.cloud import DataPartition, azure_tier_catalog
from repro.core.optassign import solve_optassign
from repro.engine import (
    DriftTriggered,
    EngineConfig,
    EpochBatch,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
    StaticOnce,
    month_window,
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
    def test_manual_hooks_reproduce_run(self, workload):
        partitions, series = workload
        reference = build_engine(workload, DriftTriggered(threshold=0.3)).run(
            SeriesStream(series)
        )

        engine = build_engine(workload, DriftTriggered(threshold=0.3))
        records = []
        for batch in SeriesStream(series):
            window = month_window(batch)
            migration = None
            reoptimized = False
            if engine.begin_window(window.index):
                problem = engine.build_problem(window.index)
                solved = solve_optassign(problem)
                migration = engine.apply_assignment(
                    window.index, solved.assignment.to_placement()
                )
                reoptimized = True
            records.append(
                engine.settle_window(
                    window, migration=migration, reoptimized=reoptimized
                )
            )

        assert len(records) == len(reference.records)
        for mine, theirs in zip(records, reference.records):
            assert mine.reoptimized == theirs.reoptimized
            assert mine.storage_cost == theirs.storage_cost
            assert mine.read_cost == theirs.read_cost
            assert mine.decompression_cost == theirs.decompression_cost
            assert mine.migration_cost == theirs.migration_cost
            assert mine.moved_gb == theirs.moved_gb

    def test_step_equals_run(self, workload):
        _, series = workload
        by_run = build_engine(workload, PeriodicReoptimize(3)).run(SeriesStream(series))
        engine = build_engine(workload, PeriodicReoptimize(3))
        by_step = [engine.step(batch) for batch in SeriesStream(series)]
        assert [record.bill_total for record in by_step] == [
            record.bill_total for record in by_run.records
        ]


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


class TestSettle:
    def test_settle_validates_epoch_too(self, workload):
        _, series = workload
        engine = build_engine(workload, StaticOnce())
        engine.step(EpochBatch(epoch=0, events=()))
        with pytest.raises(ValueError, match="one month at a time"):
            engine.settle_window(month_window(EpochBatch(epoch=5, events=())))

    def test_wall_clock_zero_without_started(self, workload):
        engine = build_engine(workload, StaticOnce())
        record = engine.step(EpochBatch(epoch=0, events=()))
        assert record.wall_clock_s > 0.0  # step passes its own start time
        record = engine.settle_window(month_window(EpochBatch(epoch=1, events=())))
        assert record.wall_clock_s == 0.0


class TestApplyAssignment:
    def test_requires_a_preceding_build_problem(self, workload):
        engine = build_engine(workload, PeriodicReoptimize(1))
        assert engine.begin_window(0)
        problem = engine.build_problem(0)
        placement = solve_optassign(problem).assignment.to_placement()
        engine.apply_assignment(0, placement)
        # The forecast was consumed: re-applying without a fresh
        # build_problem would notify the policy with a stale baseline.
        with pytest.raises(ValueError, match="preceding build_problem"):
            engine.apply_assignment(0, placement)

    def test_policy_notified_with_problem_forecast(self, workload):
        captured = {}

        class RecordingPolicy(PeriodicReoptimize):
            def notify_reoptimized(self, epoch, predicted_monthly):
                super().notify_reoptimized(epoch, predicted_monthly)
                captured[epoch] = dict(predicted_monthly)

        engine = build_engine(workload, RecordingPolicy(1))
        assert engine.begin_window(0)
        problem = engine.build_problem(0)
        solved = solve_optassign(problem)
        engine.apply_assignment(0, solved.assignment.to_placement())
        assert 0 in captured
        # the bootstrap forecast is the seeded prior monthly rate
        assert captured[0]["d0"] == pytest.approx(60.0)


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
