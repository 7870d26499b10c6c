"""Policy trigger logic: StaticOnce, PeriodicReoptimize, DriftTriggered."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles.delta import row_hint_names
from repro.engine import (
    DriftTriggered,
    PeriodicReoptimize,
    RateColumns,
    StaticOnce,
    drift_score,
    partition_drift_scores,
)

POLICIES = str(
    Path(__file__).resolve().parents[2] / "src" / "repro" / "engine" / "policies.py"
)


class TestStaticOnce:
    def test_fires_exactly_once(self):
        policy = StaticOnce()
        assert policy.should_reoptimize(0, None)
        policy.notify_reoptimized(0, {"a": 1.0})
        assert not policy.should_reoptimize(1, {"a": 100.0})
        assert not policy.should_reoptimize(50, {"a": 0.0})


class TestPeriodicReoptimize:
    def test_fires_every_k_epochs(self):
        policy = PeriodicReoptimize(period_months=3)
        fired = []
        for epoch in range(10):
            if policy.should_reoptimize(epoch, {}):
                policy.notify_reoptimized(epoch, {})
                fired.append(epoch)
        assert fired == [0, 3, 6, 9]

    def test_rejects_nonpositive_period(self):
        # NaN fails every comparison; accepted, it would fire only at bootstrap.
        for period in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="period_months must be positive"):
                PeriodicReoptimize(period)


class TestDriftScore:
    def test_zero_when_observation_matches_prediction(self):
        predicted = {"a": 10.0, "b": 5.0}
        assert drift_score(predicted, {"a": 10.0, "b": 5.0}) == pytest.approx(0.0)

    def test_scale_invariant_shape_but_volume_sensitive(self):
        predicted = {"a": 10.0, "b": 10.0}
        # Same shape, doubled volume: shape term 0, volume term 0.5.
        assert drift_score(predicted, {"a": 20.0, "b": 20.0}) == pytest.approx(0.5)

    def test_disjoint_support_scores_one(self):
        assert drift_score({"a": 10.0}, {"b": 10.0}) == pytest.approx(1.0)

    def test_silence_vs_activity_scores_one(self):
        assert drift_score({"a": 10.0}, {}) == 1.0
        assert drift_score({}, {"a": 10.0}) == 1.0
        assert drift_score({}, {}) == 0.0

    def test_score_does_not_depend_on_the_hash_seed(self):
        # Summing over a set of names would follow the string hash seed, and
        # float sums follow their order: one input, one score, every process.
        # The module has no package dependencies: load it alone, skipping
        # the package import in each child process.
        script = (
            "import importlib.util, sys\n"
            "import numpy as np\n"
            "spec = importlib.util.spec_from_file_location('policies', sys.argv[1])\n"
            "policies = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(policies)\n"
            "rng = np.random.default_rng(5)\n"
            "names = [f'part-{i}' for i in range(60)]\n"
            "predicted = {n: float(v) for n, v in zip(names[:45], rng.random(45))}\n"
            "observed = {n: float(v) for n, v in zip(names[15:], rng.random(45))}\n"
            "print(repr(policies.drift_score(predicted, observed)))\n"
        )
        scores = set()
        for hash_seed in ("1", "2", "3"):
            result = subprocess.run(
                [sys.executable, "-c", script, POLICIES],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                check=True,
            )
            scores.add(result.stdout.strip())
        assert len(scores) == 1


class TestDriftTriggered:
    def test_bootstrap_fires_then_quiet_under_matching_traffic(self):
        policy = DriftTriggered(threshold=0.4)
        assert policy.should_reoptimize(0, None)
        policy.notify_reoptimized(0, {"a": 10.0, "b": 1.0})
        for epoch in range(1, 6):
            assert not policy.should_reoptimize(epoch, {"a": 10.0, "b": 1.0})

    def test_fires_on_distribution_flip(self):
        policy = DriftTriggered(threshold=0.4)
        policy.notify_reoptimized(0, {"a": 10.0, "b": 0.5})
        assert policy.should_reoptimize(3, {"a": 0.2, "b": 12.0})
        assert policy.last_score > 0.4

    def test_min_gap_suppresses_thrashing(self):
        policy = DriftTriggered(threshold=0.2, min_gap_months=4)
        policy.notify_reoptimized(0, {"a": 10.0})
        drifted = {"a": 1.0, "b": 30.0}
        assert not policy.should_reoptimize(2, drifted)  # within refractory gap
        assert policy.should_reoptimize(4, drifted)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DriftTriggered(threshold=0.0)
        # A NaN gap would never hold a fire back: a gap of 0.
        for gap in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="min_gap_months must be at least 1"):
                DriftTriggered(threshold=0.4, min_gap_months=gap)


class TestPartitionDriftScores:
    def test_zero_when_matching(self):
        scores = partition_drift_scores({"a": 10.0, "b": 0.0}, {"a": 10.0, "b": 0.0})
        assert scores == {"a": 0.0, "b": 0.0}

    def test_relative_move_metric(self):
        scores = partition_drift_scores({"a": 10.0}, {"a": 15.0})
        assert scores["a"] == pytest.approx(5.0 / 15.0)

    def test_union_of_names_with_one_sided_activity(self):
        scores = partition_drift_scores({"a": 10.0}, {"b": 3.0})
        assert scores == {"a": 1.0, "b": 1.0}

    def test_symmetric(self):
        left = partition_drift_scores({"a": 4.0}, {"a": 8.0})
        right = partition_drift_scores({"a": 8.0}, {"a": 4.0})
        assert left == right


class TestDriftTriggeredPartitionHints:
    def test_no_hint_before_any_observation(self):
        policy = DriftTriggered(threshold=0.4)
        assert policy.drifted_rows(0.1) is None

    def test_hint_names_only_the_drifted_partitions(self):
        policy = DriftTriggered(threshold=0.4)
        policy.notify_reoptimized(0, {"a": 10.0, "b": 5.0, "c": 2.0})
        policy.should_reoptimize(1, {"a": 10.0, "b": 20.0, "c": 2.0})
        assert policy.drifted_rows(0.1).tolist() == [1]
        assert row_hint_names(policy, 0.1) == {"b"}

    def test_hint_rows_are_the_engine_rows(self):
        # An engine hands over rates over its own names: the hint's rows
        # index those names directly, observed-only rows included.
        names = ("a", "b", "c", "d")
        policy = DriftTriggered(threshold=0.4)
        policy.notify_reoptimized(0, RateColumns(names, np.array([10.0, 5.0, 2.0, 0.0])))
        policy.should_reoptimize(
            1, RateColumns(names, np.array([30.0, 4.0]), np.array([3, 1]))
        )
        assert policy.last_partition_scores.names is names
        assert sorted(policy.drifted_rows(0.1).tolist()) == [0, 1, 2, 3]
        assert sorted(policy.drifted_rows(0.5).tolist()) == [0, 2, 3]

    def test_hint_respects_the_threshold(self):
        policy = DriftTriggered(threshold=0.4)
        policy.notify_reoptimized(0, {"a": 10.0, "b": 10.0})
        policy.should_reoptimize(1, {"a": 11.0, "b": 30.0})
        # a moved ~9%, b ~67%: a stays pinned at tau=0.2, both flagged at 0.05.
        assert row_hint_names(policy, 0.2) == {"b"}
        assert row_hint_names(policy, 0.05) == {"a", "b"}

    def test_scores_update_even_inside_the_refractory_gap(self):
        policy = DriftTriggered(threshold=0.2, min_gap_months=4)
        policy.notify_reoptimized(0, {"a": 10.0})
        assert not policy.should_reoptimize(2, {"a": 100.0})  # gap suppresses
        assert row_hint_names(policy, 0.1) == {"a"}

    def test_hint_after_a_later_reoptimization_matches_eager_scoring(self):
        # Scores are derived on the first hint request; a re-optimization
        # landing in between must not re-base them on the new forecast.
        predicted = {"a": 10.0, "b": 10.0, "c": 4.0}
        observed = {"a": 11.0, "b": 30.0, "d": 2.0}
        policy = DriftTriggered(threshold=0.4)
        policy.notify_reoptimized(0, predicted)
        policy.should_reoptimize(1, observed)
        policy.notify_reoptimized(1, {"a": 11.0, "b": 30.0, "c": 0.0, "d": 2.0})
        eager = partition_drift_scores(predicted, observed)
        for threshold in (0.05, 0.2, 0.9):
            assert row_hint_names(policy, threshold) == {
                name for name, score in eager.items() if score > threshold
            }
        assert policy.last_partition_scores == eager

    def test_scores_are_derived_once_per_window(self):
        policy = DriftTriggered(threshold=0.4)
        policy.notify_reoptimized(0, {"a": 10.0})
        policy.should_reoptimize(1, {"a": 20.0})
        first = policy.last_partition_scores
        assert policy.last_partition_scores is first
        policy.should_reoptimize(2, {"a": 10.0})
        assert policy.last_partition_scores == {"a": 0.0}

    def test_base_policy_has_no_per_partition_signal(self):
        assert StaticOnce().drifted_rows(0.1) is None
        assert PeriodicReoptimize(2).drifted_rows(0.1) is None
