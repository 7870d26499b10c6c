"""Warm-start retraining of COMPREDICT on a bounded rolling sample window."""

import numpy as np
import pytest

from repro.compression import Layout, default_registry
from repro.core.compredict import CompressionPredictor
from repro.tabular import random_table


@pytest.fixture(scope="module")
def codec():
    return default_registry().create("gzip")


def make_samples(seed, count=6, rows=120):
    rng = np.random.default_rng(seed)
    return [
        random_table(rng, rows, name=f"s{seed}_{index}", categorical_cardinality=8)
        for index in range(count)
    ]


class TestPartialFit:
    def test_trains_from_scratch_when_untrained(self, codec):
        predictor = CompressionPredictor()
        predictor.partial_fit(make_samples(1), [codec])
        profile = predictor.predict_profile(make_samples(2)[0], "gzip", Layout.CSV)
        assert profile.ratio >= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_tree_leaf_is_empty(self, codec):
        """This training data holds neighbouring floats whose midpoint rounds
        up to the larger one; a split there must not leave an empty leaf
        (whose mean warns and predicts NaN)."""
        predictor = CompressionPredictor()
        predictor.partial_fit(make_samples(1), [codec])
        profile = predictor.predict_profile(make_samples(2)[0], "gzip", Layout.CSV)
        assert np.isfinite(profile.ratio) and profile.ratio >= 1.0

    def test_window_accumulates_across_calls(self, codec):
        predictor = CompressionPredictor()
        predictor.partial_fit(make_samples(1, count=4), [codec])
        assert predictor.window_size("gzip") == 4
        predictor.partial_fit(make_samples(2, count=3), [codec])
        assert predictor.window_size("gzip") == 7

    def test_window_is_bounded_by_history_limit(self, codec):
        predictor = CompressionPredictor(history_limit=5)
        predictor.partial_fit(make_samples(1, count=4), [codec])
        predictor.partial_fit(make_samples(2, count=4), [codec])
        assert predictor.window_size("gzip") == 5

    def test_full_fit_seeds_the_window(self, codec):
        predictor = CompressionPredictor()
        predictor.fit(make_samples(3, count=4), [codec])
        assert predictor.window_size("gzip") == 4
        predictor.partial_fit(make_samples(4, count=2), [codec])
        assert predictor.window_size("gzip") == 6

    def test_refit_tracks_recent_data(self, codec):
        """With a tight window, old samples stop influencing the model: the
        predictor refit on new-distribution samples predicts them better than
        the stale model did."""
        rng = np.random.default_rng(9)
        repetitive = [
            random_table(rng, 150, name=f"rep{i}", categorical_cardinality=2,
                         num_categorical=5, num_int=0, num_float=0, num_text=0)
            for i in range(6)
        ]
        diverse = [
            random_table(rng, 150, name=f"div{i}", categorical_cardinality=64,
                         num_categorical=1, num_int=2, num_float=3, num_text=1)
            for i in range(6)
        ]
        predictor = CompressionPredictor(history_limit=6)
        predictor.fit(repetitive, [codec])
        stale_prediction = predictor.predict_profile(diverse[0], "gzip", Layout.CSV)
        predictor.partial_fit(diverse[1:], [codec])
        fresh_prediction = predictor.predict_profile(diverse[0], "gzip", Layout.CSV)
        # Distributions differ strongly in compressibility; the refit model
        # must move its estimate toward the new regime.
        assert fresh_prediction.ratio != pytest.approx(stale_prediction.ratio, rel=1e-3)

    def test_rejects_empty_samples(self, codec):
        with pytest.raises(ValueError):
            CompressionPredictor().partial_fit([], [codec])

    def test_rejects_nonpositive_history_limit(self):
        with pytest.raises(ValueError):
            CompressionPredictor(history_limit=0)
