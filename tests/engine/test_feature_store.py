"""FeatureStore: incremental window maintenance must equal a full recompute."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud import AccessEvent
from repro.core.access_predict import WindowedAccessForecaster
from repro.core.access_predict.forecast import window_sums
from repro.engine import EpochBatch, FeatureStore, SeriesStream
from oracles.engine_state import ScalarFeatureStore


def brute_force_window(trace: dict[str, list[float]], epoch: int, window: int):
    """Reference implementation: recompute window stats from the full history."""
    start = max(epoch - window + 1, 0)
    stats = {}
    for name, series in trace.items():
        upto = series[: epoch + 1]
        in_window = upto[start : epoch + 1]
        last_access = max(
            (month for month, reads in enumerate(upto) if reads > 0), default=None
        )
        stats[name] = {
            "window_reads": float(sum(in_window)),
            "lifetime": float(sum(upto)),
            "since": float("inf") if last_access is None else float(epoch - last_access),
        }
    return stats


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("window", [1, 3, 6])
    def test_matches_recompute_on_random_trace(self, window):
        rng = np.random.default_rng(17)
        months = 30
        trace = {
            f"p{i}": [
                float(rng.integers(0, 6)) if rng.uniform() < 0.4 else 0.0
                for _ in range(months)
            ]
            for i in range(12)
        }
        store = FeatureStore(window_months=window)
        for batch in SeriesStream(trace):
            store.observe(batch)
            expected = brute_force_window(trace, batch.epoch, window)
            for name in trace:
                assert store.window_reads(name) == pytest.approx(
                    expected[name]["window_reads"]
                ), (name, batch.epoch)
                assert store.lifetime_reads(name) == pytest.approx(
                    expected[name]["lifetime"]
                )
                assert store.epochs_since_access(name) == expected[name]["since"]

    def test_window_series_is_dense_and_aligned(self):
        store = FeatureStore(window_months=3)
        store.observe(
            EpochBatch(epoch=0, events=(AccessEvent(0, "a", 5.0),))
        )
        store.observe(EpochBatch(epoch=1, events=()))
        store.observe(
            EpochBatch(epoch=2, events=(AccessEvent(2, "a", 2.0),))
        )
        assert store.window_series("a") == (5.0, 0.0, 2.0)
        store.observe(EpochBatch(epoch=3, events=()))
        # epoch 0 slid out of the 3-month window
        assert store.window_series("a") == (0.0, 2.0, 0.0)
        assert store.window_reads("a") == 2.0

    def test_short_history_yields_short_series(self):
        store = FeatureStore(window_months=6)
        store.observe(
            EpochBatch(epoch=0, events=(AccessEvent(0, "a", 1.0),))
        )
        assert store.window_series("a") == (1.0,)

    def test_untracked_partition_reads_as_cold(self):
        store = FeatureStore(window_months=4)
        store.observe(EpochBatch(epoch=0, events=()))
        assert store.window_reads("ghost") == 0.0
        assert store.lifetime_reads("ghost") == 0.0
        assert store.epochs_since_access("ghost") == float("inf")

    def test_epoch_gaps_are_allowed_and_expire_entries(self):
        store = FeatureStore(window_months=2)
        store.observe(
            EpochBatch(epoch=0, events=(AccessEvent(0, "a", 7.0),))
        )
        store.observe(
            EpochBatch(epoch=10, events=(AccessEvent(10, "a", 1.0),))
        )
        assert store.window_reads("a") == 1.0
        assert store.lifetime_reads("a") == 8.0

    def test_rejects_time_travel(self):
        store = FeatureStore(window_months=2)
        store.observe(EpochBatch(epoch=5, events=()))
        with pytest.raises(ValueError):
            store.observe(EpochBatch(epoch=4, events=()))

    def test_rejects_negative_reads_via_counts(self):
        store = FeatureStore(window_months=2)
        with pytest.raises(ValueError):
            store.observe_counts(0, {"a": -1.0})


class TestSnapshot:
    def test_snapshot_bundles_all_features(self):
        store = FeatureStore(window_months=2)
        store.observe_counts(0, {"a": 4.0})
        store.observe_counts(1, {"a": 2.0, "b": 1.0})
        snap = store.snapshot(["a", "b", "c"])
        assert snap["a"].window_reads == 6.0
        assert snap["a"].window_series == (4.0, 2.0)
        assert snap["a"].window_mean == 3.0
        assert snap["b"].epochs_since_access == 0.0
        assert snap["c"].lifetime_reads == 0.0
        assert store.tracked_partitions() == ["a", "b"]

    def test_window_reads_are_the_forecast_window_sum(self):
        """The ring row holds 1e16, 0.5, 1.0 in column order; oldest first
        the window is 0.5, 1.0, 1e16, whose left-to-right sum keeps the
        1.5 that a sum in column order rounds away."""
        store = FeatureStore(window_months=3)
        for epoch, reads in ((1, 0.5), (2, 1.0), (3, 1e16)):
            store.observe_counts(epoch, {"a": reads})
        want = ((0.0 + 0.5) + 1.0) + 1e16
        assert want == 1.0000000000000002e16
        window = store.window_matrix(store.register(["a"]))
        assert window_sums(window).tolist() == [want]
        assert store.window_reads("a") == want
        assert store.snapshot(["a"])["a"].window_reads == want
        # At blend 0 the forecast is the window mean, from the same sum.
        forecaster = WindowedAccessForecaster(blend=0.0)
        forecaster.seed({"a": 0.0})
        got = forecaster.forecast_rows(forecaster.rows(["a"]), window)
        assert got.tolist() == [want / 3]


class TestRingBufferEqualsScalarOracle:
    """The numpy ring-buffer store and the sparse-deque oracle must agree."""

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_identical_on_random_trace_with_gaps(self, window):
        rng = np.random.default_rng(29)
        names = [f"p{i}" for i in range(20)]
        ring = FeatureStore(window_months=window, initial_capacity=4)  # forces growth
        scalar = ScalarFeatureStore(window_months=window)
        epoch = 0
        for _ in range(40):
            epoch += int(rng.integers(0, 4))  # repeats and gaps included
            counts = {
                name: float(rng.integers(0, 5))
                for name in names
                if rng.uniform() < 0.5
            }
            # accumulate() is the path that tolerates same-epoch repeats
            # (observe_counts rejects them; see TestCompleteBatchContract).
            ring.accumulate(epoch, counts)
            scalar.accumulate(epoch, counts)
            assert ring.current_epoch == scalar.current_epoch
            for name in names + ["never_seen"]:
                assert ring.window_series(name) == scalar.window_series(name), (
                    name,
                    epoch,
                )
                assert ring.window_reads(name) == pytest.approx(
                    scalar.window_reads(name)
                )
                assert ring.lifetime_reads(name) == scalar.lifetime_reads(name)
                assert ring.epochs_since_access(name) == scalar.epochs_since_access(
                    name
                )
            assert ring.tracked_partitions() == scalar.tracked_partitions()

    def test_event_batches_agree_with_counts(self):
        rng = np.random.default_rng(31)
        names = [f"p{i}" for i in range(10)]
        ring = FeatureStore(window_months=4)
        scalar = ScalarFeatureStore(window_months=4)
        for epoch in range(15):
            events = tuple(
                AccessEvent(month=epoch, partition=names[int(rng.integers(0, 10))],
                            reads=float(rng.integers(1, 4)))
                for _ in range(int(rng.integers(0, 8)))
            )
            batch = EpochBatch(epoch=epoch, events=events)
            ring.observe(batch)
            scalar.observe(batch)
            snap_ring = ring.snapshot(names)
            snap_scalar = scalar.snapshot(names)
            for name in names:
                assert snap_ring[name].window_series == snap_scalar[name].window_series
                assert snap_ring[name].window_reads == pytest.approx(
                    snap_scalar[name].window_reads
                )

    def test_window_series_map_matches_per_name_queries(self):
        store = FeatureStore(window_months=3)
        store.observe_counts(0, {"a": 5.0})
        store.observe_counts(2, {"b": 2.0, "a": 1.0})
        series_map = store.window_series_map(["a", "b", "ghost"])
        assert series_map == {
            "a": store.window_series("a"),
            "b": store.window_series("b"),
            "ghost": (0.0, 0.0, 0.0),
        }

    def test_same_epoch_accumulate_coalesces(self):
        ring = FeatureStore(window_months=3)
        scalar = ScalarFeatureStore(window_months=3)
        for store in (ring, scalar):
            store.accumulate(1, {"a": 2.0})
            store.accumulate(1, {"a": 3.0})
        assert ring.window_series("a") == scalar.window_series("a") == (0.0, 5.0)
        assert ring.window_reads("a") == scalar.window_reads("a") == 5.0


class TestCompleteBatchContract:
    """observe/observe_counts take one complete batch per epoch (the bugfix).

    Re-observing the current epoch used to silently double-fold reads while
    the forecaster rejected the same mistake; now both stores raise and the
    explicit :meth:`accumulate` path carries the intentional sub-epoch
    streaming semantics.
    """

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_observe_counts_rejects_same_epoch(self, kind):
        store = (
            FeatureStore(window_months=3)
            if kind == "ring"
            else ScalarFeatureStore(window_months=3)
        )
        store.observe_counts(1, {"a": 2.0})
        with pytest.raises(ValueError, match="already observed"):
            store.observe_counts(1, {"a": 3.0})
        # The failed call must not have half-folded anything.
        assert store.window_reads("a") == 2.0

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_observe_rejects_same_epoch_batch(self, kind):
        store = (
            FeatureStore(window_months=3)
            if kind == "ring"
            else ScalarFeatureStore(window_months=3)
        )
        batch = EpochBatch(
            epoch=0, events=(AccessEvent(month=0, partition="a", reads=1.0),)
        )
        store.observe(batch)
        with pytest.raises(ValueError, match="already observed"):
            store.observe(batch)
        assert store.window_reads("a") == 1.0

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_accumulate_then_observe_same_epoch_rejected(self, kind):
        store = (
            FeatureStore(window_months=3)
            if kind == "ring"
            else ScalarFeatureStore(window_months=3)
        )
        store.accumulate(2, {"a": 1.0})
        with pytest.raises(ValueError, match="already observed"):
            store.observe_counts(2, {"a": 1.0})

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_accumulate_rejects_decreasing_epochs(self, kind):
        store = (
            FeatureStore(window_months=3)
            if kind == "ring"
            else ScalarFeatureStore(window_months=3)
        )
        store.accumulate(3, {"a": 1.0})
        with pytest.raises(ValueError, match="non-decreasing"):
            store.accumulate(2, {"a": 1.0})

    def test_micro_batches_sum_like_one_batch(self):
        """Slicing an epoch into accumulate() micro-batches equals one observe."""
        whole = FeatureStore(window_months=4)
        sliced = FeatureStore(window_months=4)
        whole.observe_counts(0, {"a": 6.0, "b": 3.0})
        for _ in range(3):
            sliced.accumulate(0, {"a": 2.0, "b": 1.0})
        for name in ("a", "b"):
            assert whole.window_series(name) == sliced.window_series(name)
            assert whole.lifetime_reads(name) == sliced.lifetime_reads(name)


class TestGapSemantics:
    """Epoch gaps: skipped months are quiet months, in both stores (S3).

    A gap of ``g`` epochs slides the window by ``g`` zero columns — a gap at
    least as wide as the window wipes it entirely, a narrower one zeroes
    exactly the skipped columns, and ``epochs_since_access`` keeps counting
    across the gap.
    """

    @staticmethod
    def make(kind, window):
        return (
            FeatureStore(window_months=window)
            if kind == "ring"
            else ScalarFeatureStore(window_months=window)
        )

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_gap_at_least_window_wipes_it(self, kind):
        store = self.make(kind, window=3)
        store.observe_counts(0, {"a": 9.0, "b": 4.0})
        store.observe_counts(3, {})  # gap of 3 == window
        assert store.window_series("a") == (0.0, 0.0, 0.0)
        assert store.window_reads("a") == 0.0
        assert store.window_reads("b") == 0.0
        # Lifetime survives the wipe; only the window forgets.
        assert store.lifetime_reads("a") == 9.0

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_partial_gap_zeroes_exactly_the_skipped_columns(self, kind):
        store = self.make(kind, window=4)
        store.observe_counts(0, {"a": 5.0})
        store.observe_counts(3, {"a": 2.0})  # epochs 1 and 2 were quiet
        assert store.window_series("a") == (5.0, 0.0, 0.0, 2.0)
        assert store.window_reads("a") == 7.0

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_epochs_since_access_counts_across_gaps(self, kind):
        store = self.make(kind, window=2)
        store.observe_counts(0, {"a": 1.0})
        store.observe_counts(7, {"b": 1.0})
        assert store.epochs_since_access("a") == 7.0
        assert store.epochs_since_access("b") == 0.0

    @pytest.mark.parametrize("kind", ["ring", "scalar"])
    def test_gap_then_same_epoch_accumulate(self, kind):
        """A gap followed by sub-epoch accumulates folds into one column."""
        store = self.make(kind, window=3)
        store.observe_counts(0, {"a": 4.0})
        store.accumulate(2, {"a": 1.0})
        store.accumulate(2, {"a": 2.0})
        assert store.window_series("a") == (4.0, 0.0, 3.0)

    def test_stores_agree_on_giant_gap(self):
        ring = FeatureStore(window_months=5)
        scalar = ScalarFeatureStore(window_months=5)
        for store in (ring, scalar):
            store.observe_counts(0, {"a": 3.0})
            store.observe_counts(1000, {"b": 1.0})
        assert ring.window_series("a") == scalar.window_series("a")
        assert ring.window_series("b") == scalar.window_series("b")
        assert ring.epochs_since_access("a") == scalar.epochs_since_access("a")
        assert ring.current_epoch == scalar.current_epoch == 1000


class TestHotPathIsIncremental:
    def test_epoch_cost_does_not_grow_with_history(self):
        """Per-epoch state stays bounded by the window, not the trace length.

        For the scalar oracle: after many epochs every partition deque holds
        at most ``window`` entries regardless of lifetime.  For the ring
        store: the buffer width is exactly ``window`` columns forever."""
        scalar = ScalarFeatureStore(window_months=4)
        ring = FeatureStore(window_months=4)
        for epoch in range(500):
            scalar.observe_counts(epoch, {"a": 1.0, "b": 2.0})
            ring.observe_counts(epoch, {"a": 1.0, "b": 2.0})
        for state in scalar._states.values():
            assert len(state.entries) <= 4
        assert ring._window.shape[1] == 4


def store_state(store: FeatureStore) -> tuple:
    """Everything a fold can change: the epoch, the name index and the buffers."""
    return (
        store.current_epoch,
        dict(store._index),
        store._window.tobytes(),
        store._lifetime.tobytes(),
        store._last_access.tobytes(),
    )


class TestRejectedInputChangesNothing:
    """Input is validated whole before any state changes: a rejected call
    leaves the buffers and the epoch as they were, so the corrected call for
    the same epoch is accepted."""

    @staticmethod
    def warm_store() -> FeatureStore:
        store = FeatureStore(window_months=3, initial_capacity=2)
        store.observe_counts(0, {"a": 2.0})
        store.observe_counts(1, {"a": 5.0, "b": 1.0})
        return store

    def test_observe_counts(self):
        store = self.warm_store()
        before = store_state(store)
        with pytest.raises(ValueError, match="negative read count for 'b'"):
            store.observe_counts(4, {"a": 1.0, "b": -1.0, "new": 3.0})
        assert store_state(store) == before
        assert store.window_series("a") == (2.0, 5.0)
        store.observe_counts(4, {"a": 1.0, "b": 1.0, "new": 3.0})
        assert store.window_series("a") == (0.0, 0.0, 1.0)
        assert store.tracked_partitions() == ["a", "b", "new"]

    def test_accumulate(self):
        store = self.warm_store()
        before = store_state(store)
        with pytest.raises(ValueError, match="negative read count"):
            store.accumulate(1, {"a": 1.0, "c": -0.5})
        assert store_state(store) == before
        store.accumulate(1, {"a": 1.0, "c": 0.5})
        assert store.window_series("a") == (2.0, 6.0)

    def test_nan_does_not_hide_a_negative(self):
        store = self.warm_store()
        before = store_state(store)
        with pytest.raises(ValueError, match="negative read count for 'b'"):
            store.observe_counts(4, {"a": np.nan, "b": -1.0})
        with pytest.raises(ValueError, match="negative read count for 'c'"):
            store.accumulate(1, {"a": np.nan, "c": -0.5})
        assert store_state(store) == before
        store.observe_counts(4, {"a": 1.0, "b": 1.0})
        assert store.window_series("b") == (0.0, 0.0, 1.0)

    def test_observe(self):
        store = self.warm_store()
        before = store_state(store)
        bad = EpochBatch(
            epoch=2,
            events=(
                AccessEvent(2, "a", 1.0),
                SimpleNamespace(partition="fresh", reads=-1.0),
            ),
        )
        with pytest.raises(ValueError, match="negative read count for 'fresh'"):
            store.observe(bad)
        assert store_state(store) == before
        store.observe(EpochBatch(epoch=2, events=(AccessEvent(2, "a", 1.0),)))
        assert store.window_series("a") == (2.0, 5.0, 1.0)

    @pytest.mark.parametrize(
        "rows, counts, message",
        [
            ([0, 1], [1.0, -2.0], "negative read count for 'b'"),
            ([0, 1], [np.nan, -2.0], "negative read count for 'b'"),
            ([0, 2], [1.0, 1.0], "row outside"),
            ([0, -1], [1.0, 1.0], "row outside"),
            ([0, 1], [1.0], "same length"),
        ],
    )
    def test_observe_rows(self, rows, counts, message):
        store = self.warm_store()
        before = store_state(store)
        with pytest.raises(ValueError, match=message):
            store.observe_rows(3, np.array(rows, dtype=np.intp), np.array(counts))
        assert store_state(store) == before
        store.observe_rows(3, store.register(["b", "a"]), np.array([4.0, 0.0]))
        assert store.window_series("b") == (1.0, 0.0, 4.0)
        assert store.epochs_since_access("a") == 2.0

    def test_same_epoch_rejected_by_observe_rows(self):
        store = self.warm_store()
        before = store_state(store)
        with pytest.raises(ValueError, match="already observed"):
            store.observe_rows(1, store.register(["a"]), np.array([1.0]))
        assert store_state(store) == before


class TestRows:
    def test_registered_rows_stay_untracked_until_read(self):
        store = FeatureStore(window_months=2, initial_capacity=1)
        rows = store.register(["x", "y", "z"])
        assert rows.tolist() == [0, 1, 2]
        assert store.register(["z", "w"]).tolist() == [2, 3]
        store.observe_rows(0, rows[[1, 0]], np.array([2.0, 0.0]))
        assert store.tracked_partitions() == ["y"]
        assert store.epochs_since_access("x") == float("inf")

    def test_window_matrix_is_the_series_of_each_row(self):
        store = FeatureStore(window_months=3)
        rows = store.register(["a", "b", "c"])
        store.observe_rows(0, rows[:2], np.array([1.5, 2.0]))
        store.observe_rows(2, rows[1:], np.array([0.25, 7.0]))
        matrix = store.window_matrix(rows[::-1])
        assert matrix.tolist() == [
            list(store.window_series(name)) for name in ("c", "b", "a")
        ]
        assert FeatureStore(window_months=3).window_matrix(rows[:0]).shape == (0, 0)
