"""Epoch-free trigger windows: semantics, and the bit-exact dense-epoch oracle.

The tentpole invariant: a windowed run whose :class:`TimeTrigger` boundaries
align to the monthly grid must reproduce the dense-epoch engine **bit
exactly** — same bills, same reoptimization points, same forecasts.  The
windowed timeline is a strict generalization, not a reimplementation.
"""

import math

import numpy as np
import pytest

from repro.cloud import (
    AccessEvent,
    DataPartition,
    EventBatch,
    TimedEvent,
    azure_tier_catalog,
)
from repro.engine import (
    AnyTrigger,
    CountTrigger,
    DriftTrigger,
    EngineConfig,
    EpochBatch,
    OnlineTieringEngine,
    PeriodicReoptimize,
    StreamWindow,
    TimeTrigger,
    WindowRecord,
    monthly_batches,
    windowed,
)
from repro.workloads import PoissonZipfStream
from oracles.plan import reference_forecast

HORIZON = 6.0


def timed(*times, partition="a", reads=1.0):
    return [TimedEvent(t=t, partition=partition, reads=reads) for t in times]


class TestStreamWindow:
    def test_aggregation_mirrors_epoch_batch(self):
        window = StreamWindow(
            index=0,
            start_month=0.0,
            end_month=1.5,
            events=tuple(timed(0.1, 0.2) + timed(1.0, partition="b", reads=2.0)),
            cause="time",
        )
        assert window.duration_months == 1.5
        assert window.total_reads == 4.0
        assert window.reads_by_partition() == {"a": 2.0, "b": 2.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamWindow(index=-1, start_month=0.0, end_month=1.0, events=(),
                         cause="time")
        with pytest.raises(ValueError):
            StreamWindow(index=0, start_month=2.0, end_month=1.0, events=(),
                         cause="time")
        for start, end in (
            (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)
        ):
            with pytest.raises(ValueError, match="window bounds must be finite"):
                StreamWindow(index=0, start_month=start, end_month=end,
                             events=(), cause="time")


class TestCountTrigger:
    def test_closes_every_n_events(self):
        events = timed(0.1, 0.2, 0.3, 0.4, 0.5)
        wins = list(windowed(events, CountTrigger(2)))
        assert [len(w.events) for w in wins] == [2, 2, 1]
        assert [w.cause for w in wins] == ["count", "count", "flush"]
        # Consecutive and gap-free: each window starts where the last ended.
        assert [w.start_month for w in wins[1:]] == [w.end_month for w in wins[:-1]]

    def test_timestamp_tie_defers_zero_width_close(self):
        # Three events at t=0: a close at the window's own start would make a
        # zero-width window, so the driver defers until the clock advances.
        events = timed(0.0, 0.0, 0.0, 0.5)
        wins = list(windowed(events, CountTrigger(1)))
        assert all(w.duration_months > 0 for w in wins)
        assert sum(len(w.events) for w in wins) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            CountTrigger(0)
        with pytest.raises(ValueError, match="max_events must be positive"):
            CountTrigger(math.nan)


class TestTimeTrigger:
    def test_quiet_stretches_emit_empty_windows(self):
        events = timed(0.5, 3.5)
        wins = list(windowed(events, TimeTrigger(1.0), horizon_months=5.0))
        assert [w.index for w in wins] == [0, 1, 2, 3, 4]
        assert [len(w.events) for w in wins] == [1, 0, 0, 1, 0]
        assert [(w.start_month, w.end_month) for w in wins] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)
        ]
        assert wins[-1].cause == "horizon"
        assert all(w.cause == "time" for w in wins[:-1])

    def test_event_on_boundary_goes_to_next_window(self):
        wins = list(windowed(timed(1.0), TimeTrigger(1.0), horizon_months=2.0))
        assert [len(w.events) for w in wins] == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeTrigger(0.0)
        for width in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="width_months must be positive"):
                TimeTrigger(width)


class TestDriftTrigger:
    def test_never_fires_without_baseline(self):
        events = timed(*np.linspace(0.0, 2.0, 200, endpoint=False))
        trigger = DriftTrigger(threshold=0.01, check_every=10)
        wins = list(windowed(events, trigger, horizon_months=2.0))
        assert [w.cause for w in wins] == ["horizon"]

    def test_fires_when_mix_drifts_from_baseline(self):
        # Baseline expects all-"a" traffic; the stream is all-"b".
        events = timed(*np.linspace(0.3, 2.0, 300, endpoint=False), partition="b")
        trigger = DriftTrigger(
            threshold=0.5,
            min_width_months=0.25,
            check_every=10,
            baseline_provider=lambda: {"a": 150.0},
        )
        wins = list(windowed(events, trigger, horizon_months=2.0))
        assert wins[0].cause == "drift"
        assert trigger.last_score is not None and trigger.last_score >= 0.5

    def test_matching_traffic_does_not_fire(self):
        events = timed(*np.linspace(0.0, 2.0, 300, endpoint=False))
        trigger = DriftTrigger(
            threshold=0.5,
            check_every=10,
            baseline_provider=lambda: {"a": 150.0},
        )
        wins = list(windowed(events, trigger, horizon_months=2.0))
        assert [w.cause for w in wins] == ["horizon"]

    def test_min_width_suppresses_early_fires(self):
        events = timed(*np.linspace(0.0, 0.2, 100, endpoint=False), partition="b")
        trigger = DriftTrigger(
            threshold=0.1,
            min_width_months=0.5,
            check_every=5,
            baseline_provider=lambda: {"a": 100.0},
        )
        wins = list(windowed(events, trigger, horizon_months=0.2))
        assert [w.cause for w in wins] == ["horizon"]

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftTrigger(0.0)
        with pytest.raises(ValueError):
            DriftTrigger(0.5, min_width_months=0.0)
        with pytest.raises(ValueError):
            DriftTrigger(0.5, check_every=0)
        with pytest.raises(ValueError, match="threshold must be positive"):
            DriftTrigger(math.nan)
        for width in (math.nan, math.inf):
            with pytest.raises(ValueError, match="min_width_months must be positive"):
                DriftTrigger(0.5, min_width_months=width)


class TestAnyTrigger:
    def test_first_to_fire_wins_and_names_the_cause(self):
        events = timed(0.1, 0.2, 0.3)
        wins = list(
            windowed(events, AnyTrigger(TimeTrigger(1.0), CountTrigger(2)),
                     horizon_months=1.0)
        )
        assert wins[0].cause == "count"
        assert len(wins[0].events) == 2

    def test_time_member_still_cuts_quiet_stretches(self):
        wins = list(
            windowed(timed(0.1), AnyTrigger(CountTrigger(100), TimeTrigger(1.0)),
                     horizon_months=3.0)
        )
        assert [w.cause for w in wins] == ["time", "time", "horizon"]

    def test_requires_members(self):
        with pytest.raises(ValueError):
            AnyTrigger()


class TestWindowedDriver:
    def test_rejects_backwards_events(self):
        events = [TimedEvent(t=1.0, partition="a"), TimedEvent(t=0.5, partition="a")]
        with pytest.raises(ValueError, match="time-ordered"):
            list(windowed(events, CountTrigger(10)))

    def test_rejects_backwards_events_across_chunks(self):
        chunks = [EventBatch.from_events(timed(1.0)), EventBatch.from_events(timed(0.5))]
        with pytest.raises(ValueError, match="time-ordered: 0.5 after 1.0"):
            list(windowed(chunks, CountTrigger(10)))

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, -1.0, 0.0))
    def test_rejects_nonfinite_start_and_horizon(self, value):
        # next(), never list(): a drain to an unchecked infinite horizon
        # would never end, and an empty horizon would yield no window.
        if not math.isfinite(value):
            with pytest.raises(ValueError, match="start_month must be finite"):
                next(windowed(timed(0.5), TimeTrigger(1.0), start_month=value))
        with pytest.raises(ValueError, match="horizon_months must be finite"):
            next(windowed(timed(0.5), TimeTrigger(1.0), horizon_months=value))

    def test_rejects_event_before_start_month(self):
        with pytest.raises(ValueError, match="precedes start_month=1.0"):
            list(windowed(timed(0.5, 1.5), CountTrigger(10), start_month=1.0))

    def test_rejects_chunk_event_before_start_month(self):
        chunk = EventBatch.from_events(timed(1.2, 0.5, 1.5))
        with pytest.raises(ValueError, match="t=0.5 precedes start_month=1.0"):
            list(windowed(chunk, CountTrigger(10), start_month=1.0))

    def test_no_horizon_flushes_trailing_partial_window(self):
        wins = list(windowed(timed(0.1, 0.7), TimeTrigger(1.0)))
        assert [w.cause for w in wins] == ["flush"]
        assert wins[0].end_month == 0.7

    def test_empty_stream_with_horizon_yields_horizon_window(self):
        wins = list(windowed([], TimeTrigger(10.0), horizon_months=1.5))
        assert [(w.cause, w.start_month, w.end_month) for w in wins] == [
            ("horizon", 0.0, 1.5)
        ]

    def test_empty_stream_without_horizon_yields_nothing(self):
        assert list(windowed([], CountTrigger(1))) == []

    def test_events_past_horizon_are_ignored(self):
        wins = list(windowed(timed(0.5, 2.5), CountTrigger(1), horizon_months=1.0))
        assert sum(len(w.events) for w in wins) == 1


class TestMonthlyBatches:
    def test_preserves_event_order_without_aggregating(self):
        events = timed(0.1, 0.9) + timed(0.95, partition="b") + timed(2.2)
        batches = list(monthly_batches(events))
        assert [batch.epoch for batch in batches] == [0, 1, 2]
        assert [e.partition for e in batches[0].events] == ["a", "a", "b"]
        assert batches[1].events == ()

    def test_num_epochs_pads_and_cuts(self):
        events = timed(0.5)
        assert len(list(monthly_batches(events, num_epochs=4))) == 4
        cut = list(monthly_batches(timed(0.5, 5.5), num_epochs=2))
        assert len(cut) == 2
        with pytest.raises(ValueError):
            list(monthly_batches(events, num_epochs=0))

    def test_empty_stream_without_num_epochs_yields_nothing(self):
        assert list(monthly_batches([])) == []


# ---------------------------------------------------------------------------
# The oracle lock: month-aligned windows == dense epochs, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_setup():
    partitions = [
        DataPartition(
            name=f"p{i}",
            size_gb=100.0 + 40.0 * i,
            predicted_accesses=20.0,
            latency_threshold_s=7200.0,
            current_tier=0,
        )
        for i in range(8)
    ]
    stream = PoissonZipfStream(
        [p.name for p in partitions],
        rate_per_month=400.0,
        horizon_months=HORIZON,
        zipf_exponent=1.1,
        seed=42,
    )
    tiers = azure_tier_catalog(include_premium=False, include_archive=True)
    return partitions, tiers, stream


def make_engine(partitions, tiers):
    return OnlineTieringEngine(
        partitions,
        tiers,
        PeriodicReoptimize(period_months=2),
        EngineConfig(horizon_months=3.0, window_months=3),
    )


class TestDenseOracleEquivalence:
    """Month-aligned TimeTrigger(1.0) must replay the dense engine bit-exactly."""

    @pytest.fixture(scope="class")
    def reports(self, oracle_setup):
        partitions, tiers, stream = oracle_setup
        dense = make_engine(partitions, tiers)
        dense_report = dense.run(
            monthly_batches(stream, num_epochs=int(HORIZON))
        )
        windowed_engine = make_engine(partitions, tiers)
        window_report = windowed_engine.run_stream(
            stream, TimeTrigger(1.0), horizon_months=HORIZON
        )
        return dense_report, window_report, dense, windowed_engine

    def test_total_bill_is_bit_exact(self, reports):
        dense_report, window_report, _, _ = reports
        assert window_report.total_bill == dense_report.total_bill

    def test_every_record_component_is_bit_exact(self, reports):
        dense_report, window_report, _, _ = reports
        assert len(window_report.records) == len(dense_report.records)
        for dense_rec, window_rec in zip(
            dense_report.records, window_report.records
        ):
            assert isinstance(window_rec, WindowRecord)
            assert window_rec.epoch == dense_rec.epoch
            assert window_rec.reoptimized == dense_rec.reoptimized
            assert window_rec.storage_cost == dense_rec.storage_cost
            assert window_rec.read_cost == dense_rec.read_cost
            assert window_rec.decompression_cost == dense_rec.decompression_cost
            assert window_rec.migration_cost == dense_rec.migration_cost
            assert (
                window_rec.early_deletion_penalty
                == dense_rec.early_deletion_penalty
            )
            assert window_rec.num_moved == dense_rec.num_moved
            assert window_rec.moved_gb == dense_rec.moved_gb
            assert window_rec.access_count == dense_rec.access_count
            assert window_rec.latency_violations == dense_rec.latency_violations

    def test_final_placements_agree(self, reports):
        _, _, dense, windowed_engine = reports
        assert dense.placement == windowed_engine.placement

    def test_window_records_carry_span_and_cause(self, reports):
        _, window_report, _, _ = reports
        for record in window_report.records:
            assert record.end_month - record.start_month == pytest.approx(1.0)
            assert record.duration_months == record.end_month - record.start_month
        assert window_report.records[-1].cause == "horizon"
        assert all(r.cause == "time" for r in window_report.records[:-1])


class TestDenseMonthFold:
    """A dense month folds the feature store through the window's per-row
    ``bincount``: each row's reads add up first, then join its lifetime."""

    @staticmethod
    def engines():
        tiers = azure_tier_catalog(include_premium=False)
        partitions = [
            DataPartition(name, size_gb=100.0, predicted_accesses=1.0, current_tier=0)
            for name in ("a", "b")
        ]
        return [
            OnlineTieringEngine(
                partitions,
                tiers,
                PeriodicReoptimize(period_months=1),
                EngineConfig(horizon_months=3.0, window_months=3),
            )
            for _ in range(2)
        ]

    def test_lifetime_adds_the_month_sum(self):
        dense, windows = self.engines()
        dense_report = dense.run(
            [
                EpochBatch(0, (AccessEvent(0, "a", 1 / 3),)),
                EpochBatch(1, (AccessEvent(1, "a", 0.3), AccessEvent(1, "a", 0.6))),
            ]
        )
        # Event by event it would be (1/3 + 0.3) + 0.6, one ulp lower.
        assert dense.feature_store.lifetime_reads("a") == 1 / 3 + (0.3 + 0.6)
        window_report = windows.run_stream(
            timed(0.0, reads=1 / 3) + timed(1.0, reads=0.3) + timed(1.5, reads=0.6),
            TimeTrigger(1.0),
            horizon_months=2.0,
        )
        assert dense.feature_store.window_series("a") == (
            windows.feature_store.window_series("a")
        )
        assert np.array_equal(
            reference_forecast(dense, 2).dense(), reference_forecast(windows, 2).dense()
        )
        assert [record.bill_total for record in dense_report.records] == [
            record.bill_total for record in window_report.records
        ]
        assert dense_report.total_bill == window_report.total_bill


class TestWindowedEngineBehaviour:
    def test_timeline_mixing_raises_both_ways(self, oracle_setup):
        # One clock: a dense batch continues a month-aligned windowed run
        # and bills as that month's window would, and a window continues a
        # dense run.  A batch or window that does not start at the window
        # clock raises before anything is billed, either way round.
        partitions, tiers, stream = oracle_setup
        month = list(monthly_batches(stream, num_epochs=3))[2]
        reference = make_engine(partitions, tiers)
        want = reference.run_stream(stream, TimeTrigger(1.0), horizon_months=3.0)

        engine = make_engine(partitions, tiers)
        engine.run_stream(stream, TimeTrigger(1.0), horizon_months=2.0)
        with pytest.raises(ValueError, match="consecutive"):
            engine.step(EpochBatch(epoch=3, events=()))
        with pytest.raises(ValueError, match="at month 2.5"):
            engine.step_window(
                StreamWindow(index=2, start_month=2.5, end_month=3.0,
                             events=(), cause="time")
            )
        assert engine.window_clock == 2.0
        got = engine.step(month)
        theirs = want.records[2]
        assert (got.epoch, got.start_month, got.end_month) == (2, 2.0, 3.0)
        assert got.reoptimized == theirs.reoptimized
        assert got.storage_cost == theirs.storage_cost
        assert got.read_cost == theirs.read_cost
        assert got.decompression_cost == theirs.decompression_cost
        assert got.migration_cost == theirs.migration_cost
        assert got.access_count == theirs.access_count
        assert engine.placement == reference.placement

        engine = make_engine(partitions, tiers)
        engine.run(monthly_batches(stream, num_epochs=2))
        with pytest.raises(ValueError, match="one month at a time"):
            engine.step_window(
                StreamWindow(index=0, start_month=0.0, end_month=1.0,
                             events=(), cause="time")
            )
        assert engine.window_clock == 2.0
        record = engine.step_window(
            StreamWindow(index=2, start_month=2.0, end_month=2.5,
                         events=(), cause="time")
        )
        assert record.duration_months == 0.5
        assert engine.window_clock == 2.5

    def test_windows_must_be_consecutive(self, oracle_setup):
        partitions, tiers, stream = oracle_setup
        engine = make_engine(partitions, tiers)
        engine.step_window(
            StreamWindow(index=0, start_month=0.0, end_month=1.0, events=(),
                         cause="time")
        )
        with pytest.raises(ValueError, match="consecutive"):
            engine.step_window(
                StreamWindow(index=2, start_month=2.0, end_month=3.0,
                             events=(), cause="time")
            )

    def test_window_clock_tracks_settled_time(self, oracle_setup):
        partitions, tiers, stream = oracle_setup
        engine = make_engine(partitions, tiers)
        engine.run_stream(stream, TimeTrigger(0.5), horizon_months=2.0)
        assert engine.window_clock == 2.0

    def test_drift_cause_forces_reoptimization(self, oracle_setup):
        partitions, tiers, _ = oracle_setup
        # A policy that never fires on its own: drift-closed windows must
        # still reoptimize.
        engine = OnlineTieringEngine(
            partitions,
            tiers,
            PeriodicReoptimize(period_months=1000),
            EngineConfig(horizon_months=3.0, window_months=3),
        )
        first = engine.step_window(
            StreamWindow(index=0, start_month=0.0, end_month=1.0,
                         events=tuple(timed(0.5, partition="p0")), cause="time")
        )
        assert first.reoptimized  # cold start always fires
        quiet = engine.step_window(
            StreamWindow(index=1, start_month=1.0, end_month=2.0,
                         events=(), cause="time")
        )
        assert not quiet.reoptimized
        drifted = engine.step_window(
            StreamWindow(index=2, start_month=2.0, end_month=2.6,
                         events=tuple(timed(2.3, partition="p1")), cause="drift")
        )
        assert drifted.reoptimized

    def test_run_stream_wires_drift_baseline(self, oracle_setup):
        partitions, tiers, stream = oracle_setup
        engine = make_engine(partitions, tiers)
        inner = DriftTrigger(threshold=0.8)
        trigger = AnyTrigger(TimeTrigger(1.0), inner)
        engine.run_stream(stream, trigger, horizon_months=2.0)
        assert inner.baseline_provider is not None
        # After the cold-start reoptimization there is an applied forecast.
        assert inner.baseline_provider() == engine.last_applied_forecast
        assert engine.last_applied_forecast is not None

    def test_explicit_baseline_provider_is_left_alone(self, oracle_setup):
        partitions, tiers, stream = oracle_setup
        engine = make_engine(partitions, tiers)
        provider = lambda: {"p0": 1.0}  # noqa: E731
        trigger = DriftTrigger(threshold=0.8, baseline_provider=provider)
        engine.run_stream(stream, trigger, horizon_months=1.0)
        assert trigger.baseline_provider is provider

    def test_windowed_run_emits_spans_and_close_counters(self, oracle_setup):
        from repro import obs

        partitions, tiers, stream = oracle_setup
        engine = make_engine(partitions, tiers)
        with obs.observed() as run:
            report = engine.run_stream(
                stream, TimeTrigger(1.0), horizon_months=2.0
            )
        names = {record.name for record in run.tracer.records()}
        assert {"engine.window", "engine.settle", "engine.ingest"} <= names
        closes = {
            sample.labels.get("cause"): sample.value
            for sample in run.snapshot().metrics
            if sample.name == "engine.window_closes"
        }
        assert closes["time"] == 1
        assert closes["horizon"] == 1
        assert sum(closes.values()) == len(report.records)

    def test_observed_windowed_run_is_bill_identical(self, oracle_setup):
        from repro import obs

        partitions, tiers, stream = oracle_setup
        baseline = make_engine(partitions, tiers).run_stream(
            stream, TimeTrigger(1.0), horizon_months=3.0
        )
        with obs.observed():
            traced = make_engine(partitions, tiers).run_stream(
                stream, TimeTrigger(1.0), horizon_months=3.0
            )
        assert traced.total_bill == baseline.total_bill

    def test_zero_width_flush_window_settles_raw_counts(self, oracle_setup):
        partitions, tiers, _ = oracle_setup
        engine = make_engine(partitions, tiers)
        record = engine.step_window(
            StreamWindow(index=0, start_month=0.0, end_month=0.0,
                         events=tuple(timed(0.0, partition="p0", reads=3.0)),
                         cause="flush")
        )
        assert record.storage_cost == 0.0
        assert engine.feature_store.window_reads("p0") == 3.0
