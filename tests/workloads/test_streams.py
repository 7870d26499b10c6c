"""Continuous event streams: re-iterability, thinning, traces, merging."""

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.cloud import TimedEvent
from repro.engine import CountTrigger, windowed
from repro.workloads import (
    PoissonZipfStream,
    RateModulation,
    TraceStream,
    compose_modulations,
    diurnal_modulation,
    flash_crowd,
    merge_streams,
    tenant_rate_skew,
    write_trace_csv,
)


class TestTimedEvent:
    def test_month_is_floor_of_time(self):
        assert TimedEvent(t=2.75, partition="a").month == 2
        assert TimedEvent(t=0.0, partition="a").month == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimedEvent(t=-0.1, partition="a")

    def test_negative_reads_rejected(self):
        with pytest.raises(ValueError):
            TimedEvent(t=0.0, partition="a", reads=-1.0)


class TestPoissonZipfStream:
    def test_reiteration_yields_identical_sequence(self):
        stream = PoissonZipfStream(
            ["a", "b", "c"], rate_per_month=200.0, horizon_months=2.0, seed=7
        )
        first = list(stream)
        second = list(stream)
        assert first == second
        assert first  # not vacuous

    def test_events_are_time_ordered_within_horizon(self):
        stream = PoissonZipfStream(
            ["a", "b"], rate_per_month=300.0, horizon_months=3.0, seed=3
        )
        times = [event.t for event in stream]
        assert times == sorted(times)
        assert all(0.0 <= t < 3.0 for t in times)

    def test_event_count_matches_rate(self):
        stream = PoissonZipfStream(
            ["a"], rate_per_month=1000.0, horizon_months=4.0, seed=11
        )
        count = sum(1 for _ in stream)
        # Poisson(4000): 5 sigma is ~316.
        assert abs(count - 4000) < 320

    def test_zipf_popularity_is_skewed(self):
        stream = PoissonZipfStream(
            [f"p{i}" for i in range(20)],
            rate_per_month=5000.0,
            horizon_months=1.0,
            zipf_exponent=1.2,
            seed=5,
        )
        counts: dict[str, int] = {}
        for event in stream:
            counts[event.partition] = counts.get(event.partition, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        # Head partition dwarfs the tail under a 1.2 exponent.
        assert ordered[0] > 5 * ordered[-1]

    def test_zero_exponent_is_roughly_uniform(self):
        stream = PoissonZipfStream(
            ["a", "b", "c", "d"],
            rate_per_month=8000.0,
            horizon_months=1.0,
            zipf_exponent=0.0,
            seed=13,
        )
        counts: dict[str, int] = {}
        for event in stream:
            counts[event.partition] = counts.get(event.partition, 0) + 1
        values = list(counts.values())
        assert max(values) < 1.3 * min(values)

    def test_tenant_and_reads_are_stamped(self):
        stream = PoissonZipfStream(
            ["a"],
            rate_per_month=50.0,
            horizon_months=1.0,
            seed=1,
            tenant="acme",
            reads_per_event=2.5,
        )
        events = list(stream)
        assert all(event.tenant == "acme" for event in events)
        assert all(event.reads == 2.5 for event in events)

    def test_start_month_offsets_the_stream(self):
        stream = PoissonZipfStream(
            ["a"], rate_per_month=100.0, horizon_months=1.0, seed=2, start_month=5.0
        )
        times = [event.t for event in stream]
        assert all(5.0 <= t < 6.0 for t in times)

    def test_chunk_size_is_an_implementation_detail(self):
        """Chunking shifts RNG interleaving but not the process statistics."""
        kwargs = dict(rate_per_month=1500.0, horizon_months=2.0, seed=9)
        small = list(PoissonZipfStream(["a", "b"], chunk_size=7, **kwargs))
        large = list(PoissonZipfStream(["a", "b"], chunk_size=4096, **kwargs))
        for events in (small, large):
            times = [event.t for event in events]
            assert times == sorted(times)
        # Both are Poisson(3000) draws: 5 sigma apart is ~548.
        assert abs(len(small) - len(large)) < 600

    def test_flash_crowd_concentrates_events(self):
        stream = PoissonZipfStream(
            ["a"],
            rate_per_month=500.0,
            horizon_months=1.0,
            seed=17,
            modulation=flash_crowd(start_month=0.4, magnitude=20.0,
                                   duration_months=0.1),
        )
        inside = outside = 0
        for event in stream:
            if 0.4 <= event.t < 0.5:
                inside += 1
            else:
                outside += 1
        # The burst window is 1/10 of the horizon but at 20x rate it should
        # hold the majority of all events.
        assert inside > outside

    def test_diurnal_modulation_preserves_mean_rate(self):
        base = 2000.0
        plain = sum(
            1
            for _ in PoissonZipfStream(
                ["a"], rate_per_month=base, horizon_months=3.0, seed=23
            )
        )
        modulated = sum(
            1
            for _ in PoissonZipfStream(
                ["a"],
                rate_per_month=base,
                horizon_months=3.0,
                seed=23,
                modulation=diurnal_modulation(amplitude=0.8),
            )
        )
        # The sinusoid integrates to ~1 over whole periods, so counts agree
        # within sampling noise (Poisson(6000): 5 sigma ~ 387).
        assert abs(modulated - plain) < 500

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonZipfStream([], rate_per_month=1.0, horizon_months=1.0)
        with pytest.raises(ValueError):
            PoissonZipfStream(["a"], rate_per_month=0.0, horizon_months=1.0)
        with pytest.raises(ValueError):
            PoissonZipfStream(["a"], rate_per_month=1.0, horizon_months=0.0)
        with pytest.raises(ValueError):
            PoissonZipfStream(
                ["a"], rate_per_month=1.0, horizon_months=1.0, zipf_exponent=-1.0
            )
        with pytest.raises(ValueError):
            PoissonZipfStream(
                ["a"], rate_per_month=1.0, horizon_months=1.0, reads_per_event=0.0
            )
        with pytest.raises(ValueError):
            PoissonZipfStream(
                ["a"], rate_per_month=1.0, horizon_months=1.0, start_month=-1.0
            )
        with pytest.raises(ValueError):
            PoissonZipfStream(
                ["a"], rate_per_month=1.0, horizon_months=1.0, chunk_size=0
            )
        valid = {"rate_per_month": 1.0, "horizon_months": 1.0}
        prefixes = {
            "rate_per_month": "rate_per_month must be positive",
            "horizon_months": "horizon_months must be positive",
            "start_month": "start_month must be non-negative",
            "zipf_exponent": "zipf_exponent must be non-negative",
            "reads_per_event": "reads_per_event must be positive",
        }
        for field, prefix in prefixes.items():
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=prefix):
                    PoissonZipfStream(["a"], **{**valid, field: value})


class TestRateModulation:
    def test_ceiling_must_be_positive(self):
        with pytest.raises(ValueError):
            RateModulation(fn=lambda t: t, ceiling=0.0)

    def test_diurnal_amplitude_bounds(self):
        with pytest.raises(ValueError):
            diurnal_modulation(amplitude=1.5)
        with pytest.raises(ValueError):
            diurnal_modulation(amplitude=0.5, period_months=0.0)

    def test_flash_crowd_bounds(self):
        with pytest.raises(ValueError):
            flash_crowd(0.0, magnitude=0.5)
        with pytest.raises(ValueError):
            flash_crowd(0.0, duration_months=0.0)

    def test_compose_multiplies_fn_and_ceiling(self):
        burst = flash_crowd(0.2, magnitude=4.0, duration_months=0.2)
        cycle = diurnal_modulation(amplitude=0.5, period_months=1.0)
        combo = compose_modulations(burst, cycle)
        assert combo.ceiling == pytest.approx(4.0 * 1.5)
        t = np.array([0.25])
        expected = burst.fn(t) * cycle.fn(t)
        assert combo.fn(t) == pytest.approx(expected)

    def test_compose_requires_arguments(self):
        with pytest.raises(ValueError):
            compose_modulations()

    def test_compose_single_is_identity(self):
        cycle = diurnal_modulation()
        assert compose_modulations(cycle) is cycle


class TestTraceStream:
    def test_round_trip_through_csv(self, tmp_path):
        stream = PoissonZipfStream(
            ["a", "b"], rate_per_month=80.0, horizon_months=1.0, seed=4
        )
        path = tmp_path / "trace.csv"
        count = write_trace_csv(path, stream)
        replayed = list(TraceStream(path))
        assert len(replayed) == count
        original = list(stream)
        assert [e.t for e in replayed] == [e.t for e in original]
        assert [e.partition for e in replayed] == [e.partition for e in original]
        assert [e.reads for e in replayed] == [e.reads for e in original]

    def test_reads_column_defaults_to_one(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,partition,reads\n0.5,a,\n0.6,b,3\n")
        events = list(TraceStream(path))
        assert events[0].reads == 1.0
        assert events[1].reads == 3.0

    def test_time_scale_rescales_to_months(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,partition,reads\n15,a,1\n")
        events = list(TraceStream(path, time_scale=1.0 / 30.0))
        assert events[0].t == pytest.approx(0.5)

    def test_tenant_tagging(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,partition,reads\n0.5,a,1\n")
        assert list(TraceStream(path, tenant="acme"))[0].tenant == "acme"

    @pytest.mark.parametrize(
        "row", ["nan,p,1", "inf,p,1", "0.3,p,nan", "0.4,p,inf", "0.5,p,-inf"]
    )
    def test_non_finite_rows_are_rejected(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,partition,reads\n0.1,p,1\n{row}\n")
        with pytest.raises(ValueError, match="must be (finite|non-negative)"):
            list(TraceStream(path))

    def test_validator_rejects_non_finite_cells(self, tmp_path):
        tool = Path(__file__).resolve().parents[2] / "tools" / "validate_trace_csv.py"
        spec = importlib.util.spec_from_file_location("validate_trace_csv", tool)
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        schema = json.loads(validator.DEFAULT_SCHEMA.read_text())
        path = tmp_path / "trace.csv"
        path.write_text(
            "t,partition,reads\n0.1,p,1\nnan,p,1\n0.3,p,nan\n0.4,p,inf\n0.5,p,-inf\n"
        )
        errors = validator.validate_trace(path, schema)
        assert [error.split(": ", 1)[1] for error in errors] == [
            "line 3: t=nan is not finite",
            "line 4: reads=nan is not finite",
            "line 5: reads=inf is not finite",
            "line 6: reads=-inf is not finite",
        ]

    def test_unsorted_trace_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,partition,reads\n2.0,a,1\n1.0,b,1\n")
        with pytest.raises(ValueError, match="line 3.*backwards"):
            list(TraceStream(path))

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,name\n1,a\n")
        with pytest.raises(ValueError, match="missing required columns"):
            list(TraceStream(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            list(TraceStream(path))

    def test_bad_time_and_reads_report_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,partition,reads\nnope,a,1\n")
        with pytest.raises(ValueError, match="line 2.*bad time"):
            list(TraceStream(path))
        path.write_text("t,partition,reads\n1.0,a,many\n")
        with pytest.raises(ValueError, match="line 2.*bad reads"):
            list(TraceStream(path))

    def test_empty_partition_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,partition,reads\n1.0,,1\n")
        with pytest.raises(ValueError, match="empty partition"):
            list(TraceStream(path))

    def test_nonpositive_time_scale_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TraceStream(tmp_path / "x.csv", time_scale=0.0)


class TestMergeStreams:
    def test_merged_stream_is_time_ordered_and_complete(self):
        left = PoissonZipfStream(
            ["a"], rate_per_month=60.0, horizon_months=1.0, seed=1, tenant="left"
        )
        right = PoissonZipfStream(
            ["b"], rate_per_month=60.0, horizon_months=1.0, seed=2, tenant="right"
        )
        merged = list(merge_streams(left, right))
        times = [event.t for event in merged]
        assert times == sorted(times)
        assert len(merged) == len(list(left)) + len(list(right))

    def test_merge_is_reiterable(self):
        left = PoissonZipfStream(["a"], rate_per_month=40.0, horizon_months=1.0,
                                 seed=3)
        right = PoissonZipfStream(["b"], rate_per_month=40.0, horizon_months=1.0,
                                  seed=4)
        merged = merge_streams(left, right)
        assert list(merged) == list(merged)

    def test_merge_requires_streams(self):
        with pytest.raises(ValueError):
            merge_streams()

    def test_merged_windowing_memory_is_bounded_by_chunks_not_stream(self):
        # 4 x 250k events.  Their columns alone take 32 MB (t, code, reads,
        # tenant); the merge buffers one 8192-candidate chunk per stream and
        # the window holds 10k events, which peaks near 6 MB.
        streams = [
            PoissonZipfStream(
                [f"p{i}" for i in range(64)],
                rate_per_month=250_000.0,
                horizon_months=1.0,
                seed=seed,
                tenant=f"t{seed}",
            )
            for seed in range(4)
        ]
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            windowed_events = sum(
                len(window.events)
                for window in windowed(merge_streams(*streams), CountTrigger(10_000))
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert windowed_events > 990_000
        assert peak - baseline < 10e6


class TestTenantRateSkew:
    def test_rates_sum_to_total_and_skew(self):
        rates = tenant_rate_skew(900.0, ["big", "mid", "small"], exponent=1.0)
        assert sum(rates.values()) == pytest.approx(900.0)
        assert rates["big"] > rates["mid"] > rates["small"]

    def test_zero_exponent_splits_evenly(self):
        rates = tenant_rate_skew(900.0, ["a", "b", "c"], exponent=0.0)
        assert all(math.isclose(rate, 300.0) for rate in rates.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            tenant_rate_skew(0.0, ["a"])
        with pytest.raises(ValueError):
            tenant_rate_skew(1.0, [])
        with pytest.raises(ValueError):
            tenant_rate_skew(1.0, ["a"], exponent=-1.0)
