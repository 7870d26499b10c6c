"""The columnar streaming path against its per-event oracles, bit for bit.

Hypothesis draws small multi-stream inputs with timestamp ties inside and
across streams, fractional and zero reads, an optional horizon, a
``start_month`` past zero and chunk sizes of 1, 7 and 8192.  For every
trigger (count, time, drift and compositions) the columnar merge +
``windowed`` must cut the same windows with the same causes and the same
events in the same order as ``heapq.merge`` + the per-event loop in
``tests/oracles/streams.py``; a fleet driven both ways must split the same
per-tenant events and settle identical records and bills; and the columnar
billing step must equal the per-event billing loop.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.streams import (
    ScalarAnyTrigger,
    ScalarCountTrigger,
    ScalarDriftTrigger,
    ScalarTimeTrigger,
    heap_merge,
    scalar_poisson_zipf,
    scalar_run_streams,
    scalar_step,
    scalar_windowed,
)
from repro.cloud import (
    CloudStorageSimulator,
    DataPartition,
    EventBatch,
    PlacementDecision,
    TimedEvent,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.engine import (
    AnyTrigger,
    CountTrigger,
    DriftTrigger,
    EngineConfig,
    PeriodicReoptimize,
    TimeTrigger,
    windowed,
)
from repro.fleet import FleetScheduler, TenantSpec
from repro.workloads import (
    PoissonZipfStream,
    compose_modulations,
    diurnal_modulation,
    flash_crowd,
    merge_streams,
)

NAMES = ("p0", "p1", "p2", "p3")
BASELINE = {"p0": 6.0, "p1": 2.0, "p2": 1.0}
READS = (0.0, 0.3, 0.5, 1.0, 1.5, 2.5, 3.0)
CHUNK_SIZES = (1, 7, 8192)

# Grid times make ties; micro-month times stay clear of subnormal window
# widths, whose rates overflow in any engine.
times = st.one_of(
    st.integers(min_value=0, max_value=24).map(lambda k: k / 8),
    st.integers(min_value=0, max_value=2_999_999).map(lambda k: k / 1e6),
)
event = st.tuples(times, st.sampled_from(NAMES), st.sampled_from(READS))
streams_strategy = st.lists(
    st.lists(event, max_size=30).map(sorted), min_size=1, max_size=3
)

count_spec = st.tuples(st.just("count"), st.integers(min_value=1, max_value=6))
time_spec = st.tuples(st.just("time"), st.sampled_from((0.25, 0.3, 0.5, 1.0)))
drift_spec = st.tuples(
    st.just("drift"),
    st.tuples(
        st.sampled_from((0.05, 0.3, 0.6)),
        st.sampled_from((0.1, 0.25)),
        st.sampled_from((1, 2, 5)),
    ),
)
single_spec = st.one_of(count_spec, time_spec, drift_spec)
trigger_spec = st.one_of(
    single_spec,
    st.tuples(st.just("any"), st.lists(single_spec, min_size=2, max_size=3)),
)


def build_triggers(spec):
    """The same trigger spec as a (columnar, scalar) pair of fresh triggers."""
    kind, arg = spec
    if kind == "count":
        return CountTrigger(arg), ScalarCountTrigger(arg)
    if kind == "time":
        return TimeTrigger(arg), ScalarTimeTrigger(arg)
    if kind == "drift":
        threshold, min_width, check_every = arg
        options = dict(
            min_width_months=min_width,
            check_every=check_every,
            baseline_provider=lambda: BASELINE,
        )
        return (
            DriftTrigger(threshold, **options),
            ScalarDriftTrigger(threshold, **options),
        )
    pairs = [build_triggers(member) for member in arg]
    return (
        AnyTrigger(*(columnar for columnar, _ in pairs)),
        ScalarAnyTrigger(*(scalar for _, scalar in pairs)),
    )


def drift_scores(trigger):
    """``last_score`` of every drift trigger in a (possibly composite) trigger."""
    members = getattr(trigger, "triggers", (trigger,))
    return [member.last_score for member in members if member.cause == "drift"]


def timed_streams(raw, start_month, tenants=None):
    return [
        [
            TimedEvent(
                t=start_month + t,
                partition=name,
                reads=reads,
                tenant=None if tenants is None else tenants[i],
            )
            for t, name, reads in stream
        ]
        for i, stream in enumerate(raw)
    ]


def chunked(events, size):
    return [
        EventBatch.from_events(events[i : i + size])
        for i in range(0, len(events), size)
    ]


def window_view(window):
    return (
        window.index,
        window.start_month,
        window.end_month,
        window.cause,
        list(window.events),
        list(window.reads_by_partition().items()),
    )


horizons = st.one_of(st.none(), st.sampled_from((1.0, 2.5, 4.0)))
starts = st.sampled_from((0.0, 0.75))


class TestWindowsMatchPerEventOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        raw=streams_strategy,
        spec=trigger_spec,
        start_month=starts,
        horizon=horizons,
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_spans_causes_and_events(self, raw, spec, start_month, horizon, chunk_size):
        streams = timed_streams(raw, start_month, tenants=("a", "b", "c"))
        columnar, scalar = build_triggers(spec)
        merged = merge_streams(*(chunked(events, chunk_size) for events in streams))
        got = [
            window_view(window)
            for window in windowed(
                merged, columnar, start_month=start_month, horizon_months=horizon
            )
        ]
        expected = [
            window_view(window)
            for window in scalar_windowed(
                heap_merge(*streams),
                scalar,
                start_month=start_month,
                horizon_months=horizon,
            )
        ]
        assert got == expected
        assert drift_scores(columnar) == drift_scores(scalar)

    @settings(max_examples=100, deadline=None)
    @given(raw=streams_strategy, chunk_size=st.sampled_from(CHUNK_SIZES))
    def test_merge_matches_heap_merge(self, raw, chunk_size):
        streams = timed_streams(raw, 0.0, tenants=("a", None, "c"))
        merged = merge_streams(*(chunked(events, chunk_size) for events in streams))
        assert list(merged) == list(heap_merge(*streams))


def tenant_partitions():
    return [
        DataPartition(
            name=name,
            size_gb=80.0 + 30.0 * i,
            predicted_accesses=4.0,
            latency_threshold_s=7200.0,
            current_tier=0,
        )
        for i, name in enumerate(NAMES)
    ]


def make_fleet(tenants):
    specs = [
        TenantSpec(
            name=name,
            partitions=tenant_partitions(),
            policy=PeriodicReoptimize(period_months=2),
            stream=iter(()),
            config=EngineConfig(horizon_months=3.0, window_months=3),
        )
        for name in tenants
    ]
    scheduler = FleetScheduler(specs, multi_cloud_catalog())
    seen: list[dict] = []
    step_window = scheduler.step_window

    def recording(windows):
        seen.append({name: list(window.events) for name, window in windows.items()})
        step_window(windows)

    scheduler.step_window = recording
    return scheduler, seen


def record_view(report):
    return {
        name: [
            {k: v for k, v in asdict(record).items() if k != "wall_clock_s"}
            for record in tenant_report.records
        ]
        for name, tenant_report in report.tenant_reports.items()
    }


class TestFleetMatchesPerEventOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        raw=st.lists(
            st.lists(event, max_size=25).map(sorted), min_size=2, max_size=2
        ),
        spec=trigger_spec,
        start_month=starts,
        horizon=horizons,
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_tenant_events_records_and_bills(
        self, raw, spec, start_month, horizon, chunk_size
    ):
        tenants = ("acme", "globex")
        # Untagged events: both paths attribute them by mapping key.
        streams = timed_streams(raw, start_month)
        columnar, scalar = build_triggers(spec)

        got_fleet, got_windows = make_fleet(tenants)
        got = got_fleet.run_streams(
            {
                name: chunked(events, chunk_size)
                for name, events in zip(tenants, streams)
            },
            columnar,
            start_month=start_month,
            horizon_months=horizon,
        )
        expected_fleet, expected_windows = make_fleet(tenants)
        expected = scalar_run_streams(
            expected_fleet,
            dict(zip(tenants, streams)),
            scalar,
            start_month=start_month,
            horizon_months=horizon,
        )
        assert got_windows == expected_windows
        assert record_view(got) == record_view(expected)
        assert got.total_bill == expected.total_bill


class TestBillingMatchesPerEventLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(event, max_size=60),
        storage_months=st.sampled_from((0.0, 0.25, 1.0)),
        tiers=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
    )
    def test_step_is_bit_identical(self, events, storage_months, tiers):
        simulator = CloudStorageSimulator(
            azure_tier_catalog(include_premium=False, include_archive=True)
        )
        placement = {
            name: PlacementDecision(tier_index=tier) for name, tier in zip(NAMES, tiers)
        }
        compiled = simulator.compile_placement(tenant_partitions(), placement)
        timed = [TimedEvent(t=t, partition=p, reads=r) for t, p, r in events]
        step = compiled.step(EventBatch.from_events(timed), storage_months)
        storage, read, decompression, latency, count, violations = scalar_step(
            compiled, timed, storage_months
        )
        assert (step.bill.storage, step.bill.read, step.bill.decompression) == (
            storage,
            read,
            decompression,
        )
        assert (step.access_count, step.latency_violations) == (count, violations)
        assert step.mean_latency_s == (latency / count if count else 0.0)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("modulated", [False, True])
def test_generated_chunks_match_per_event_generator(chunk_size, modulated):
    modulation = None
    if modulated:
        modulation = compose_modulations(
            diurnal_modulation(0.5), flash_crowd(0.5, magnitude=4.0)
        )
    stream = PoissonZipfStream(
        ["a", "b", "c", "a"],  # a repeated name keeps both popularity ranks
        rate_per_month=800.0,
        horizon_months=1.5,
        seed=9,
        modulation=modulation,
        reads_per_event=1.5,
        start_month=0.25,
        tenant="acme",
        chunk_size=chunk_size if chunk_size < 8192 else 512,
    )
    assert list(stream) == list(scalar_poisson_zipf(stream))


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_tie_across_streams_goes_to_lower_stream(chunk_size):
    first = [TimedEvent(t=0.5, partition="p0", tenant="a")] * 3
    second = [TimedEvent(t=0.5, partition="p1", tenant="b")] * 2
    merged = merge_streams(chunked(second, chunk_size), chunked(first, chunk_size))
    assert [event.tenant for event in merged] == ["b", "b", "a", "a", "a"]
