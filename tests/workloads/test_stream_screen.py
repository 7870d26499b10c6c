"""The thinning screen of ``PoissonZipfStream.chunks()`` against its oracle.

A modulated stream rejects, without evaluating ``fn``, every candidate of a
chunk whose acceptance uniform is at or above the modulation's bound over the
chunk's span (:meth:`RateModulation.bound`).  These tests pin that the screen
changes nothing the stream yields:

* hypothesis draws diurnal cycles, flash crowds whose burst starts or ends
  exactly on a chunk's first or last candidate time or at the horizon,
  compositions in either order, a user modulation without a peak and no
  modulation at all, and the stream must equal the per-event oracle of
  ``tests/oracles/streams.py`` (which evaluates ``fn`` on every candidate)
  event for event;
* every constructor's ``fn`` stays at or below its peak, float for float;
* on a firehose-shaped stream, ``fn`` sees no more than the screened share
  of the candidates;
* every chunk passes the validating :class:`~repro.cloud.EventBatch`
  constructor, which the generator skips.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.streams import scalar_poisson_zipf
from repro.cloud import EventBatch
from repro.workloads import (
    PoissonZipfStream,
    RateModulation,
    compose_modulations,
    diurnal_modulation,
    flash_crowd,
)


def user_modulation(amplitude: float) -> RateModulation:
    """A modulation built by hand, without a peak: thinned as before."""
    return RateModulation(
        fn=lambda t: 1.0 + amplitude * np.cos(7.0 * t), ceiling=1.0 + amplitude
    )


def ending_at(start: float, end: float) -> float:
    """A duration ``d`` with ``start + d == end`` in floats, when one is near."""
    duration = end - start
    for _ in range(8):
        reached = start + duration
        if reached == end:
            break
        duration = float(np.nextafter(duration, math.inf if reached < end else 0.0))
    return duration


def chunk_spans(kwargs: dict, modulation: RateModulation) -> list[tuple[float, float]]:
    """The first and last candidate time of each chunk of a stream."""
    spans: list[tuple[float, float]] = []

    def peak(first: float, last: float) -> float:
        spans.append((first, last))
        return modulation.bound(first, last)

    probe = replace(modulation, peak=peak)
    for _ in PoissonZipfStream(**kwargs, modulation=probe).chunks():
        pass
    return spans


ORDERS = ("flash", "diurnal", "flash*diurnal", "diurnal*flash", "user*flash", "flash*user")
BURST_EDGES = (
    "start@first",
    "start@last",
    "span",
    "end@first0",
    "end@horizon",
    "start@horizon",
    "free",
)


def compose(order: str, burst: RateModulation, cycle, user) -> RateModulation:
    members = {"flash": burst, "diurnal": cycle, "user": user}
    return compose_modulations(*(members[name] for name in order.split("*")))


@st.composite
def streams(draw):
    chunk_size = draw(st.sampled_from([1, 7, 512, 8192]))
    start_month = draw(st.sampled_from([0.0, 0.25, 3.0]) | st.floats(0.0, 5.0))
    horizon = draw(st.sampled_from([0.5, 1.0]) | st.floats(0.05, 3.0))
    end = start_month + horizon
    order = draw(st.sampled_from(ORDERS + ("none",)))
    cycle = diurnal_modulation(draw(st.floats(0.0, 1.0)), draw(st.floats(1e-3, 2.0)))
    user = user_modulation(draw(st.floats(0.0, 1.0)))
    magnitude = draw(st.sampled_from([5.0]) | st.floats(1.0, 8.0))
    duration = horizon * draw(st.floats(1e-3, 0.5))
    # The same ceiling with the burst past the horizon draws the same
    # candidates up to the burst, so its chunk spans are where to aim it.
    probe = None
    if order != "none":
        probe = compose(order, flash_crowd(end + 1.0, magnitude, duration), cycle, user)
    # Up to two chunks and then some, so that most streams span chunks
    # both off and on the burst.
    candidates = draw(st.integers(1, 2 * chunk_size + 1200))
    kwargs = dict(
        # Repeated names keep both popularity ranks under one code.
        partitions=draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=6)),
        rate_per_month=candidates / (horizon * (probe.ceiling if probe else 1.0)),
        horizon_months=horizon,
        seed=draw(st.integers(0, 2**16)),
        reads_per_event=draw(st.sampled_from([1.0, 2.5])),
        start_month=start_month,
        tenant=draw(st.sampled_from([None, "acme"])),
        chunk_size=chunk_size,
    )
    if probe is None:
        return PoissonZipfStream(**kwargs)
    spans = chunk_spans(kwargs, probe) or [(start_month, end)]
    first, last = spans[draw(st.integers(0, len(spans) - 1))]
    edge = draw(st.sampled_from(BURST_EDGES))
    if edge == "start@first":
        start = first
    elif edge == "start@last":
        start = last
    elif edge == "span" and first < last:
        start, duration = first, ending_at(first, last)
    elif edge == "end@first0":
        start = spans[0][0] - duration
        duration = ending_at(start, spans[0][0])
    elif edge == "end@horizon":
        start = end - duration
        duration = ending_at(start, end)
    elif edge == "start@horizon":
        start = end
    else:
        start = draw(st.floats(start_month - 1.0, end + 1.0))
    burst = flash_crowd(start, magnitude, duration)
    return PoissonZipfStream(**kwargs, modulation=compose(order, burst, cycle, user))


def check_chunks(stream: PoissonZipfStream) -> None:
    """Every chunk is what the validating constructor builds from its
    columns, with times in order inside the horizon."""
    end = stream.start_month + stream.horizon_months
    for chunk in stream.chunks():
        rebuilt = EventBatch(
            chunk.t,
            chunk.code,
            chunk.reads,
            chunk.vocab,
            tenant=chunk.tenant,
            tenants=chunk.tenants,
        )
        assert len(chunk) > 0
        assert chunk.t.dtype == rebuilt.t.dtype
        assert chunk.code.dtype == rebuilt.code.dtype
        assert chunk.reads.dtype == rebuilt.reads.dtype
        assert (chunk.vocab, chunk.tenant, chunk.tenants) == (
            rebuilt.vocab,
            rebuilt.tenant,
            rebuilt.tenants,
        )
        assert np.all(np.diff(chunk.t) >= 0)
        assert stream.start_month <= chunk.t[0] and chunk.t[-1] < end
        assert np.all(chunk.reads == stream.reads_per_event)


@settings(max_examples=100, deadline=None)
@given(streams())
def test_stream_matches_per_event_oracle(stream):
    assert list(stream) == list(scalar_poisson_zipf(stream))
    check_chunks(stream)


def near(edge: float):
    """Floats at, just below and just above ``edge``."""
    return st.sampled_from(
        [edge, float(np.nextafter(edge, -math.inf)), float(np.nextafter(edge, math.inf))]
    )


@st.composite
def modulations_and_spans(draw):
    start = draw(st.floats(-2.0, 10.0))
    duration = draw(st.floats(1e-6, 3.0))
    burst = flash_crowd(start, draw(st.floats(1.0, 20.0)), duration)
    cycle = diurnal_modulation(draw(st.floats(0.0, 1.0)), draw(st.floats(1e-4, 5.0)))
    user = user_modulation(draw(st.floats(0.0, 1.0)))
    order = draw(st.sampled_from(ORDERS + ("user", "nested")))
    if order == "nested":
        modulation = compose_modulations(compose_modulations(burst, cycle), burst)
    else:
        modulation = compose(order, burst, cycle, user)
    end = start + duration
    point = st.floats(-3.0, 14.0) | near(start) | near(end)
    first, last = sorted((draw(point), draw(point)))
    edges = np.nextafter([start, start, end, end], [-math.inf, math.inf] * 2)
    times = [first, last] + [
        float(t) for t in (start, end, *edges) if first <= t <= last
    ]
    times += draw(st.lists(st.floats(first, last), max_size=20))
    return modulation, first, last, np.array(times)


@settings(max_examples=300, deadline=None)
@given(modulations_and_spans())
def test_fn_never_exceeds_peak_over_span(case):
    modulation, first, last, times = case
    peak = modulation.bound(first, last)
    assert np.all(modulation.fn(times) <= peak)
    assert peak <= modulation.ceiling


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-4, 5.0), st.floats(0.0, 1e6))
def test_diurnal_never_exceeds_its_ceiling(amplitude, period, t):
    cycle = diurnal_modulation(amplitude, period)
    times = np.array([t, *np.nextafter(t, [0.0, math.inf])])
    assert np.all(cycle.fn(times) <= cycle.bound(t, t))
    assert cycle.bound(0.0, t) == cycle.ceiling


def test_bound_without_peak_is_the_ceiling():
    modulation = user_modulation(0.5)
    assert modulation.peak is None
    assert modulation.bound(0.0, 1.0) == modulation.ceiling == 1.5


def test_flash_peak_meets_burst_on_half_open_span():
    burst = flash_crowd(2.0, magnitude=5.0, duration_months=0.5)
    assert burst.bound(1.0, 1.999) == 1.0
    assert burst.bound(1.0, 2.0) == 5.0
    assert burst.bound(2.499, 3.0) == 5.0
    assert burst.bound(2.5, 3.0) == 1.0


def test_composed_peak_multiplies_members_in_order():
    burst = flash_crowd(2.0, magnitude=5.0, duration_months=0.5)
    cycle = diurnal_modulation(0.5)
    assert compose_modulations(cycle, burst).bound(0.0, 1.0) == 1.5
    assert compose_modulations(burst, cycle).bound(2.1, 2.2) == 7.5
    assert compose_modulations(cycle, burst).ceiling == 7.5


def test_firehose_shaped_stream_evaluates_fn_on_screened_share():
    """Away from the burst no uniform at or above ``1.5 / 7.5`` can be kept,
    so ``fn`` sees a fifth of those candidates, and all of the few percent
    in chunks that meet the burst.  A stream whose modulation has no peak
    draws the same candidates and evaluates ``fn`` on every one."""
    seen = {"screened": 0, "full": 0}
    modulation = compose_modulations(
        diurnal_modulation(amplitude=0.5),
        flash_crowd(start_month=4.0, magnitude=5.0, duration_months=0.25),
    )

    def counting(key):
        def fn(t):
            seen[key] += len(t)
            return modulation.fn(t)

        return fn

    # The rate of firehose's heaviest tenant.
    kwargs = dict(
        partitions=[f"p{i:02d}" for i in range(64)],
        rate_per_month=13_800.0,
        horizon_months=12.0,
        seed=57,
    )
    screened = PoissonZipfStream(
        **kwargs, modulation=replace(modulation, fn=counting("screened"))
    )
    full = PoissonZipfStream(
        **kwargs, modulation=replace(modulation, fn=counting("full"), peak=None)
    )
    screened_chunks = list(screened.chunks())
    full_chunks = list(full.chunks())
    assert len(screened_chunks) == len(full_chunks)
    for left, right in zip(screened_chunks, full_chunks):
        assert left.t.tobytes() == right.t.tobytes()
        assert left.code.tobytes() == right.code.tobytes()
    assert seen["full"] > 1_000_000
    assert seen["screened"] <= 0.23 * seen["full"]
