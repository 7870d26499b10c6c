"""Per-event oracles for the columnar streaming path.

These are the one-object-per-event implementations the library replaced
with numpy chunks: a :func:`heapq.merge` of timed events, the per-event
``windowed`` loop with its ``boundary_before``/``close_after`` trigger
protocol, the per-event tenant split of a merged window and the per-event
billing loop.  They are slow and obviously correct; the columnar path must
reproduce them bit for bit (``tests/engine/test_columnar_oracle.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.cloud import TimedEvent
from repro.cloud.events import stable_order
from repro.engine import StreamWindow
from repro.engine.policies import drift_score


def scalar_poisson_zipf(stream) -> Iterator[TimedEvent]:
    """A :class:`~repro.workloads.PoissonZipfStream` pass, one event object
    per draw: the same draws in the same order as ``chunks()``.  It
    thins without the screen, calling ``exponential``, ``uniform`` and the
    modulation's ``fn`` on every candidate, and names partitions from
    ``stream.partitions``, not from the stream's vocab codes."""
    rng = np.random.default_rng(
        np.random.SeedSequence([stream.seed, 0xA11CE]).generate_state(4)
    )
    modulation = stream.modulation
    ceiling = modulation.ceiling if modulation is not None else 1.0
    envelope_rate = stream.rate_per_month * ceiling
    end = stream.start_month + stream.horizon_months
    t = stream.start_month
    while t < end:
        gaps = rng.exponential(1.0 / envelope_rate, size=stream.chunk_size)
        times = t + np.cumsum(gaps)
        t = float(times[-1])
        times = times[times < end]
        if times.size == 0:
            continue
        if modulation is not None:
            accept = rng.uniform(size=times.size) < modulation.fn(times) / ceiling
            times = times[accept]
            if times.size == 0:
                continue
        choices = np.searchsorted(
            stream._cumulative, rng.uniform(size=times.size), side="right"
        )
        for when, index in zip(times.tolist(), choices.tolist()):
            yield TimedEvent(
                t=when,
                partition=stream.partitions[index],
                reads=stream.reads_per_event,
                tenant=stream.tenant,
            )


def sorted_first_occurrence(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` (non-negative integers) in order of
    first occurrence, by a stable sort of the events: in it each run of
    equal values starts at that value's first occurrence, and marking those
    positions keeps them in event order.  The library's
    :func:`~repro.cloud.events.first_occurrence` scatters instead."""
    order = stable_order(codes)
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keep = np.zeros(len(codes), dtype=bool)
    keep[order[first]] = True
    return codes[keep]


def heap_merge(*streams: Iterable[TimedEvent]) -> Iterator[TimedEvent]:
    """Merge time-ordered streams by event time; ties go to the lower stream."""
    return heapq.merge(*streams, key=lambda event: event.t)


class ScalarCountTrigger:
    cause = "count"

    def __init__(self, max_events: int) -> None:
        self.max_events = max_events
        self._count = 0

    def open(self, start_month: float) -> None:
        self._count = 0

    def boundary_before(self, t: float) -> float | None:
        return None

    def close_after(self, event: TimedEvent) -> float | None:
        self._count += 1
        if self._count >= self.max_events:
            return event.t
        return None


class ScalarTimeTrigger:
    cause = "time"

    def __init__(self, width_months: float) -> None:
        self.width_months = width_months
        self._deadline = 0.0

    def open(self, start_month: float) -> None:
        self._deadline = start_month + self.width_months

    def boundary_before(self, t: float) -> float | None:
        if t >= self._deadline:
            return self._deadline
        return None

    def close_after(self, event: TimedEvent) -> float | None:
        return None


class ScalarDriftTrigger:
    cause = "drift"

    def __init__(
        self,
        threshold: float,
        *,
        min_width_months: float = 0.25,
        check_every: int = 64,
        baseline_provider: Callable[[], Mapping[str, float] | None] | None = None,
    ) -> None:
        self.threshold = threshold
        self.min_width_months = min_width_months
        self.check_every = check_every
        self.baseline_provider = baseline_provider
        self.last_score: float | None = None
        self._start = 0.0
        self._counts: dict[str, float] = {}
        self._since_check = 0

    def open(self, start_month: float) -> None:
        self._start = start_month
        self._counts = {}
        self._since_check = 0

    def boundary_before(self, t: float) -> float | None:
        return None

    def close_after(self, event: TimedEvent) -> float | None:
        self._counts[event.partition] = (
            self._counts.get(event.partition, 0.0) + event.reads
        )
        self._since_check += 1
        if self._since_check < self.check_every:
            return None
        self._since_check = 0
        elapsed = event.t - self._start
        if elapsed < self.min_width_months:
            return None
        baseline = self.baseline_provider() if self.baseline_provider else None
        if not baseline:
            return None
        observed = {name: count / elapsed for name, count in self._counts.items()}
        self.last_score = drift_score(baseline, observed)
        if self.last_score >= self.threshold:
            return event.t
        return None


class ScalarAnyTrigger:
    def __init__(self, *triggers) -> None:
        self.triggers = triggers
        self.cause = triggers[0].cause

    def open(self, start_month: float) -> None:
        for trigger in self.triggers:
            trigger.open(start_month)

    def boundary_before(self, t: float) -> float | None:
        best: float | None = None
        for trigger in self.triggers:
            boundary = trigger.boundary_before(t)
            if boundary is not None and (best is None or boundary < best):
                best = boundary
                self.cause = trigger.cause
        return best

    def close_after(self, event: TimedEvent) -> float | None:
        close: float | None = None
        for trigger in self.triggers:
            fired = trigger.close_after(event)
            if fired is not None and close is None:
                close = fired
                self.cause = trigger.cause
        return close


def scalar_windowed(
    events: Iterable[TimedEvent],
    trigger,
    *,
    start_month: float = 0.0,
    horizon_months: float | None = None,
) -> Iterator[StreamWindow]:
    """The per-event window loop: ``boundary_before`` drains, then the
    event joins the window and ``close_after`` may close it."""
    index = 0
    start = start_month
    pending: list[TimedEvent] = []
    last_t = start_month
    end = None if horizon_months is None else start_month + horizon_months

    def window(end_month: float, cause: str) -> StreamWindow:
        return StreamWindow(
            index=index,
            start_month=start,
            end_month=end_month,
            events=tuple(pending),
            cause=cause,
        )

    trigger.open(start)
    for event in events:
        if event.t < start_month:
            raise ValueError(
                f"event at t={event.t} precedes start_month={start_month}"
            )
        if event.t < last_t:
            raise ValueError(f"events must be time-ordered: {event.t} after {last_t}")
        last_t = event.t
        if end is not None and event.t >= end:
            break
        while (boundary := trigger.boundary_before(event.t)) is not None:
            yield window(boundary, trigger.cause)
            index, start, pending = index + 1, boundary, []
            trigger.open(start)
        pending.append(event)
        close = trigger.close_after(event)
        if close is not None and close > start:
            yield window(close, trigger.cause)
            index, start, pending = index + 1, close, []
            trigger.open(start)
    if end is not None:
        while True:
            boundary = trigger.boundary_before(end)
            if boundary is None or boundary >= end:
                break
            yield window(boundary, trigger.cause)
            index, start, pending = index + 1, boundary, []
            trigger.open(start)
        if pending or start < end:
            yield window(end, "horizon")
    elif pending:
        yield window(last_t, "flush")


def scalar_run_streams(
    scheduler,
    streams: Mapping[str, Iterable[TimedEvent]],
    trigger,
    *,
    start_month: float = 0.0,
    horizon_months: float | None = None,
):
    """``FleetScheduler.run_streams`` with per-event tagging, heap merge,
    per-event windowing and a per-event tenant split."""

    def tagged(name: str, stream: Iterable[TimedEvent]):
        for event in stream:
            yield event if event.tenant == name else replace(event, tenant=name)

    merged = heap_merge(*(tagged(name, stream) for name, stream in streams.items()))
    for window in scalar_windowed(
        merged, trigger, start_month=start_month, horizon_months=horizon_months
    ):
        per_tenant: dict[str, list[TimedEvent]] = {}
        for event in window.events:
            per_tenant.setdefault(event.tenant, []).append(event)
        scheduler.step_window(
            {
                name: StreamWindow(
                    index=window.index,
                    start_month=window.start_month,
                    end_month=window.end_month,
                    events=tuple(per_tenant.get(name, ())),
                    cause=window.cause,
                )
                for name in (spec.name for spec in scheduler.tenants)
            }
        )
    return scheduler.report()


def scalar_step(compiled, access_events, storage_months: float = 1.0):
    """``CompiledPlacement.step``'s bill from a per-event loop: one
    ``index_of``/``round``/``append`` per event, then the same dot products.

    Returns ``(storage, read, decompression, total_latency, access_count,
    latency_violations)``.
    """
    indices: list[int] = []
    reads: list[float] = []
    rounded: list[int] = []
    for event in access_events:
        indices.append(compiled.arrays.index_of(event.partition))
        reads.append(event.reads)
        rounded.append(int(round(event.reads)))
    storage = float(np.sum(compiled.storage_per_month) * storage_months)
    if not indices:
        return storage, 0.0, 0.0, 0.0, 0, 0
    index_array = np.asarray(indices, dtype=np.int64)
    reads_array = np.asarray(reads, dtype=np.float64)
    rounds_array = np.asarray(rounded, dtype=np.int64)
    return (
        storage,
        float(compiled.read_cost_per_read[index_array] @ reads_array),
        float(compiled.decompression_cost_per_read[index_array] @ reads_array),
        float(compiled.latency_s[index_array] @ reads_array),
        int(rounds_array.sum()),
        int(rounds_array[compiled.violates_sla[index_array]].sum()),
    )
