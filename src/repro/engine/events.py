"""Event streams: the clock of the online tiering engine.

The batch pipeline consumes a complete historical trace in one shot; the
online engine consumes the same :class:`repro.cloud.AccessEvent` objects
window by window.  The engine has one timeline: a continuous stream of
:class:`repro.cloud.TimedEvent` (from :mod:`repro.workloads.streams`) is cut
into :class:`StreamWindow` batches by a pluggable **trigger** —

* :class:`CountTrigger` closes a window after a fixed number of events;
* :class:`TimeTrigger` closes on a virtual wall-clock width;
* :class:`DriftTrigger` closes when the observed access mix drifts past a
  score threshold against a baseline forecast;
* :class:`AnyTrigger` composes several (first to fire wins).

:func:`windowed` cuts windows lazily: it works on columnar
:class:`repro.cloud.EventBatch` chunks (see :class:`TriggerWindow`) in
O(chunk + window) memory.

A dense monthly stream is an iterable of :class:`EpochBatch` objects (an
epoch is one billing month) with consecutive epochs — the engine never
looks ahead, so any policy evaluated on a stream is causally honest.  Each
batch is the month-aligned window :func:`month_window` makes of it, and the
engine steps it as such.  Three epoch-batch sources are provided:

* :class:`ReplayStream` — replays a recorded flat trace (e.g. the one a batch
  simulation used), grouping events by month;
* :class:`SeriesStream` — synthesizes events from per-partition monthly read
  series, the output format of :mod:`repro.workloads.access_logs` (including
  the drifting series built with ``generate_drifting_reads``);
* :func:`stream_from_catalog` — wraps a :class:`repro.cloud.DatasetCatalog`'s
  recorded ``monthly_reads`` histories as a stream.

:func:`monthly_batches` adapts a timed stream onto the monthly grid, for the
oracle comparisons that pin ``TimeTrigger(1.0)`` runs to dense ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..cloud import AccessEvent, DatasetCatalog, EventBatch, TimedEvent, iter_batches
from ..cloud.events import first_occurrence
from .policies import drift_score

__all__ = [
    "EpochBatch",
    "ReplayStream",
    "SeriesStream",
    "stream_from_catalog",
    "StreamWindow",
    "month_window",
    "TriggerWindow",
    "CountTrigger",
    "TimeTrigger",
    "DriftTrigger",
    "AnyTrigger",
    "windowed",
    "monthly_batches",
]


@dataclass(frozen=True)
class EpochBatch:
    """All access events observed during one epoch (billing month)."""

    epoch: int
    events: tuple[AccessEvent, ...]

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")

    @property
    def total_reads(self) -> float:
        return float(sum(event.reads for event in self.events))

    def reads_by_partition(self) -> dict[str, float]:
        """Aggregated read counts per partition for this epoch."""
        totals: dict[str, float] = {}
        for event in self.events:
            totals[event.partition] = totals.get(event.partition, 0.0) + event.reads
        return totals


class ReplayStream:
    """Replay a recorded flat access trace epoch by epoch.

    Events are grouped by their ``month`` field; epochs with no events still
    yield an (empty) batch so storage keeps accruing and periodic policies
    keep ticking.  ``num_epochs`` extends (or truncates) the horizon; by
    default it runs through the last recorded event's month.  Truncating
    below the last recorded month drops the recorded events past the cutoff
    — that is sometimes intentional (evaluate a shorter horizon) but easy to
    hit by accident, so it raises a :class:`UserWarning` saying exactly how
    many events were cut.
    """

    def __init__(self, events: Iterable[AccessEvent], num_epochs: int | None = None):
        by_epoch: dict[int, list[AccessEvent]] = {}
        last = -1
        for event in events:
            by_epoch.setdefault(event.month, []).append(event)
            last = max(last, event.month)
        if num_epochs is None:
            num_epochs = last + 1
        if num_epochs <= 0:
            raise ValueError("the stream needs at least one epoch")
        if last >= num_epochs:
            dropped = sum(
                len(batch) for month, batch in by_epoch.items() if month >= num_epochs
            )
            warnings.warn(
                f"num_epochs={num_epochs} truncates the recorded trace: "
                f"{dropped} event(s) in months {num_epochs}..{last} will never "
                "be replayed",
                UserWarning,
                stacklevel=2,
            )
        self._by_epoch = by_epoch
        self.num_epochs = num_epochs

    def __iter__(self) -> Iterator[EpochBatch]:
        for epoch in range(self.num_epochs):
            yield EpochBatch(
                epoch=epoch, events=tuple(self._by_epoch.get(epoch, ()))
            )

    def __len__(self) -> int:
        return self.num_epochs


class SeriesStream:
    """Synthesize an event stream from per-partition monthly read series.

    ``series`` maps partition names to monthly read counts (index 0 = epoch
    0), the exact shape produced by
    :func:`repro.workloads.generate_monthly_reads` and
    :func:`repro.workloads.generate_drifting_reads`.  Zero-read months emit
    no event for that partition.  The horizon is the longest series unless
    ``num_epochs`` overrides it.
    """

    def __init__(
        self,
        series: Mapping[str, Sequence[float]],
        num_epochs: int | None = None,
    ):
        if not series:
            raise ValueError("at least one partition series is required")
        if num_epochs is None:
            num_epochs = max(len(values) for values in series.values())
        if num_epochs <= 0:
            raise ValueError("the stream needs at least one epoch")
        for name, values in series.items():
            if any(value < 0 for value in values):
                raise ValueError(f"negative read count in series for {name!r}")
        self._series = {name: list(values) for name, values in series.items()}
        self.num_epochs = num_epochs

    def __iter__(self) -> Iterator[EpochBatch]:
        for epoch in range(self.num_epochs):
            events = tuple(
                AccessEvent(month=epoch, partition=name, reads=float(values[epoch]))
                for name, values in self._series.items()
                if epoch < len(values) and values[epoch] > 0
            )
            yield EpochBatch(epoch=epoch, events=events)

    def __len__(self) -> int:
        return self.num_epochs


def stream_from_catalog(
    catalog: DatasetCatalog, num_epochs: int | None = None
) -> SeriesStream:
    """A stream replaying every dataset's recorded ``monthly_reads`` history."""
    return SeriesStream(
        {dataset.name: dataset.monthly_reads for dataset in catalog},
        num_epochs=num_epochs,
    )


# ---------------------------------------------------------------------------
# Trigger windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamWindow:
    """A closed trigger window: the timed events in ``[start_month, end_month)``.

    The unit the engine steps: ``index`` is the window's ordinal (windows
    are consecutive and gap-free), ``cause`` names the trigger that closed
    it (``"count"``, ``"time"``, ``"drift"``, ``"horizon"`` or
    ``"flush"``).  Storage is billed for ``duration_months``, reads for the
    events; a dense :class:`EpochBatch` is the one-month window
    :func:`month_window` makes of it.
    ``events`` is a columnar :class:`repro.cloud.EventBatch`; any other
    iterable of events is converted with
    :meth:`~repro.cloud.EventBatch.from_events`.
    """

    index: int
    start_month: float
    end_month: float
    events: EventBatch
    cause: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("window index must be non-negative")
        if not (math.isfinite(self.start_month) and math.isfinite(self.end_month)):
            raise ValueError(
                f"window bounds must be finite: [{self.start_month}, "
                f"{self.end_month})"
            )
        if self.end_month < self.start_month:
            raise ValueError("window must not end before it starts")
        if not isinstance(self.events, EventBatch):
            object.__setattr__(self, "events", EventBatch.from_events(self.events))

    @property
    def duration_months(self) -> float:
        return self.end_month - self.start_month

    @property
    def total_reads(self) -> float:
        return self.events.total_reads

    def reads_by_partition(self) -> dict[str, float]:
        """Aggregated read counts per partition for this window."""
        return self.events.reads_by_partition()


def month_window(batch: EpochBatch) -> StreamWindow:
    """The month-aligned window of a dense epoch batch: window ``epoch``
    over ``[epoch, epoch + 1)``, closed by time, holding the batch's events
    in order."""
    return StreamWindow(
        index=batch.epoch,
        start_month=float(batch.epoch),
        end_month=float(batch.epoch + 1),
        events=EventBatch.from_events(batch.events),
        cause="time",
    )


class TriggerWindow(Protocol):
    """Decides where a continuous event stream is cut into windows.

    :func:`windowed` works a chunk (an
    :class:`repro.cloud.EventBatch`) at a time.  It calls ``open(start)``
    when a window opens.  ``deadline()`` is a wall-clock boundary: an event
    at ``t >= deadline`` first closes the window **at** the deadline —
    possibly empty — and re-opens it there, which lets a pure wall-clock
    trigger emit empty windows across quiet stretches.  For the events of a
    chunk before the deadline, ``cut`` names the event **at** which the
    window closes (the event joins the window first) and ``advance`` folds
    events into the open window.  ``cause`` is read right after a deadline
    or a cut fires and names it in the resulting :class:`StreamWindow`.
    """

    cause: str

    def open(self, start_month: float) -> None:
        """A new window opens at ``start_month``; reset per-window state."""
        ...

    def deadline(self) -> float:
        """The time the open window must close at (``math.inf`` for none)."""
        ...

    def cut(self, events: EventBatch, begin: int, stop: int) -> int | None:
        """The first index in ``[begin, stop)`` whose event closes the window.

        ``None`` when none does.  Reads the window state, changes none of it:
        :func:`windowed` folds the events up to the cut in with :meth:`advance`.
        """
        ...

    def advance(self, events: EventBatch, begin: int, end: int) -> None:
        """Fold ``events[begin:end]`` into the open window."""
        ...


class CountTrigger:
    """Close a window after ``max_events`` events (cause ``"count"``).

    Events sharing the closing event's exact timestamp stay in the same
    window (:func:`windowed` defers a close that would make a zero-width
    window), so windows always advance the clock.
    """

    cause = "count"

    def __init__(self, max_events: int) -> None:
        if not max_events > 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self._count = 0

    def open(self, start_month: float) -> None:
        self._count = 0

    def deadline(self) -> float:
        return math.inf

    def cut(self, events: EventBatch, begin: int, stop: int) -> int | None:
        index = begin + max(self.max_events - self._count - 1, 0)
        return index if index < stop else None

    def advance(self, events: EventBatch, begin: int, end: int) -> None:
        self._count += end - begin


class TimeTrigger:
    """Close a window every ``width_months`` of virtual wall clock (``"time"``).

    Boundaries are laid end to end from the stream's start: quiet stretches
    emit empty windows, as quiet months yield empty batches.  With
    ``width_months=1.0`` from ``start_month=0.0`` the boundaries are the
    integers (adding 1.0 to an integral float is exact), so each window spans
    the month :func:`month_window` gives the dense batch of that month.
    """

    cause = "time"

    def __init__(self, width_months: float) -> None:
        if not 0 < width_months < math.inf:
            raise ValueError(
                f"width_months must be positive and finite: {width_months}"
            )
        self.width_months = width_months
        self._deadline = 0.0

    def open(self, start_month: float) -> None:
        self._deadline = start_month + self.width_months

    def deadline(self) -> float:
        return self._deadline

    def cut(self, events: EventBatch, begin: int, stop: int) -> int | None:
        return None

    def advance(self, events: EventBatch, begin: int, end: int) -> None:
        pass


class DriftTrigger:
    """Close a window when the in-window access mix drifts from a baseline.

    Accumulates per-partition read counts as events arrive and, every
    ``check_every`` events once the window is at least ``min_width_months``
    wide, scores the observed **rates** (counts / elapsed months) against
    ``baseline`` with :func:`repro.engine.policies.drift_score`; at or above
    ``threshold`` the window closes (cause ``"drift"``) so the policy can
    react *now* instead of at the next grid point.  ``last_score`` is the
    score of the most recent check among the events the window took in.

    The baseline is what the engine last *planned against*:
    :meth:`repro.engine.OnlineTieringEngine.run_stream` wires
    ``baseline_provider`` to return its most recently applied forecast.
    Without a baseline (e.g. before the first reoptimization) the trigger
    never fires — pair it with a :class:`TimeTrigger` or
    :class:`CountTrigger` via :class:`AnyTrigger` for a fallback cadence.
    """

    cause = "drift"

    def __init__(
        self,
        threshold: float,
        *,
        min_width_months: float = 0.25,
        check_every: int = 64,
        baseline_provider: "Callable[[], Mapping[str, float] | None] | None" = None,
    ) -> None:
        if not threshold > 0:
            raise ValueError("threshold must be positive")
        if not 0 < min_width_months < math.inf:
            raise ValueError("min_width_months must be positive and finite")
        if check_every <= 0:
            raise ValueError("check_every must be positive")
        self.threshold = threshold
        self.min_width_months = min_width_months
        self.check_every = check_every
        self.baseline_provider = baseline_provider
        self.last_score: float | None = None
        self._start = 0.0
        # Window counts in first-occurrence order, plus the advanced events
        # not folded into them yet (folding waits for the next check).
        self._counts: dict[str, float] = {}
        self._unfolded: list[EventBatch] = []
        self._since_check = 0
        # (event index, score) of the checks the latest cut evaluated.
        self._scores: list[tuple[int, float]] = []

    def open(self, start_month: float) -> None:
        self._start = start_month
        self._counts = {}
        self._unfolded = []
        self._since_check = 0

    def deadline(self) -> float:
        return math.inf

    def cut(self, events: EventBatch, begin: int, stop: int) -> int | None:
        self._scores = []
        first = begin + self.check_every - self._since_check - 1
        checks = np.arange(first, stop, self.check_every)
        checks = checks[events.t[checks] - self._start >= self.min_width_months]
        if not checks.size:
            return None
        baseline = self.baseline_provider() if self.baseline_provider else None
        if not baseline:
            return None
        for batch in self._unfolded:
            _fold(self._counts, batch)
        self._unfolded = []
        counts = dict(self._counts)
        position = begin
        for check in checks.tolist():
            _fold(counts, events[position : check + 1])
            position = check + 1
            elapsed = float(events.t[check]) - self._start
            observed = {name: count / elapsed for name, count in counts.items()}
            score = drift_score(baseline, observed)
            self._scores.append((check, score))
            if score >= self.threshold:
                return check
        return None

    def advance(self, events: EventBatch, begin: int, end: int) -> None:
        for check, score in self._scores:
            if check < end:
                self.last_score = score
        self._scores = []
        self._unfolded.append(events[begin:end])
        self._since_check = (self._since_check + end - begin) % self.check_every


def _fold(counts: dict[str, float], events: EventBatch) -> None:
    """Add ``events``' reads into ``counts``, per name in event order.

    The existing total leads each ``bincount`` bin, so every name's sum is
    accumulated in exactly the order a per-event loop would add it; new
    names are appended in first-occurrence order.
    """
    if not len(events):
        return
    codes = first_occurrence(events.code)
    vocab = events.vocab
    names = [vocab[code] for code in codes.tolist()]
    local = np.empty(len(vocab), dtype=np.intp)
    local[codes] = np.arange(len(codes))
    totals = np.bincount(
        np.concatenate([np.arange(len(codes)), local[events.code]]),
        weights=np.concatenate(
            [[counts.get(name, 0.0) for name in names], events.reads]
        ),
    )
    counts.update(zip(names, totals.tolist()))


class AnyTrigger:
    """Compose triggers: the first one to fire closes the window.

    The deadline is the earliest across members; a cut is the earliest
    member cut, ties going to the member listed first.  The winning member's
    ``cause`` is adopted.
    """

    def __init__(self, *triggers: TriggerWindow) -> None:
        if not triggers:
            raise ValueError("at least one trigger is required")
        self.triggers = triggers
        self.cause = triggers[0].cause

    def open(self, start_month: float) -> None:
        for trigger in self.triggers:
            trigger.open(start_month)

    def deadline(self) -> float:
        best = math.inf
        for trigger in self.triggers:
            deadline = trigger.deadline()
            if deadline < best:
                best = deadline
                self.cause = trigger.cause
        return best

    def cut(self, events: EventBatch, begin: int, stop: int) -> int | None:
        best: int | None = None
        for trigger in self.triggers:
            # Members see the winning event too (their checks at it count),
            # but only an earlier cut takes the window from the first winner.
            index = trigger.cut(events, begin, stop if best is None else best + 1)
            if index is not None and (best is None or index < best):
                best = index
                self.cause = trigger.cause
        return best

    def advance(self, events: EventBatch, begin: int, end: int) -> None:
        for trigger in self.triggers:
            trigger.advance(events, begin, end)


def windowed(
    events: object,
    trigger: TriggerWindow,
    *,
    start_month: float = 0.0,
    horizon_months: float | None = None,
) -> Iterator[StreamWindow]:
    """Cut a time-ordered event stream into trigger windows, lazily.

    ``events`` is anything :func:`repro.cloud.iter_batches` reads: a stream
    with ``chunks()``, an :class:`~repro.cloud.EventBatch`, or an iterable
    of batches or event objects.  Yields consecutive, gap-free
    :class:`StreamWindow`\\ s covering ``[start_month, ...)``.  Only the
    current chunk and the open window are held in memory, so a
    million-event stream costs O(chunk + window) RAM.  Raises on an event
    before ``start_month`` and on a backwards event.

    With ``horizon_months`` set, events at or past the horizon are ignored,
    remaining time boundaries are drained (empty windows across the quiet
    tail) and a final window closes exactly at the horizon (cause
    ``"horizon"``).  Without it, a trailing partial window is flushed after
    the stream ends (cause ``"flush"``, closing at the last event's time).

    A close that would produce a zero-width window (e.g. a
    :class:`CountTrigger` firing on a timestamp tie at the window's start) is
    deferred until an event advances the clock — windows always advance
    virtual time, which keeps rates (counts / duration) well-defined.

    A non-finite ``start_month``, or a ``horizon_months`` that is not
    positive and finite, raises ``ValueError`` before the first window.
    """
    if not math.isfinite(start_month):
        raise ValueError(f"start_month must be finite: {start_month}")
    if horizon_months is not None and not 0 < horizon_months < math.inf:
        raise ValueError(
            f"horizon_months must be finite and positive: {horizon_months}"
        )
    index = 0
    start = start_month
    pending: list[EventBatch] = []
    last_t = start_month
    end = math.inf if horizon_months is None else start_month + horizon_months
    trigger.open(start)

    def close(end_month: float, cause: str) -> StreamWindow:
        nonlocal index, start, pending
        window = StreamWindow(
            index=index,
            start_month=start,
            end_month=end_month,
            events=EventBatch.concat(pending),
            cause=cause,
        )
        index += 1
        start = end_month
        pending = []
        trigger.open(start)
        return window

    for batch in iter_batches(events):
        t = batch.t
        # Validate through the first event at or past the horizon.
        past = np.flatnonzero(t >= end)
        size = int(past[0]) if past.size else len(batch)
        checked = t[: size + 1]
        early = checked < start_month
        backwards = checked < np.concatenate(([last_t], checked[:-1]))
        bad = np.flatnonzero(early | backwards)
        if bad.size:
            at = int(bad[0])
            if early[at]:
                raise ValueError(
                    f"event at t={checked[at]} precedes start_month={start_month}"
                )
            before = checked[at - 1] if at else last_t
            raise ValueError(
                f"events must be time-ordered: {checked[at]} after {before}"
            )
        last_t = float(checked[-1])

        position = 0
        while position < size:
            deadline = trigger.deadline()
            while t[position] >= deadline:
                yield close(deadline, trigger.cause)
                deadline = trigger.deadline()
            stop = position + int(
                np.searchsorted(t[position:size], deadline, side="left")
            )
            cut = trigger.cut(batch, position, stop)
            upto = stop if cut is None else cut + 1
            trigger.advance(batch, position, upto)
            pending.append(batch[position:upto])
            position = upto
            if cut is not None and t[cut] > start:
                yield close(float(t[cut]), trigger.cause)
        if size < len(batch):
            break
    if horizon_months is not None:
        while (deadline := trigger.deadline()) < end:
            yield close(deadline, trigger.cause)
        if pending or start < end:
            yield close(end, "horizon")
    elif pending:
        yield close(last_t, "flush")


def monthly_batches(
    events: Iterable[TimedEvent], num_epochs: int | None = None
) -> Iterator[EpochBatch]:
    """Adapt a timed stream onto the dense monthly grid, lazily.

    Each :class:`repro.cloud.TimedEvent` becomes one
    :class:`repro.cloud.AccessEvent` in ``floor(t)``'s batch, **preserving
    event order and without aggregating** — float summation order is exactly
    what the bit-exact window-vs-epoch oracle tests compare, so this adapter
    must not reassociate it.  Quiet months yield empty batches;
    ``num_epochs`` pads (or cuts) the horizon.
    """
    if num_epochs is not None and num_epochs <= 0:
        raise ValueError("the stream needs at least one epoch")
    current = 0
    pending: list[AccessEvent] = []
    last_t = 0.0
    saw_events = False
    for event in events:
        if event.t < last_t:
            raise ValueError(
                f"events must be time-ordered: {event.t} after {last_t}"
            )
        last_t = event.t
        month = event.month
        if num_epochs is not None and month >= num_epochs:
            break
        saw_events = True
        while month > current:
            yield EpochBatch(epoch=current, events=tuple(pending))
            pending = []
            current += 1
        pending.append(
            AccessEvent(month=month, partition=event.partition, reads=event.reads)
        )
    if num_epochs is None:
        if not saw_events:
            return
        num_epochs = current + 1
    while current < num_epochs:
        yield EpochBatch(epoch=current, events=tuple(pending))
        pending = []
        current += 1
