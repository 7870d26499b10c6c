"""Nestable tracing spans with a process-global no-op default.

A :class:`Span` is a context manager that records wall-clock (and, when the
tracer asks for it, the ``tracemalloc`` peak) for one named phase::

    with tracer.span("optassign.solve", solver="greedy") as span:
        ...
        span.set(relaxation_rounds=rounds)

Spans nest through a thread-local stack: a span opened while another is
active becomes its child, so one engine window produces a tree —
``engine.window`` → ``engine.solve`` → ``optassign.greedy`` — that the
exporters in :mod:`repro.obs.export` can render as a tree or aggregate into
per-phase totals.

Two things keep this honest in this codebase:

* Each thread has its own stack, and the id sequence and the record list sit
  behind a lock, so spans opened on several threads at once keep unique ids
  and never nest under another thread's span.  The library itself opens
  every span on the calling thread; a span opened on a fresh thread starts
  a root there.
* ``tracemalloc`` exposes a single process-wide peak.  We ``reset_peak()``
  on span entry, which means a parent's recorded peak only covers the tail
  after its last child closed — *innermost* spans are accurate, outer spans
  are best-effort lower bounds.  Memory tracking is therefore opt-in
  (``Tracer(track_memory=True)``) and off in benchmarks.

Span identity is a deterministic per-tracer sequence number (``span_id``),
not a random id: runs with a fixed seed produce byte-identical exports,
which the round-trip tests rely on.
"""

from __future__ import annotations

import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Iterator

from .clock import monotonic_s

__all__ = ["Span", "SpanRecord", "Tracer", "NoopSpan", "NoopTracer", "NOOP_TRACER"]


@dataclass
class SpanRecord:
    """One finished span, as exported/parsed (see :mod:`repro.obs.export`)."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    memory_peak_kb: float | None = None
    error: str | None = None


class Span:
    """A live phase measurement; becomes a :class:`SpanRecord` on exit."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start_s",
        "duration_s",
        "memory_peak_kb",
        "error",
        "_closed",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.duration_s = 0.0
        self.memory_peak_kb: float | None = None
        self.error: str | None = None
        self._closed = False

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        if self.tracer.track_memory and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self.start_s = monotonic_s()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = monotonic_s() - self.start_s
        if self.tracer.track_memory and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            self.memory_peak_kb = peak / 1024.0
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        self._closed = True
        self.tracer._pop(self)
        return None  # never swallow exceptions


class Tracer:
    """Collects spans for one run; hand it to exporters when done."""

    enabled = True

    def __init__(self, track_memory: bool = False) -> None:
        self.track_memory = track_memory
        self.spans: list[SpanRecord] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._memory_started_here = False
        if track_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._memory_started_here = True

    # -- span lifecycle ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; it nests under the thread's current span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, self.current_span_id, name, dict(attrs))

    @property
    def current_span_id(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        record = SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start_s=span.start_s,
            duration_s=span.duration_s,
            attrs=span.attrs,
            memory_peak_kb=span.memory_peak_kb,
            error=span.error,
        )
        with self._lock:
            self.spans.append(record)

    # -- introspection ----------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        """Finished spans, ordered by span_id (creation order)."""
        with self._lock:
            return sorted(self.spans, key=lambda record: record.span_id)

    def __len__(self) -> int:
        return len(self.spans)

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self._next_id = 0

    def close(self) -> None:
        """Stop tracemalloc if this tracer started it."""
        if self._memory_started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._memory_started_here = False


class NoopSpan:
    """Shared do-nothing span: two attribute lookups and a call, no alloc."""

    __slots__ = ()
    span_id = None
    parent_id = None
    name = ""
    duration_s = 0.0
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = NoopSpan()


class NoopTracer:
    """The disabled-observability stand-in."""

    enabled = False
    track_memory = False
    current_span_id = None

    def span(self, name: str, **attrs: Any) -> NoopSpan:
        return NOOP_SPAN

    def records(self) -> list[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


NOOP_TRACER = NoopTracer()
