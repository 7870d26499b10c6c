"""Columnar event batches: the unit of work of the streaming path.

An :class:`EventBatch` holds a run of timed accesses as numpy columns — ``t``
(float64 months), ``code`` (an index into the ``vocab`` tuple of partition
names) and ``reads`` (float64) — plus an optional per-event ``tenant`` code
into the ``tenants`` tuple.  Generators, merges, trigger windows and billing
hand batches to each other; a :class:`~repro.cloud.TimedEvent` object exists
only when a caller iterates a batch.

:meth:`EventBatch.from_events` is the one adapter from object streams (CSV
traces, event lists, :class:`~repro.cloud.AccessEvent` epochs) and
:func:`iter_batches` the one way any event source is read as chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CHUNK_SIZE",
    "EventBatch",
    "TimedEvent",
    "iter_batches",
    "merge_batches",
]

CHUNK_SIZE = 8192
"""Events per chunk when object streams are batched, and the fewest events
a merged chunk holds (:func:`merge_batches`), but the last."""


@dataclass(frozen=True)
class TimedEvent:
    """:class:`AccessEvent`'s continuous-time sibling: one access at time ``t``.

    ``t`` is a virtual wall clock measured in (fractional) months, the same
    unit every price in the catalog is quoted against; ``t = 2.5`` is the
    middle of billing month 2.  Continuous workload generators
    (:mod:`repro.workloads.streams`) yield these on the fly, and the
    trigger windows (:mod:`repro.engine.events`) group them into
    billable batches without ever materializing a schedule.  Streams move
    events as :class:`EventBatch` columns; a ``TimedEvent`` is what iterating
    a batch yields.

    ``tenant`` optionally attributes the event to a fleet tenant; merged
    multi-tenant streams use it to split shared trigger windows back into
    per-tenant batches.
    """

    t: float
    partition: str
    reads: float = 1.0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError("event time must be non-negative")
        if self.reads < 0:
            raise ValueError("reads must be non-negative")
        # NaN passes the comparisons above.
        if not math.isfinite(self.t):
            raise ValueError("event time must be finite")
        if not math.isfinite(self.reads):
            raise ValueError("reads must be finite")

    @property
    def month(self) -> int:
        """The billing month this event falls into (``floor(t)``)."""
        return int(self.t)


_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.intp)


class EventBatch:
    """A time-ordered run of timed accesses, stored column-wise.

    Event ``i`` reads ``vocab[code[i]]`` ``reads[i]`` times at month
    ``t[i]``, on behalf of tenant ``tenants[tenant[i]]`` — or of
    ``tenants[0]`` for every event when the batch has no ``tenant`` column.
    ``vocab`` and ``tenants`` hold unique names.  Construction validates the
    columns with the same errors :class:`~repro.cloud.TimedEvent` raises.
    """

    __slots__ = ("t", "code", "reads", "vocab", "tenant", "tenants")

    def __init__(
        self,
        t: Sequence[float] | np.ndarray,
        code: Sequence[int] | np.ndarray,
        reads: Sequence[float] | np.ndarray,
        vocab: Sequence[str],
        *,
        tenant: Sequence[int] | np.ndarray | None = None,
        tenants: Sequence[str | None] = (None,),
    ) -> None:
        t = np.asarray(t, dtype=np.float64)
        code = np.asarray(code, dtype=np.intp)
        reads = np.asarray(reads, dtype=np.float64)
        vocab = tuple(vocab)
        tenants = tuple(tenants)
        if t.ndim != 1 or t.shape != code.shape or t.shape != reads.shape:
            raise ValueError("event columns must be 1-D and of equal length")
        if len(set(vocab)) != len(vocab):
            raise ValueError("vocab names must be unique")
        if len(set(tenants)) != len(tenants):
            raise ValueError("tenant names must be unique")
        if code.size and (code.min() < 0 or code.max() >= len(vocab)):
            raise ValueError("event code outside the vocab")
        if np.any(t < 0):
            raise ValueError("event time must be non-negative")
        if np.any(reads < 0):
            raise ValueError("reads must be non-negative")
        # NaN passes the comparisons above.
        if not np.isfinite(t).all():
            raise ValueError("event time must be finite")
        if not np.isfinite(reads).all():
            raise ValueError("reads must be finite")
        if tenant is None:
            if len(tenants) != 1:
                raise ValueError("a batch without a tenant column has one tenant")
        else:
            tenant = np.asarray(tenant, dtype=np.intp)
            if tenant.shape != t.shape:
                raise ValueError("event columns must be 1-D and of equal length")
            if tenant.size and (tenant.min() < 0 or tenant.max() >= len(tenants)):
                raise ValueError("tenant code outside the tenants")
        self.t = t
        self.code = code
        self.reads = reads
        self.vocab = vocab
        self.tenant = tenant
        self.tenants = tenants

    @classmethod
    def _of(cls, t, code, reads, vocab, tenant, tenants) -> "EventBatch":
        """Wrap columns unchecked: columns derived from already-validated
        batches, or valid by construction, as a ``PoissonZipfStream``
        chunk's are (its constructor's checks bound every column)."""
        batch = cls.__new__(cls)
        batch.t = t
        batch.code = code
        batch.reads = reads
        batch.vocab = vocab
        batch.tenant = tenant
        batch.tenants = tenants
        return batch

    @classmethod
    def empty(cls, tenant: str | None = None) -> "EventBatch":
        return cls._of(_EMPTY_F, _EMPTY_I, _EMPTY_F, (), None, (tenant,))

    @classmethod
    def from_events(cls, events: Iterable[object]) -> "EventBatch":
        """Columns from event objects: the one adapter for object streams.

        Reads ``partition``, ``reads``, ``tenant`` (if present) and ``t`` —
        or ``month`` for :class:`~repro.cloud.AccessEvent`, whose time is
        its billing month.  Names are coded in first-occurrence order.
        """
        vocab: dict[str, int] = {}
        tenant_codes: dict[str | None, int] = {}
        times: list[float] = []
        codes: list[int] = []
        reads: list[float] = []
        tenants: list[int] = []
        for event in events:
            t = getattr(event, "t", None)
            times.append(event.month if t is None else t)
            name = event.partition
            code = vocab.get(name)
            if code is None:
                code = vocab[name] = len(vocab)
            codes.append(code)
            reads.append(event.reads)
            tenant = getattr(event, "tenant", None)
            tenant_code = tenant_codes.get(tenant)
            if tenant_code is None:
                tenant_code = tenant_codes[tenant] = len(tenant_codes)
            tenants.append(tenant_code)
        if len(tenant_codes) > 1:
            return cls(
                times,
                codes,
                reads,
                tuple(vocab),
                tenant=tenants,
                tenants=tuple(tenant_codes),
            )
        return cls(
            times, codes, reads, tuple(vocab), tenants=tuple(tenant_codes) or (None,)
        )

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """The batches' events in order, as one batch.

        Pieces that share one ``vocab`` and one ``tenants`` (the pieces of
        one merged stream, until its vocab grows) keep their codes, so their
        columns are joined as they are; otherwise every piece is re-coded
        into a merged vocab, which gives the same batch when they do share.
        """
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty()
        first = batches[0]
        vocab, tenants = first.vocab, first.tenants
        if all(
            batch.vocab == vocab and batch.tenants == tenants for batch in batches
        ):
            return cls._of(
                np.concatenate([batch.t for batch in batches]),
                np.concatenate([batch.code for batch in batches]),
                np.concatenate([batch.reads for batch in batches]),
                vocab,
                None
                if len(tenants) == 1
                else np.concatenate([batch.tenant_codes() for batch in batches]),
                tenants,
            )
        recoder = _Recoder()
        columns = [recoder.columns(batch) for batch in batches]
        return recoder.batch(*(np.concatenate(column) for column in zip(*columns)))

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return self.t.shape[0]

    def __iter__(self) -> Iterator[TimedEvent]:
        """The events as :class:`~repro.cloud.TimedEvent` objects, on demand."""
        names = map(self.vocab.__getitem__, self.code.tolist())
        if self.tenant is None:
            tenants = repeat(self.tenants[0])
        else:
            tenants = map(self.tenants.__getitem__, self.tenant.tolist())
        return map(TimedEvent, self.t.tolist(), names, self.reads.tolist(), tenants)

    def __getitem__(self, key: slice) -> "EventBatch":
        """A contiguous slice of the events (views, no copy)."""
        if not isinstance(key, slice):
            raise TypeError("EventBatch supports slicing only; iterate for events")
        return EventBatch._of(
            self.t[key],
            self.code[key],
            self.reads[key],
            self.vocab,
            None if self.tenant is None else self.tenant[key],
            self.tenants,
        )

    def __repr__(self) -> str:
        return (
            f"EventBatch({len(self)} events, {len(self.vocab)} names, "
            f"tenants={self.tenants!r})"
        )

    def tenant_codes(self) -> np.ndarray:
        """The per-event tenant column, materialized if the batch has none."""
        if self.tenant is None:
            return np.zeros(len(self), dtype=np.intp)
        return self.tenant

    # -- tenants --------------------------------------------------------------
    def with_tenant(self, tenant: str | None) -> "EventBatch":
        """The same events, all attributed to ``tenant``."""
        return EventBatch._of(
            self.t, self.code, self.reads, self.vocab, None, (tenant,)
        )

    def for_tenant(self, tenant: str | None) -> "EventBatch":
        """The events of ``tenant``, in order (a stable selection)."""
        if tenant not in self.tenants:
            return EventBatch._of(
                _EMPTY_F, _EMPTY_I, _EMPTY_F, self.vocab, None, (tenant,)
            )
        if self.tenant is None:
            return self
        keep = self.tenant == self.tenants.index(tenant)
        return EventBatch._of(
            self.t[keep], self.code[keep], self.reads[keep], self.vocab, None, (tenant,)
        )

    def by_tenant(self) -> dict[str | None, "EventBatch"]:
        """Every tenant's events, in order, keyed by tenant; tenants without
        events are left out.  One stable sort on the tenant column splits
        the batch, where :meth:`for_tenant` selects one tenant at a time."""
        if self.tenant is None:
            return {self.tenants[0]: self} if len(self) else {}
        order = stable_order(self.tenant)
        ends = np.cumsum(np.bincount(self.tenant, minlength=len(self.tenants)))
        t, code, reads = self.t[order], self.code[order], self.reads[order]
        parts = {}
        start = 0
        for name, end in zip(self.tenants, ends.tolist()):
            if end > start:
                parts[name] = EventBatch._of(
                    t[start:end], code[start:end], reads[start:end], self.vocab, None, (name,)
                )
            start = end
        return parts

    # -- aggregation ----------------------------------------------------------
    @property
    def total_reads(self) -> float:
        """Sum of reads, accumulated in event order."""
        return float(np.cumsum(self.reads)[-1]) if len(self) else 0.0

    def reads_by_partition(self) -> dict[str, float]:
        """Per-partition read totals in first-occurrence order.

        Each total is accumulated in event order (``bincount`` adds its
        weights sequentially), so it equals the scalar loop bit for bit.
        """
        if not len(self):
            return {}
        totals = np.bincount(self.code, weights=self.reads)
        codes = first_occurrence(self.code)
        vocab = self.vocab
        return dict(
            zip([vocab[code] for code in codes.tolist()], totals[codes].tolist())
        )


#: Keys below this bound fit ``uint16``, which numpy's stable sort radix-sorts.
RADIX_KEY_BOUND = 1 << 16


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys.

    Keys below :data:`RADIX_KEY_BOUND` (the tenant codes of a batch) are
    sorted as ``uint16``, for which numpy's stable sort is a radix sort,
    several times faster than its comparison sort on ``intp``.  A stable
    order is unique, so both give the same permutation.
    """
    if len(keys) and keys.max() < RADIX_KEY_BOUND:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def first_occurrence(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes`` (non-negative integers) in order of
    first occurrence.

    ``np.minimum.at`` leaves each value's slot of a buffer over ``[0,
    codes.max()]`` at the position of its first occurrence, and every other
    slot at ``len(codes)``; the positions below that, sorted, gather the
    values in event order.  Only the distinct values' positions are sorted,
    not the events.  The scatter is fast from numpy 1.25, whose ``ufunc.at``
    has a fast path; on older numpy it is slower than a stable sort.
    """
    count = len(codes)
    first = np.full(int(codes.max()) + 1 if count else 0, count, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(count))
    positions = first[first < count]
    positions.sort()
    return codes[positions]


class _Table:
    """An append-only table of names that other tables' codes map into."""

    def __init__(self) -> None:
        self.index: dict = {}
        self.names: tuple = ()
        self._remaps: dict[tuple, np.ndarray] = {}

    def remap(self, names: tuple) -> np.ndarray:
        """This table's codes for ``names``, adding the ones it lacks."""
        remap = self._remaps.get(names)
        if remap is None:
            for name in names:
                self.index.setdefault(name, len(self.index))
            if len(self.index) != len(self.names):
                self.names = tuple(self.index)
            remap = np.array([self.index[name] for name in names], dtype=np.intp)
            if len(self._remaps) >= 256:
                self._remaps.clear()
            self._remaps[names] = remap
        return remap


class _Recoder:
    """Re-codes batches with different vocabs and tenants into shared ones."""

    def __init__(self) -> None:
        self.vocab = _Table()
        self.tenants = _Table()

    def columns(self, batch: EventBatch) -> tuple:
        """``batch``'s ``(t, code, reads, tenant)`` in the shared codes."""
        return (
            batch.t,
            self.vocab.remap(batch.vocab)[batch.code],
            batch.reads,
            self.tenants.remap(batch.tenants)[batch.tenant_codes()],
        )

    def batch(self, t, code, reads, tenant) -> EventBatch:
        """A batch of columns in the shared codes."""
        tenants = self.tenants.names
        if len(tenants) == 1:
            tenant = None
        return EventBatch._of(t, code, reads, self.vocab.names, tenant, tenants)


def iter_batches(source: object) -> Iterator[EventBatch]:
    """Read any event source as a sequence of :class:`EventBatch` chunks.

    ``source`` may be a stream with a ``chunks()`` method, one
    :class:`EventBatch`, or an iterable yielding batches and/or event
    objects; runs of event objects are batched :data:`CHUNK_SIZE` at a time
    through :meth:`EventBatch.from_events`.  Empty chunks are skipped.
    """
    if isinstance(source, EventBatch):
        if len(source):
            yield source
        return
    chunks = getattr(source, "chunks", None)
    if chunks is not None:
        for batch in chunks():
            if len(batch):
                yield batch
        return
    pending: list[object] = []
    for item in source:
        if isinstance(item, EventBatch):
            if pending:
                yield EventBatch.from_events(pending)
                pending = []
            if len(item):
                yield item
            continue
        pending.append(item)
        if len(pending) == CHUNK_SIZE:
            yield EventBatch.from_events(pending)
            pending = []
    if pending:
        yield EventBatch.from_events(pending)


def merge_batches(sources: Sequence[object]) -> Iterator[EventBatch]:
    """Merge time-ordered event sources into one time-ordered chunk stream.

    A chunked k-way merge in strides of :data:`CHUNK_SIZE` events.  The
    *frontier* is the smallest last-pulled time over sources not yet
    exhausted: every source has delivered all its events before it.  Each
    step refills the sources at the frontier, one chunk at a time, until
    :data:`CHUNK_SIZE` events precede the frontier or every source has
    ended, then emits every held event strictly before the frontier: the
    pieces before it, taken in source order, are joined once and ordered
    by a stable sort (unless one source holds them all, whose pieces are
    in order already).  Ties therefore go to the lower source index, as with
    :func:`heapq.merge`, and a step never splits the events of one time.
    So every merged chunk but the last holds at least :data:`CHUNK_SIZE`
    events, whatever the sources' chunk sizes, and the merge reads up to
    :data:`CHUNK_SIZE` events ahead of what it has emitted: it holds
    :data:`CHUNK_SIZE` events plus about one chunk per source, and never
    sorts the stream as a whole.

    Each source is checked as it is pulled: a chunk that goes backwards,
    within itself or against that source's last time, raises
    ``ValueError`` naming the source index and both times.
    """
    readers = [iter_batches(source) for source in sources]
    recoder = _Recoder()
    # Each source's pulled, unemitted column pieces, in time order, and its
    # cursor: the (piece, offset) of its first event at or past ``reached``.
    pieces: list[list[tuple]] = [[] for _ in readers]
    cursors = [(0, 0)] * len(readers)
    last = [-math.inf] * len(readers)
    live = list(range(len(readers)))
    held = 0
    ahead = 0  # held events strictly before ``reached``
    reached = -math.inf

    def pull(i: int) -> None:
        nonlocal held
        batch = next(readers[i], None)
        if batch is None:
            live.remove(i)
            return
        t = batch.t
        if t[0] < last[i] or (t[1:] < t[:-1]).any():
            times = np.concatenate(([last[i]], t))
            at = int(np.flatnonzero(times[1:] < times[:-1])[0])
            raise ValueError(
                f"source {i}: events must be time-ordered: "
                f"{float(times[at + 1])} after {float(times[at])}"
            )
        pieces[i].append(recoder.columns(batch))
        last[i] = float(t[-1])
        held += len(t)

    def reach(frontier: float) -> None:
        """Move every cursor past the held events before ``frontier``.

        The frontier only rises and pulled events land at or past it, so
        each piece is passed over once per step, however long a run of
        tied times the sources' chunks cut into pieces."""
        nonlocal ahead, reached
        for i, pulled in enumerate(pieces):
            k, offset = cursors[i]
            while k < len(pulled):
                t = pulled[k][0]
                cut = len(t) if t[-1] < frontier else int(t.searchsorted(frontier))
                ahead += cut - offset
                offset = cut
                if cut < len(t):
                    break
                k, offset = k + 1, 0
            cursors[i] = (k, offset)
        reached = frontier

    for i in range(len(readers)):
        pull(i)
    while True:
        while live:
            frontier = min(last[i] for i in live)
            # ``held`` bounds ``ahead``, so the cursors wait until it could pass.
            if held >= CHUNK_SIZE:
                if frontier > reached:
                    reach(frontier)
                if ahead >= CHUNK_SIZE:
                    break
            for i in [i for i in live if last[i] == frontier]:
                pull(i)
        if not live:
            frontier = math.inf
        if frontier > reached:
            reach(frontier)
        parts = []
        senders = 0
        for i, pulled in enumerate(pieces):
            k, offset = cursors[i]
            parts += pulled[:k]
            rest = pulled[k:]
            if offset:
                piece = rest[0]
                parts.append(tuple(column[:offset] for column in piece))
                rest[0] = tuple(column[offset:] for column in piece)
            senders += bool(k or offset)
            pieces[i] = rest
            cursors[i] = (0, 0)
        if parts:
            t, code, reads, tenant = (np.concatenate(c) for c in zip(*parts))
            held -= ahead
            ahead = 0
            if senders > 1:
                order = np.argsort(t, kind="stable")
                t, code, reads, tenant = (
                    t[order], code[order], reads[order], tenant[order]
                )
            yield recoder.batch(t, code, reads, tenant)
        if not live:
            return
