"""Continuous high-volume event streams (ROADMAP item 2, Icarus workload idiom).

The monthly generators in :mod:`repro.workloads.access_logs` materialize a
full read-count series up front; fine at a 6–24 month horizon, hopeless at
"millions of users".  This module instead produces **streams of timestamped
events** that are generated on the fly, so memory stays flat no matter how
many events the horizon holds.  A stream hands out columnar
:class:`repro.cloud.EventBatch` chunks through ``chunks()``; iterating it
yields :class:`repro.cloud.TimedEvent` objects on demand:

* :class:`PoissonZipfStream` — Poisson arrivals at a configurable rate with
  Zipf popularity over partitions, optionally modulated by a time-varying
  rate profile (diurnal cycles, flash crowds) via Lewis–Shedler thinning;
* :class:`TraceStream` — a trace-driven adapter replaying an external CSV
  access log (schema in ``schemas/access_trace.schema.json``) one row at a
  time;
* :func:`merge_streams` — a chunked k-way merge of several streams into one
  time-ordered stream (e.g. one stream per tenant with
  :func:`tenant_rate_skew` rates).

Every stream is **re-iterable**: each ``__iter__`` call re-derives its RNG
from the stored seed, so two passes over the same stream object yield the
identical sequence (the property the engine's oracle-equivalence tests and
the benchmark's dense-replay comparison rely on).

Virtual time is measured in fractional **months** — the billing unit every
catalog price is quoted against.  A "day" is ``1/30`` month; the default
diurnal period below follows that convention.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..cloud import CHUNK_SIZE, EventBatch, TimedEvent, merge_batches

__all__ = [
    "RateModulation",
    "diurnal_modulation",
    "flash_crowd",
    "compose_modulations",
    "PoissonZipfStream",
    "TraceStream",
    "write_trace_csv",
    "merge_streams",
    "tenant_rate_skew",
    "TRACE_COLUMNS",
]

DAYS_PER_MONTH = 30.0
"""Virtual-calendar convention: a month is exactly 30 days."""

TRACE_COLUMNS: tuple[str, ...] = ("t", "partition", "reads")
"""Column order of the CSV trace format (see ``schemas/access_trace.schema.json``)."""

_SCREEN_SLACK = 1.0 + 2.0**-30
"""Relative slack on a chunk's thinning bound, so that a peak which bounds
``fn`` only up to a last-bit error (a sine's exact maximum against
``np.sin``, say) can never screen out a candidate the full acceptance test
keeps."""


# ---------------------------------------------------------------------------
# Rate modulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateModulation:
    """A multiplicative, time-varying factor applied to a stream's base rate.

    ``fn`` maps an array of event times (months) to non-negative multipliers,
    one per time: it must be pointwise, since a stream evaluates it on a
    subset of its candidates only.  ``ceiling`` is an upper bound on ``fn``
    over the whole horizon, used as the thinning envelope (arrivals are drawn
    at ``base_rate * ceiling`` and accepted with probability
    ``fn(t) / ceiling``).  A ``ceiling`` below the true supremum silently
    under-generates — the constructors below compute it exactly.

    ``peak``, when given, maps a span ``(first, last)`` of months to an
    upper bound of ``fn`` over ``[first, last]``, float for float: ``fn(t)
    <= peak(first, last)`` for every float ``t`` in the span.  ``None``
    means the ceiling.  A stream rejects, without evaluating ``fn``, every
    candidate of a chunk that even the chunk's peak could not accept, so a
    peak below ``fn`` under-generates exactly as a low ceiling does.
    :func:`flash_crowd` and :func:`compose_modulations` derive it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    ceiling: float
    peak: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.ceiling < math.inf:
            raise ValueError("modulation ceiling must be positive and finite")

    def bound(self, first: float, last: float) -> float:
        """An upper bound of ``fn`` over ``[first, last]``: the peak there,
        or the ceiling when the modulation has no peak."""
        return self.ceiling if self.peak is None else self.peak(first, last)


def diurnal_modulation(
    amplitude: float = 0.5, period_months: float = 1.0 / DAYS_PER_MONTH
) -> RateModulation:
    """A sinusoidal day/night cycle: ``1 + amplitude * sin(2πt / period)``.

    ``amplitude`` must lie in ``[0, 1]`` so the rate never goes negative; the
    default period is one virtual day (1/30 month) and must be positive and
    finite.  It has no ``peak``, so its bound over any span is its ceiling,
    ``1 + amplitude``: a chunk of candidate arrivals usually covers whole
    cycles.
    """
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be in [0, 1]")
    if not 0 < period_months < math.inf:
        raise ValueError("period_months must be positive and finite")
    omega = 2.0 * math.pi / period_months

    def fn(t: np.ndarray) -> np.ndarray:
        return 1.0 + amplitude * np.sin(omega * t)

    return RateModulation(fn=fn, ceiling=1.0 + amplitude)


def flash_crowd(
    start_month: float, magnitude: float = 10.0, duration_months: float = 0.1
) -> RateModulation:
    """A flash crowd: rate multiplied by ``magnitude`` for a bounded burst.

    Outside ``[start_month, start_month + duration_months)`` the factor is 1.
    ``start_month`` and ``magnitude`` must be finite, ``duration_months``
    positive and finite.  Its peak over a span is ``magnitude`` when the
    span meets the burst and 1 otherwise.
    """
    if not -math.inf < start_month < math.inf:
        raise ValueError("start_month must be finite")
    if not 1.0 <= magnitude < math.inf:
        raise ValueError(
            "magnitude must be >= 1 and finite (use modulation < 1 for lulls)"
        )
    if not 0 < duration_months < math.inf:
        raise ValueError("duration_months must be positive and finite")
    end_month = start_month + duration_months

    def fn(t: np.ndarray) -> np.ndarray:
        return np.where((t >= start_month) & (t < end_month), magnitude, 1.0)

    def peak(first: float, last: float) -> float:
        return magnitude if first < end_month and last >= start_month else 1.0

    return RateModulation(fn=fn, ceiling=magnitude, peak=peak)


def compose_modulations(*modulations: RateModulation) -> RateModulation:
    """The pointwise product of several modulations (ceilings multiply).

    Its peak multiplies the members' bounds (:meth:`RateModulation.bound`)
    in the order ``fn`` multiplies their factors, so rounding keeps the
    product of bounds a bound of the product, float for float.
    """
    if not modulations:
        raise ValueError("at least one modulation is required")
    for modulation in modulations:
        if not isinstance(modulation, RateModulation):
            raise TypeError(
                f"compose_modulations takes RateModulation values, not "
                f"{modulation!r}"
            )
    if len(modulations) == 1:
        return modulations[0]

    def fn(t: np.ndarray) -> np.ndarray:
        out = modulations[0].fn(t)
        for modulation in modulations[1:]:
            out = out * modulation.fn(t)
        return out

    def peak(first: float, last: float) -> float:
        out = modulations[0].bound(first, last)
        for modulation in modulations[1:]:
            out = out * modulation.bound(first, last)
        return out

    ceiling = math.prod(m.ceiling for m in modulations)
    return RateModulation(fn=fn, ceiling=ceiling, peak=peak)


# ---------------------------------------------------------------------------
# Poisson / Zipf generator
# ---------------------------------------------------------------------------


class PoissonZipfStream:
    """Poisson arrivals with Zipf popularity over partitions, generated lazily.

    Events arrive as a Poisson process at ``rate_per_month`` (optionally
    modulated — see :class:`RateModulation`); each event reads one partition
    drawn from a Zipf(``zipf_exponent``) popularity distribution whose rank
    order is a seeded shuffle of ``partitions``.  :meth:`chunks` yields one
    :class:`repro.cloud.EventBatch` per draw of ``chunk_size`` (default
    8192) candidate arrivals, in non-decreasing time order, and keeps only
    that chunk in memory, so a billion-event horizon costs the same RAM as a
    thousand-event one.

    Arrivals under a modulated rate use Lewis–Shedler thinning: candidates
    are drawn at the envelope rate ``rate_per_month * modulation.ceiling``
    and kept with probability ``modulation.fn(t) / ceiling`` — an exact
    simulation of the inhomogeneous process, still in O(chunk) memory.
    Each chunk first screens its candidates against the modulation's bound
    over the chunk's span (:meth:`RateModulation.bound`): a candidate whose
    acceptance uniform is at or above ``bound / ceiling`` (raised by a
    relative ``2**-30``) fails the test above whatever ``fn`` gives, so it
    is rejected without evaluating ``fn``.  The screen changes no draw, no
    chunk boundary and no event; it saves ``fn`` evaluations away from a
    flash crowd's burst.

    A chunk's mean span, ``chunk_size / (rate_per_month * ceiling)``, must
    move the clock near ``start_month + horizon_months`` (be at least half
    an ulp there), or :meth:`chunks` could never reach the horizon: such a
    stream raises ``ValueError`` at construction.
    """

    def __init__(
        self,
        partitions: Sequence[str],
        rate_per_month: float,
        horizon_months: float,
        *,
        zipf_exponent: float = 1.1,
        seed: int = 0,
        modulation: RateModulation | None = None,
        reads_per_event: float = 1.0,
        start_month: float = 0.0,
        tenant: str | None = None,
        chunk_size: int = CHUNK_SIZE,
    ) -> None:
        if not partitions:
            raise ValueError("at least one partition is required")
        if not 0 < rate_per_month < math.inf:
            raise ValueError("rate_per_month must be positive and finite")
        if not 0 < horizon_months < math.inf:
            raise ValueError("horizon_months must be positive and finite")
        if not 0 <= zipf_exponent < math.inf:
            raise ValueError("zipf_exponent must be non-negative and finite")
        if not 0 < reads_per_event < math.inf:
            raise ValueError("reads_per_event must be positive and finite")
        if not 0 <= start_month < math.inf:
            raise ValueError("start_month must be non-negative and finite")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if modulation is not None and not isinstance(modulation, RateModulation):
            raise TypeError(
                f"modulation must be a RateModulation or None, not {modulation!r}"
            )
        self.partitions = tuple(partitions)
        self.rate_per_month = float(rate_per_month)
        self.horizon_months = float(horizon_months)
        self.zipf_exponent = float(zipf_exponent)
        self.seed = int(seed)
        self.modulation = modulation
        self.reads_per_event = float(reads_per_event)
        self.start_month = float(start_month)
        self.tenant = tenant
        self.chunk_size = int(chunk_size)
        # A chunk moves the clock by the sum of its gaps, whose mean is
        # ``span``.  Every clock value chunks() steps from lies below the
        # horizon's end, so at most ``last``, whose ulp bounds theirs: a span
        # that moves ``last`` is at least half an ulp of each, and any chunk
        # whose gaps sum past their mean (more than a third of them) moves
        # the clock.  A shorter span would leave it standing near the end,
        # and chunks() would never return.
        ceiling = modulation.ceiling if modulation is not None else 1.0
        span = self.chunk_size / (self.rate_per_month * ceiling)
        last = math.nextafter(self.start_month + self.horizon_months, 0.0)
        if not last + span > last:
            raise ValueError(
                f"a chunk of {self.chunk_size} candidates at the envelope rate "
                f"spans {span!r} months on average, under half an ulp of the "
                f"clock near the horizon's end (month {last!r}), so the "
                "stream could never reach it; raise chunk_size or lower "
                "rate_per_month or start_month"
            )
        # Popularity is fixed per stream (not per pass): Zipf weights over a
        # seeded shuffle of the partition list, precomputed as a cumulative
        # distribution for O(log n) sampling via searchsorted.
        setup_rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0xC0FFEE]).generate_state(4)
        )
        weights = self._zipf_weights(setup_rng)
        self._cumulative = np.cumsum(weights)
        self._cumulative[-1] = 1.0  # guard against float round-off at the tail
        # Batches name partitions by code into a vocab of unique names; a
        # partition listed twice keeps both popularity ranks under one code.
        self._vocab = tuple(dict.fromkeys(self.partitions))
        self._codes = None
        if len(self._vocab) != len(self.partitions):
            index = {name: code for code, name in enumerate(self._vocab)}
            self._codes = np.array(
                [index[name] for name in self.partitions], dtype=np.intp
            )

    def _zipf_weights(self, rng: np.random.Generator) -> np.ndarray:
        ranks = np.arange(1, len(self.partitions) + 1, dtype=float)
        if self.zipf_exponent > 0:
            weights = 1.0 / ranks**self.zipf_exponent
        else:
            weights = np.ones(len(self.partitions))
        weights /= weights.sum()
        rng.shuffle(weights)
        return weights

    @property
    def expected_events(self) -> float:
        """Mean number of events over the horizon at the *base* rate."""
        return self.rate_per_month * self.horizon_months

    def chunks(self) -> Iterator[EventBatch]:
        """The stream as :class:`~repro.cloud.EventBatch` chunks, one per draw.

        A fresh generator per pass, derived from the stored seed, makes the
        stream re-iterable with an identical sequence.  The constructor's
        checks make every chunk's columns valid (finite, non-negative,
        non-decreasing times, codes inside the vocab, one finite positive
        read count), so chunks are wrapped unchecked.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0xA11CE]).generate_state(4)
        )
        modulation = self.modulation
        ceiling = modulation.ceiling if modulation is not None else 1.0
        scale = 1.0 / (self.rate_per_month * ceiling)
        end = self.start_month + self.horizon_months
        t = self.start_month
        vocab = self._vocab
        tenants = (self.tenant,)
        while t < end:
            times = rng.standard_exponential(self.chunk_size)
            times *= scale
            np.cumsum(times, out=times)
            times += t
            t = float(times[-1])
            if t >= end:
                times = times[times < end]
                if times.size == 0:
                    continue
            if modulation is not None:
                accept = rng.random(times.size)
                first, last = float(times[0]), float(times[-1])
                bound = modulation.bound(first, last) / ceiling * _SCREEN_SLACK
                if bound < 1.0:
                    # No uniform at or above the bound passes the test below.
                    screened = np.flatnonzero(accept < bound)
                    times = times[screened]
                    accept = accept[screened]
                if times.size:
                    times = times[accept < modulation.fn(times) / ceiling]
                if times.size == 0:
                    continue
            choices = np.searchsorted(
                self._cumulative, rng.random(times.size), side="right"
            )
            if self._codes is not None:
                choices = self._codes[choices]
            yield EventBatch._of(
                times,
                choices,
                np.full(times.size, self.reads_per_event),
                vocab,
                None,
                tenants,
            )

    def __iter__(self) -> Iterator[TimedEvent]:
        return chain.from_iterable(self.chunks())


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


class TraceStream:
    """Replay an external CSV access log as a stream of timed events.

    The file must have a header row and the columns ``t,partition,reads``
    (``reads`` optional, default 1.0) — the format described by
    ``schemas/access_trace.schema.json`` and validated by
    ``tools/validate_trace_csv.py``.  Rows must be sorted by ``t``
    (non-decreasing); a regression is reported with the offending line
    number.  Only one row is held in memory at a time.

    ``time_scale`` rescales the trace's time unit into months (e.g. a trace
    timestamped in days replays with ``time_scale=1/30``); it must be
    positive and finite.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        time_scale: float = 1.0,
        tenant: str | None = None,
    ) -> None:
        if not 0 < time_scale < math.inf:
            raise ValueError("time_scale must be positive and finite")
        self.path = Path(path)
        self.time_scale = float(time_scale)
        self.tenant = tenant

    def __iter__(self) -> Iterator[TimedEvent]:
        with self.path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ValueError(f"trace {self.path} is empty (missing header row)")
            missing = [c for c in ("t", "partition") if c not in reader.fieldnames]
            if missing:
                raise ValueError(
                    f"trace {self.path} is missing required columns: {missing}"
                )
            last_t = -math.inf
            for row in reader:
                line = reader.line_num
                try:
                    t = float(row["t"]) * self.time_scale
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"trace {self.path} line {line}: bad time {row.get('t')!r}"
                    ) from exc
                partition = row["partition"]
                if not partition:
                    raise ValueError(
                        f"trace {self.path} line {line}: empty partition name"
                    )
                raw_reads = row.get("reads")
                if raw_reads in (None, ""):
                    reads = 1.0
                else:
                    try:
                        reads = float(raw_reads)
                    except ValueError as exc:
                        raise ValueError(
                            f"trace {self.path} line {line}: bad reads {raw_reads!r}"
                        ) from exc
                if t < last_t:
                    raise ValueError(
                        f"trace {self.path} line {line}: time goes backwards "
                        f"({t} after {last_t}); traces must be sorted by t"
                    )
                last_t = t
                yield TimedEvent(t=t, partition=partition, reads=reads, tenant=self.tenant)


def write_trace_csv(path: str | Path, events: Iterable[TimedEvent]) -> int:
    """Write a stream of events to the CSV trace format; returns the row count.

    The inverse of :class:`TraceStream` (the ``tenant`` tag is not part of
    the trace format and is dropped).  Streams through ``events`` without
    materializing them.
    """
    count = 0
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for event in events:
            writer.writerow([repr(event.t), event.partition, repr(event.reads)])
            count += 1
    return count


# ---------------------------------------------------------------------------
# Multi-stream composition
# ---------------------------------------------------------------------------


class merge_streams:
    """Merge several time-ordered streams into one, lazily, by event time.

    A re-iterable wrapper over :func:`repro.cloud.merge_batches`: each pass
    re-reads the underlying streams, so the merge inherits their
    re-iterability.  Ties are broken by stream position (stable), which
    keeps merged sequences deterministic.  The merge emits chunks of at
    least :data:`~repro.cloud.CHUNK_SIZE` events (but the last) and reads
    up to ``CHUNK_SIZE`` events ahead, so it holds ``CHUNK_SIZE`` events
    plus about one chunk per stream.
    """

    def __init__(self, *streams: Iterable[TimedEvent]) -> None:
        if not streams:
            raise ValueError("at least one stream is required")
        self.streams = streams

    def chunks(self) -> Iterator[EventBatch]:
        return merge_batches(self.streams)

    def __iter__(self) -> Iterator[TimedEvent]:
        return chain.from_iterable(self.chunks())


def tenant_rate_skew(
    total_rate_per_month: float,
    tenants: Sequence[str],
    *,
    exponent: float = 1.0,
) -> Mapping[str, float]:
    """Split a fleet-wide event rate across tenants with a Zipf skew.

    The first tenant in ``tenants`` is the heaviest; ``exponent=0`` gives an
    even split.  Returns ``{tenant: rate_per_month}`` summing to the total.
    The total must be positive and finite, the exponent non-negative and
    finite, and each tenant named once.
    """
    if not 0 < total_rate_per_month < math.inf:
        raise ValueError("total_rate_per_month must be positive and finite")
    if not tenants:
        raise ValueError("at least one tenant is required")
    if len(set(tenants)) != len(tenants):
        raise ValueError("tenant names must be unique")
    if not 0 <= exponent < math.inf:
        raise ValueError("exponent must be non-negative and finite")
    ranks = np.arange(1, len(tenants) + 1, dtype=float)
    weights = 1.0 / ranks**exponent if exponent > 0 else np.ones(len(tenants))
    weights /= weights.sum()
    return {
        tenant: float(total_rate_per_month * weight)
        for tenant, weight in zip(tenants, weights)
    }
