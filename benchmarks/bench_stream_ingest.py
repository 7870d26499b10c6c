#!/usr/bin/env python
"""Streaming ingest benchmark: O(1) memory at a million-plus events.

The tentpole claim of the streaming workload layer
(:mod:`repro.workloads.streams` + :func:`repro.engine.windowed`): event
generation and trigger windowing are **lazy end to end**, so memory stays
flat no matter how long the stream runs — a 1M-event horizon costs the same
RAM as a 100k one, only more wall clock.

Each cell drives a :class:`~repro.workloads.PoissonZipfStream` (diurnal +
flash-crowd modulated, Zipf-skewed over 64 partitions) twice:

* a **timed pass** — raw generation throughput, counted as ``len(chunk)``
  over ``stream.chunks()`` (the columnar batches ``windowed`` and the fleet
  read, so it times the generator and builds no ``TimedEvent``), then a
  second pass cut into :class:`~repro.engine.CountTrigger` windows (the
  engine's ingest shape), both without any memory profiler attached;
* a **profiled pass** — the same windowed ingest under :mod:`tracemalloc`,
  snapshotting traced memory at every window close.  ``mem_growth_mb``
  compares the mean of the second half of those checkpoints against the
  first half: a leaky (accumulating) implementation grows linearly with the
  event count, a lazy one is flat.

Event counts are deterministic per seed, so ``total_events`` doubles as an
exactness oracle for the CI gate (``check_bench_regression.py --only
stream``).  Results are committed to ``BENCH_stream_ingest.json``.

Run with:  PYTHONPATH=src python benchmarks/bench_stream_ingest.py [--quick]

``--quick`` runs one small cell and writes no JSON — CI smoke uses it to
exercise the path on every push without timing anybody.  It then runs a
second, merged cell: eight such streams, one per tenant, through
:func:`~repro.workloads.merge_streams` under the same trigger.  Their
thinned chunks hold far fewer than ``CHUNK_SIZE`` events, so the merge's
``CHUNK_SIZE`` strides engage; the cell checks that every generated event
is windowed and that memory stays flat, as the single-stream cell does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.engine import CountTrigger, windowed  # noqa: E402
from repro.workloads import (  # noqa: E402
    PoissonZipfStream,
    compose_modulations,
    diurnal_modulation,
    flash_crowd,
    merge_streams,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_stream_ingest.json"

NUM_PARTITIONS = 64
HORIZON_MONTHS = 12.0
# A window an engine would plausibly settle: big enough to amortize the
# trigger, small enough that O(window) memory is visibly O(1) in the stream.
WINDOW_EVENTS = 50_000
# Growth beyond this between checkpoint halves means the ingest path is
# accumulating state per event — the exact failure this benchmark guards.
FLAT_GROWTH_LIMIT_MB = 5.0

CELLS = (250_000, 1_000_000)
QUICK_CELL = 100_000
QUICK_WINDOW_EVENTS = 20_000
# Tenant streams in the quick merged cell.
MERGED_SOURCES = 8


def make_stream(
    num_events: int, seed: int = 7, tenant: str | None = None
) -> PoissonZipfStream:
    """A modulated Zipf stream whose mean event count is ``num_events``."""
    return PoissonZipfStream(
        [f"p{i:03d}" for i in range(NUM_PARTITIONS)],
        rate_per_month=num_events / HORIZON_MONTHS,
        horizon_months=HORIZON_MONTHS,
        zipf_exponent=1.1,
        seed=seed,
        modulation=compose_modulations(
            diurnal_modulation(amplitude=0.5),
            flash_crowd(start_month=6.0, magnitude=4.0, duration_months=0.25),
        ),
        tenant=tenant,
    )


def timed_pass(stream: object, window_events: int) -> dict:
    """Generation and windowed-ingest throughput, no profiler attached."""
    started = time.perf_counter()
    total_events = sum(len(chunk) for chunk in stream.chunks())
    gen_wall_s = time.perf_counter() - started

    started = time.perf_counter()
    num_windows = 0
    windowed_events = 0
    for window in windowed(
        stream, CountTrigger(window_events), horizon_months=HORIZON_MONTHS
    ):
        num_windows += 1
        windowed_events += len(window.events)
    windowed_wall_s = time.perf_counter() - started

    return {
        "total_events": total_events,
        "gen_wall_s": gen_wall_s,
        "gen_events_per_s": total_events / gen_wall_s if gen_wall_s else None,
        "num_windows": num_windows,
        "windowed_events": windowed_events,
        "windowed_wall_s": windowed_wall_s,
        "windowed_events_per_s": (
            windowed_events / windowed_wall_s if windowed_wall_s else None
        ),
    }


def profiled_pass(stream: object, window_events: int) -> dict:
    """Windowed ingest under tracemalloc: per-window-close memory checkpoints."""
    tracemalloc.start()
    try:
        baseline_b, _ = tracemalloc.get_traced_memory()
        checkpoints_mb: list[float] = []
        peak_mb = 0.0
        for _ in windowed(
            stream, CountTrigger(window_events), horizon_months=HORIZON_MONTHS
        ):
            current_b, peak_b = tracemalloc.get_traced_memory()
            checkpoints_mb.append((current_b - baseline_b) / 1e6)
            peak_mb = max(peak_mb, (peak_b - baseline_b) / 1e6)
    finally:
        tracemalloc.stop()

    half = max(1, len(checkpoints_mb) // 2)
    first_half = statistics.fmean(checkpoints_mb[:half])
    second_half = statistics.fmean(checkpoints_mb[half:]) if checkpoints_mb[half:] else first_half
    growth_mb = second_half - first_half
    return {
        "mem_checkpoints_mb": [round(mb, 3) for mb in checkpoints_mb],
        "mem_peak_mb": round(peak_mb, 3),
        "mem_growth_mb": round(growth_mb, 3),
        "memory_flat": growth_mb < FLAT_GROWTH_LIMIT_MB,
    }


def measure(stream: object, row: dict, expected_events: int | None = None) -> dict:
    """Time and profile ``stream`` into ``row``, print it and exit nonzero
    unless every generated event (``expected_events`` of them, when given)
    is windowed and memory stays flat."""
    row.update(timed_pass(stream, row["window_events"]))
    row.update(profiled_pass(stream, row["window_events"]))
    print(
        f"{row['total_events']:>9} events | gen {row['gen_wall_s']:6.2f} s "
        f"({row['gen_events_per_s']:>10.0f} ev/s) | windowed "
        f"{row['windowed_wall_s']:6.2f} s over {row['num_windows']:3d} windows | "
        f"peak {row['mem_peak_mb']:6.1f} MB | growth {row['mem_growth_mb']:+5.2f} MB "
        f"({'flat' if row['memory_flat'] else 'GROWING'})"
    )
    expected = row["total_events"] if expected_events is None else expected_events
    if not row["total_events"] == row["windowed_events"] == expected:
        raise SystemExit(
            f"{expected} events generated, but {row['total_events']} streamed "
            f"and {row['windowed_events']} windowed — the ingest path lost or "
            "duplicated events"
        )
    if not row["memory_flat"]:
        raise SystemExit(
            f"streaming ingest memory grew {row['mem_growth_mb']:.2f} MB "
            f"across the run (limit {FLAT_GROWTH_LIMIT_MB} MB) — the lazy "
            "path is accumulating per-event state"
        )
    return row


def run_cell(num_events: int, window_events: int = WINDOW_EVENTS, seed: int = 7) -> dict:
    row = {
        "num_events_target": num_events,
        "window_events": window_events,
        "seed": seed,
    }
    return measure(make_stream(num_events, seed=seed), row)


def run_merged_cell(
    num_events: int, window_events: int = QUICK_WINDOW_EVENTS, seed: int = 7
) -> dict:
    """:data:`MERGED_SOURCES` tenant streams sharing ``num_events`` events,
    merged into one stream and windowed as one."""
    streams = [
        make_stream(num_events // MERGED_SOURCES, seed=seed + k, tenant=f"t{k}")
        for k in range(MERGED_SOURCES)
    ]
    sizes = [len(chunk) for stream in streams for chunk in stream.chunks()]
    merged = merge_streams(*streams)
    strides = sum(1 for _ in merged.chunks())
    print(
        f"{MERGED_SOURCES} sources: {len(sizes)} chunks of "
        f"{statistics.median(sizes):.0f} events (median) merged into {strides} chunks"
    )
    row = {
        "num_events_target": num_events,
        "window_events": window_events,
        "seed": seed,
        "sources": MERGED_SOURCES,
    }
    return measure(merged, row, expected_events=sum(sizes))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small cell, no JSON output (CI smoke)",
    )
    args = parser.parse_args()

    print("Streaming ingest: lazy generation + trigger windowing")
    if args.quick:
        run_cell(QUICK_CELL, window_events=QUICK_WINDOW_EVENTS)
        run_merged_cell(QUICK_CELL)
        print("\n--quick: skipping JSON output")
        return

    rows = [run_cell(cell) for cell in CELLS]
    headline = max(rows, key=lambda row: row["total_events"])
    if headline["total_events"] < 1_000_000:
        raise SystemExit(
            f"headline cell produced {headline['total_events']} events; the "
            "committed claim requires at least 1M"
        )
    payload = {
        "benchmark": "stream_ingest",
        "window_events": WINDOW_EVENTS,
        "flat_growth_limit_mb": FLAT_GROWTH_LIMIT_MB,
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}")


if __name__ == "__main__":
    main()
