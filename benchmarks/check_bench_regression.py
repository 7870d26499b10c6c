#!/usr/bin/env python
"""CI perf-regression gate: re-run a benchmark subset against BENCH_*.json.

This script gates the six benchmark trajectories committed at the repo
root:

* ``BENCH_optassign_scaling.json`` — scalar vs vectorized greedy OPTASSIGN;
* ``BENCH_optassign_delta.json``   — incremental delta solve vs full re-solve;
* ``BENCH_fleet_scaling.json``     — per-tenant loop vs stacked fleet solve;
* ``BENCH_engine_online.json``     — online engine bills per policy;
* ``BENCH_stream_ingest.json``     — lazy stream generation and windowing;
* ``BENCH_chaos_overhead.json``    — calm and storm bills with chaos attached
  (bills only: its timing rows are not gated).

This script re-runs a small, representative subset of each sweep on the
current checkout and fails (non-zero exit) when the code has regressed
against the committed baseline:

* **Wall clock** gets a deliberately generous tolerance — measured time must
  stay under ``2x`` the committed number plus a small absolute slack, so CI
  runner jitter and slower hardware don't produce false alarms while a
  genuine algorithmic regression (a lost fast path, an accidental O(n^2))
  still trips the gate.
* **Exactness flags** (``assignments_identical``, ``oracle_verified``) must
  remain true: the vectorized / stacked / delta paths must keep reproducing
  the scalar oracle bit-for-bit.
* **Bills are deterministic**, so the online engine's per-policy
  ``total_bill_cents`` and ``reoptimizations`` and the chaos cells' calm and
  storm bills must match the baseline exactly (within float-reassociation
  epsilon) — any drift means the engine's semantics changed and the baseline
  must be consciously re-recorded.  An empty chaos schedule must leave the
  bare bill unchanged bit for bit.
* The delta solver's headline claim — ``>= 3x`` speedup over the full solve
  at 5% drift on 10k partitions — is re-asserted on every run, and every
  drift row's speedup over the full solve timed in the same run must stay
  at or above ``SPEEDUP_FLOOR`` (0.6) of its committed value: a relative
  check a slow runner cannot fail and a 2x slower delta solve cannot pass.
* The streaming ingest headline — at least 1M events with flat traced
  memory — is gated statically from the committed JSON, and the smallest
  cell is re-run live for its deterministic event and window counts.
* **Per-phase span timings** of the solver (tensor build / greedy / capacity
  repair / solve, from ``repro.obs`` spans) are compared phase by phase with
  the same 2x-plus-jitter policy, so a regression localises to the phase
  that caused it.  The fleet layers are timed by ``e2ebench`` instead.

Re-baselining: when a change legitimately shifts these numbers (new cost
model, different workload seed, faster algorithm), regenerate the committed
JSON on a quiet machine and commit it alongside the change::

    PYTHONPATH=src python benchmarks/bench_runtime_scaling.py
    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py
    PYTHONPATH=src python benchmarks/bench_engine_online.py
    PYTHONPATH=src python benchmarks/bench_stream_ingest.py
    PYTHONPATH=src python benchmarks/bench_chaos_overhead.py

Usage::

    PYTHONPATH=src python benchmarks/check_bench_regression.py
    PYTHONPATH=src python benchmarks/check_bench_regression.py --only delta
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WALL_CLOCK_FACTOR = 2.0
# Absolute slack absorbs scheduler jitter on sub-10ms baselines, where a
# single context switch would otherwise exceed 2x on its own.
WALL_CLOCK_SLACK_S = 0.05
# Bills are deterministic; the epsilon only absorbs float reassociation
# across BLAS/SIMD builds, not semantic drift.
BILL_REL_TOLERANCE = 1e-9
# A delta row's speedup over the full solve, both timed in the same run, may
# fall to this share of its committed value and no lower.  A slow box slows
# both sides alike, while a 2x slower delta solve halves the speedup and
# fails; the wall-clock allowance above passes any 2x regression of rows
# this short.
SPEEDUP_FLOOR = 0.6

_FAILURES: list[str] = []


def _check(label: str, ok: bool, detail: str) -> None:
    status = "ok  " if ok else "FAIL"
    print(f"  [{status}] {label}: {detail}")
    if not ok:
        _FAILURES.append(f"{label}: {detail}")


def _check_wall_clock(label: str, measured: float, baseline: float) -> None:
    allowed = WALL_CLOCK_FACTOR * baseline + WALL_CLOCK_SLACK_S
    _check(
        label,
        measured <= allowed,
        f"{measured * 1e3:.2f} ms vs baseline {baseline * 1e3:.2f} ms "
        f"(allowed {allowed * 1e3:.2f} ms)",
    )


def _check_speedup(label: str, measured: float, committed: float) -> None:
    floor = SPEEDUP_FLOOR * committed
    _check(
        label,
        measured >= floor,
        f"{measured:.2f}x vs committed {committed:.2f}x (floor {floor:.2f}x)",
    )


def _load(name: str) -> dict:
    path = ROOT / name
    if not path.exists():
        raise SystemExit(f"missing committed baseline {name}; run the benchmark first")
    with path.open() as handle:
        return json.load(handle)


def check_optassign() -> None:
    """Vectorized greedy solve: wall clock + scalar-oracle exactness."""
    from bench_runtime_scaling import sweep_greedy

    print("== optassign greedy scaling (463 and 10k partitions)")
    baseline = {row["partitions"]: row for row in _load("BENCH_optassign_scaling.json")["greedy"]}
    for row in sweep_greedy((463, 10_000)):
        base = baseline[row["partitions"]]
        n = row["partitions"]
        _check(
            f"greedy[{n}] identical",
            row["assignments_identical"],
            "vectorized matches scalar oracle",
        )
        _check_wall_clock(f"greedy[{n}] cold", row["vectorized_s"], base["vectorized_s"])
        _check_wall_clock(f"greedy[{n}] warm", row["vectorized_warm_s"], base["vectorized_warm_s"])


def check_delta() -> None:
    """Delta solver: wall clock and same-run speedup per drift fraction,
    exactness, 3x headline."""
    from bench_runtime_scaling import DELTA_PARTITIONS, sweep_delta

    print("== optassign delta vs full (10k partitions)")
    baseline = {
        row["drift_fraction"]: row
        for row in _load("BENCH_optassign_delta.json")["rows"]
    }
    for row in sweep_delta(DELTA_PARTITIONS):
        base = baseline[row["drift_fraction"]]
        tag = f"delta[{row['drift_fraction']:.0%}]"
        _check(f"{tag} identical", row["assignments_identical"], "delta matches full solve")
        _check(
            f"{tag} mode",
            row["mode"] == base["mode"],
            f"mode={row['mode']} (baseline {base['mode']})",
        )
        _check_wall_clock(f"{tag} wall clock", row["delta_s"], base["delta_s"])
        _check_speedup(f"{tag} speedup", row["speedup"], base["speedup"])
        if row["drift_fraction"] == 0.05:
            _check(
                f"{tag} headline speedup",
                row["speedup"] >= 3.0,
                f"{row['speedup']:.1f}x vs full (floor 3.0x)",
            )


def check_fleet() -> None:
    """Stacked fleet solve: wall clock + per-tenant oracle agreement."""
    from bench_fleet_scaling import sweep

    print("== fleet stacked solve (32 tenants x 64 partitions)")
    baseline = {
        (row["tenants"], row["partitions_per_tenant"]): row
        for row in _load("BENCH_fleet_scaling.json")["rows"]
    }
    for row in sweep(((32, 64),), repeats=3, verify=True):
        base = baseline[(row["tenants"], row["partitions_per_tenant"])]
        tag = f"fleet[{row['tenants']}x{row['partitions_per_tenant']}]"
        _check(f"{tag} oracle", row["oracle_verified"], "stacked matches per-tenant solves")
        _check_wall_clock(f"{tag} stacked", row["stacked_vectorized_s"], base["stacked_vectorized_s"])


def check_phases() -> None:
    """Span-derived per-phase timings of the solver (tensor build / greedy /
    repair).

    The phase names are the exact span names the live telemetry exports
    (``repro.obs``), so the regression gate and a production trace disagree
    about nothing: a phase that regresses in CI is the same phase an operator
    would see ballooning in a span dump.  Same 2x-plus-jitter policy as the
    end-to-end wall clocks.  The fleet layers are timed at full size by
    ``e2ebench`` (``--trace 1``), whose traced bill lock also checks that
    instrumentation leaves the bill alone.
    """
    from bench_runtime_scaling import SOLVER_PHASES, profile_solver_phases

    print("== per-phase span timings (solver)")
    solver_base = _load("BENCH_optassign_scaling.json").get("solver_phases")
    if solver_base is None:
        raise SystemExit(
            "baseline has no solver_phases; re-record BENCH_optassign_scaling.json"
        )
    measured = profile_solver_phases(solver_base["partitions"])
    for name in SOLVER_PHASES:
        _check(
            f"phase[{name}] present",
            name in measured["phases"],
            "span recorded by the instrumented solve",
        )
        if name in measured["phases"] and name in solver_base["phases"]:
            _check_wall_clock(
                f"phase[{name}]",
                measured["phases"][name]["total_s"],
                solver_base["phases"][name]["total_s"],
            )


def _check_bill(label: str, measured: float, expected: float) -> None:
    relative = abs(measured - expected) / max(abs(expected), 1.0)
    _check(
        label,
        relative <= BILL_REL_TOLERANCE,
        f"{measured:.4f} vs baseline {expected:.4f} cents (rel {relative:.2e})",
    )


def check_engine() -> None:
    """Online engine: bill-exactness per policy plus total wall clock."""
    from bench_engine_online import build_workload, run_policies

    print("== online engine policies (bill exactness)")
    baseline = _load("BENCH_engine_online.json")["policies"]
    series, partitions = build_workload()
    for name, result in run_policies(series, partitions).items():
        base = baseline[name]
        _check_bill(
            f"engine[{name}] bill", result["total_bill_cents"], base["total_bill_cents"]
        )
        _check(
            f"engine[{name}] reopts",
            result["reoptimizations"] == base["reoptimizations"],
            f"{result['reoptimizations']} vs baseline {base['reoptimizations']}",
        )
        _check_wall_clock(
            f"engine[{name}] wall clock",
            result["wall_clock_total_s"],
            base["wall_clock_total_s"],
        )


def check_stream() -> None:
    """Streaming ingest: event-count exactness, flat memory, wall clock.

    The committed headline — at least 1M events with flat traced memory —
    is gated statically from the JSON (re-running the full cell on every
    push is wasteful); the smallest committed cell is re-run live so the
    lazy generation + windowing path is exercised on the current checkout.
    Event counts are deterministic per seed, so a count mismatch means the
    generator's semantics changed and the baseline must be consciously
    re-recorded.
    """
    from bench_stream_ingest import run_cell

    print("== streaming ingest (lazy generation + trigger windows)")
    payload = _load("BENCH_stream_ingest.json")
    rows = payload["rows"]
    headline = max(rows, key=lambda row: row["total_events"])
    _check(
        "stream[headline] scale",
        headline["total_events"] >= 1_000_000,
        f"committed headline covers {headline['total_events']} events "
        "(floor 1M)",
    )
    _check(
        "stream[headline] memory flat",
        all(row["memory_flat"] for row in rows),
        f"growth {headline['mem_growth_mb']:+.2f} MB across "
        f"{headline['total_events']} events (limit "
        f"{payload['flat_growth_limit_mb']} MB)",
    )

    small = min(rows, key=lambda row: row["total_events"])
    row = run_cell(
        small["num_events_target"],
        window_events=small["window_events"],
        seed=small["seed"],
    )
    _check(
        "stream[live] count",
        row["total_events"] == small["total_events"],
        f"{row['total_events']} events vs baseline {small['total_events']} "
        "(deterministic per seed)",
    )
    _check(
        "stream[live] windows",
        row["num_windows"] == small["num_windows"],
        f"{row['num_windows']} windows vs baseline {small['num_windows']}",
    )
    _check(
        "stream[live] memory flat",
        row["memory_flat"],
        f"growth {row['mem_growth_mb']:+.2f} MB",
    )
    _check_wall_clock("stream[live] generation", row["gen_wall_s"], small["gen_wall_s"])
    _check_wall_clock(
        "stream[live] windowed ingest",
        row["windowed_wall_s"],
        small["windowed_wall_s"],
    )


def check_chaos() -> None:
    """Chaos attachment: the engine and fleet cells at the committed size.

    An empty schedule must leave the bare bill unchanged bit for bit, and
    the bare (calm) and disrupted (storm) bills must match the committed
    ones.  The cells' timings are not checked.
    """
    from bench_chaos_overhead import run_engine, run_fleet, storm_schedule

    from repro.chaos import ChaosInjector, DisruptionSchedule

    print("== chaos attachment (calm identity, calm and storm bills)")
    payload = _load("BENCH_chaos_overhead.json")
    size = payload["workload"]
    months = size["months"]
    partitions = size["partitions_per_tenant"]
    runners = {
        "engine": lambda chaos: run_engine(months, partitions, chaos),
        "fleet": lambda chaos: run_fleet(
            months, size["fleet_tenants"], partitions, chaos
        ),
    }
    for label, runner in runners.items():
        base = payload[label]
        bare = runner(None)[0].total_bill
        calm = runner(ChaosInjector(DisruptionSchedule.empty()))[0].total_bill
        storm = runner(ChaosInjector(storm_schedule()))[0].total_bill
        _check(
            f"chaos[{label}] calm identity",
            calm == bare,
            f"empty schedule {calm!r} vs bare {bare!r} cents",
        )
        _check_bill(f"chaos[{label}] calm bill", bare, base["calm_bill_cents"])
        _check_bill(f"chaos[{label}] storm bill", storm, base["storm_bill_cents"])


CHECKS = {
    "optassign": check_optassign,
    "delta": check_delta,
    "fleet": check_fleet,
    "engine": check_engine,
    "phases": check_phases,
    "stream": check_stream,
    "chaos": check_chaos,
}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        choices=sorted(CHECKS),
        action="append",
        help="run only the named suite(s); default runs all of them",
    )
    options = parser.parse_args(argv)
    selected = options.only or sorted(CHECKS)
    for name in selected:
        # Each suite starts from a collected heap, so that the cyclic garbage
        # one suite leaves (the delta sweep's exactness check leaves about
        # 230k objects in choice views) is not collected inside a timed run
        # of the next: one such pass took 109 ms of a 10 ms engine timing.
        gc.collect()
        CHECKS[name]()
    print()
    if _FAILURES:
        print(f"bench regression: {len(_FAILURES)} check(s) FAILED")
        for failure in _FAILURES:
            print(f"  - {failure}")
        print(
            "If the change legitimately shifts these numbers, re-record the "
            "baselines (see module docstring) and commit the JSON."
        )
        raise SystemExit(1)
    print("bench regression: all checks passed")


if __name__ == "__main__":
    main()
