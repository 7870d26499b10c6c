"""Runtime benchmarks: the paper's quoted timings plus the scaling sweep.

The paper states that (a) the tier-only optimisation of a 463-dataset customer
account takes ~2.5 s, and (b) one pipeline optimisation pass (one
hyper-parameter setting) takes ~47 ms on average.  The two pytest-benchmark
tests below measure the analogous operations.

Run as a **script** this module additionally sweeps the vectorized
struct-of-arrays fast paths against their scalar reference oracles —

* greedy OPTASSIGN (scalar ``options_for`` loop vs masked argmin over the
  batch cost tensor) at 463 / 5k / 10k / 50k partitions,
* ``CloudStorageSimulator.step_month`` vs the precompiled
  :class:`~repro.cloud.CompiledPlacement` epoch step,
* the sparse-deque ``ScalarFeatureStore`` test oracle
  (``tests/oracles/engine_state.py``) vs the numpy ring-buffer
  :class:`~repro.engine.FeatureStore` ingest + window aggregation,
* incremental :class:`~repro.core.optassign.DeltaSolver` epochs vs the full
  vectorized solve at 10k partitions over drift fractions 1% / 5% / 20% /
  100% (only the drifted rows move, so the delta assignment must be
  *bit-identical* to the full solve),

verifies the fast paths produce identical answers, and writes
``BENCH_optassign_scaling.json`` plus ``BENCH_optassign_delta.json`` so the
perf trajectories are tracked across commits.

Run with:  PYTHONPATH=src python benchmarks/bench_runtime_scaling.py [--quick]

``--quick`` shrinks every size so CI can exercise the fast paths on every
push without timing anybody (no assertions on speedups in quick mode).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro import obs  # noqa: E402
from repro.cloud import (  # noqa: E402
    AccessEvent,
    CloudStorageSimulator,
    CompressionProfile,
    CostModel,
    DataPartition,
    TierCatalog,
    azure_tier_catalog,
)
from repro.core.optassign import (  # noqa: E402
    DeltaSolver,
    OptAssignProblem,
    solve_greedy,
    solve_optassign,
)
from repro.engine import FeatureStore  # noqa: E402
from oracles.engine_state import ScalarFeatureStore  # noqa: E402
from oracles.results import scalar_greedy  # noqa: E402

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_optassign_scaling.json"
OUTPUT_DELTA = Path(__file__).resolve().parent.parent / "BENCH_optassign_delta.json"

GREEDY_SIZES = (463, 5_000, 10_000, 50_000)
STEP_SIZES = (1_000, 10_000)
FEATURE_STORE_PARTITIONS = 1_000
DELTA_PARTITIONS = 10_000
DELTA_FRACTIONS = (0.01, 0.05, 0.20, 1.00)

QUICK_GREEDY_SIZES = (100, 500)
QUICK_STEP_SIZES = (200,)
QUICK_FEATURE_STORE_PARTITIONS = 100
QUICK_DELTA_PARTITIONS = 800


def _print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def _timed(function, name: str = "bench.run"):
    """``(result, duration_s)`` of one call, timed through the span API.

    A private :class:`repro.obs.Tracer` is used directly — the process-global
    observability switch stays off, so the code under test runs with no-op
    instrumentation and the measurement matches production-disabled timings,
    while the timing itself shares the span clock with live telemetry.
    """
    tracer = obs.Tracer()
    with tracer.span(name):
        result = function()
    return result, tracer.records()[-1].duration_s


def _best_of(function, repeats: int) -> float:
    return min(_timed(function, "bench.repeat")[1] for _ in range(repeats))


# The solver phases the per-phase regression gate tracks; identical to the
# span names the live telemetry exports (that is the point).
SOLVER_PHASES = (
    "optassign.batch_tensors",
    "optassign.greedy",
    "optassign.repair_capacity",
    "optassign.solve",
)


#: Cold runs per solver-phase profile; each phase reports its best run.
PHASE_RUNS = 5


def profile_solver_phases(count: int, capacity_fraction: float = 0.4) -> dict:
    """Per-phase wall clock of instrumented ``solve_optassign`` runs.

    One run solves the seeded instance uncapacitated (tensor build +
    greedy) and again with the hottest tier's capacity squeezed to
    ``capacity_fraction`` of the unconstrained usage (so
    ``repair_capacity`` actually fires), both on fresh problems under an
    enabled tracer, and aggregates the span durations with
    :func:`repro.obs.phase_totals` — the same phase names live telemetry
    exports, which is what lets ``check_bench_regression.py`` compare them.

    Each phase's ``total_s`` is the best of :data:`PHASE_RUNS` such cold
    runs, so a busy spell on the box during one run does not read as a
    regression; ``median_s`` and ``spread_s`` (slowest minus fastest total)
    record how far the runs scattered.
    """
    partitions, profiles = build_instance(count)
    samples: dict[str, list[dict]] = {}
    for _ in range(PHASE_RUNS):
        totals = _solver_phase_run(partitions, profiles, capacity_fraction)
        for name in SOLVER_PHASES:
            if name in totals:
                samples.setdefault(name, []).append(totals[name])
    phases = {}
    for name, stats in samples.items():
        run_totals = [entry["total_s"] for entry in stats]
        phases[name] = {
            **min(stats, key=lambda entry: entry["total_s"]),
            "runs": len(run_totals),
            "median_s": statistics.median(run_totals),
            "spread_s": max(run_totals) - min(run_totals),
        }
    return {"partitions": count, "phases": phases}


def _solver_phase_run(partitions, profiles, capacity_fraction: float) -> dict:
    """The span totals of one cold uncapacitated + squeezed solve pair."""
    model = CostModel(azure_tier_catalog(include_premium=False), duration_months=6.0)
    with obs.observed() as run:
        problem = OptAssignProblem(partitions, model, profiles)
        report = solve_optassign(problem, prefer="greedy")

        # Capacitated pass: squeeze the tier the unconstrained solve used
        # most so the repair phase does real eviction work.
        usage = np.zeros(len(model.tiers), dtype=np.float64)
        tensors = problem.batch_tensors()
        scheme_index = {scheme: k for k, scheme in enumerate(tensors.schemes)}
        for row, name in enumerate(problem.partition_names):
            option = report.assignment.choices[name]
            usage[option.tier_index] += tensors.stored_gb[
                scheme_index[option.scheme], row
            ]
        hot = int(np.argmax(usage))
        tiers = [
            tier.with_capacity(usage[hot] * capacity_fraction)
            if index == hot
            else tier
            for index, tier in enumerate(azure_tier_catalog(include_premium=False))
        ]
        bounded_model = CostModel(TierCatalog(tiers), duration_months=6.0)
        bounded = OptAssignProblem(partitions, bounded_model, profiles)
        solve_optassign(bounded, prefer="greedy")
    return obs.phase_totals(run.tracer.records())


def build_instance(count: int, seed: int = 91):
    """A seeded OPTASSIGN instance with two compression schemes per partition."""
    rng = np.random.default_rng(seed)
    partitions = [
        DataPartition(
            f"dataset_{index}",
            size_gb=float(rng.lognormal(4.0, 2.0)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0])),
            current_tier=0,
        )
        for index in range(count)
    ]
    profiles = {
        partition.name: {
            "gzip": CompressionProfile(
                "gzip",
                ratio=float(rng.uniform(2.0, 6.0)),
                decompression_s_per_gb=float(rng.uniform(0.5, 2.0)),
            ),
            "snappy": CompressionProfile(
                "snappy",
                ratio=float(rng.uniform(1.2, 3.0)),
                decompression_s_per_gb=float(rng.uniform(0.02, 0.3)),
            ),
        }
        for partition in partitions
    }
    return partitions, profiles


def sweep_greedy(sizes, repeats: int = 3) -> list[dict]:
    """Scalar vs vectorized greedy OPTASSIGN; assignments must be identical."""
    model = CostModel(azure_tier_catalog(include_premium=False), duration_months=6.0)
    rows = []
    for count in sizes:
        partitions, profiles = build_instance(count)
        scalar_repeats = 1 if count >= 20_000 else repeats
        scalar_problem = OptAssignProblem(partitions, model, profiles)
        scalar_s = _best_of(
            lambda: scalar_greedy(scalar_problem), scalar_repeats
        )
        # Both paths get a prebuilt problem; resetting the columnar caches
        # before each vectorized run keeps the timing the honest one-shot
        # solve cost (arrays + tensors + argmin), without re-paying problem
        # construction the scalar timing does not pay either.
        vectorized_problem = OptAssignProblem(partitions, model, profiles)

        def _cold_solve():
            vectorized_problem._arrays = None
            vectorized_problem._profile_columns_cache = None
            vectorized_problem._tensors = None
            solve_greedy(vectorized_problem)

        vectorized_s = _best_of(_cold_solve, repeats)
        warm_s = _best_of(lambda: solve_greedy(vectorized_problem), repeats)

        fast = solve_greedy(vectorized_problem)
        reference = scalar_greedy(scalar_problem)
        identical = all(
            fast.choices[name].tier_index == reference.choices[name].tier_index
            and fast.choices[name].scheme == reference.choices[name].scheme
            and fast.choices[name].objective == reference.choices[name].objective
            for name in scalar_problem.partition_names
        )
        row = {
            "partitions": count,
            "tiers": len(model.tiers),
            "schemes": len(vectorized_problem.scheme_union()),
            "scalar_s": scalar_s,
            "vectorized_s": vectorized_s,
            "vectorized_warm_s": warm_s,
            "speedup": scalar_s / vectorized_s,
            "speedup_warm": scalar_s / warm_s,
            "assignments_identical": identical,
        }
        rows.append(row)
        print(
            f"greedy {count:6d} partitions: scalar {scalar_s * 1e3:9.1f} ms  "
            f"vectorized {vectorized_s * 1e3:7.1f} ms ({row['speedup']:5.1f}x)  "
            f"warm {warm_s * 1e3:7.1f} ms ({row['speedup_warm']:5.1f}x)  "
            f"identical={identical}"
        )
    return rows


def sweep_delta(
    count: int, fractions=DELTA_FRACTIONS, repeats: int = 5, threshold: float = 0.1
) -> list[dict]:
    """Incremental delta epochs vs the full vectorized solve.

    Protocol per drift fraction: bootstrap a :class:`DeltaSolver` on the
    seeded instance and stabilise it (apply the placement until an epoch
    changes nothing), then scale ``fraction`` of the rows' access forecasts
    3x — far past the drift threshold — keep every other row bit-identical,
    and time (a) one delta solve against the warm cache vs (b) one full
    ``solve_optassign`` on the same instance, best of ``repeats`` each, the
    repeats of the two alternating so that a slow spell of the machine
    slows both sides of the speedup alike.  Both timings get a prebuilt
    columnar instance whose cost tensors and profile columns are reset to
    cold before every timed repeat, mirroring what a fresh re-optimization
    epoch actually pays; the delta cache is restored (inside the timed
    region) before every repeat so each measurement sees the same state.

    Because the undrifted rows are bit-unchanged, pinning them reproduces the
    full solve's argmin exactly — the delta assignment must be identical, not
    just within the regret bound, and the row records ``assignments_identical``
    accordingly.
    """
    from dataclasses import replace as _replace

    model = CostModel(azure_tier_catalog(include_premium=False), duration_months=6.0)
    partitions, profiles = build_instance(count)
    base = OptAssignProblem(partitions, model, profiles)
    base_arrays = base.partition_arrays()
    rng = np.random.default_rng(17)

    def make_problem(arrays):
        problem = OptAssignProblem(arrays, model, profiles)
        problem._tensors = None
        problem._profile_columns_cache = None
        return problem

    def prime() -> tuple[DeltaSolver, "object"]:
        """A stabilised solver plus the arrays of its fixed-point epoch."""
        solver = DeltaSolver(drift_threshold=threshold)
        arrays = base_arrays
        report = solver.solve(make_problem(arrays))
        for _ in range(5):
            chosen = np.fromiter(
                (report.assignment.choices[name].tier_index for name in arrays.names),
                dtype=np.int64,
                count=len(arrays),
            )
            arrays = _replace(arrays, current_tier=chosen)
            report = solver.solve(make_problem(arrays))
            if report.mode == "delta" and report.num_changed == 0:
                break
        return solver, arrays

    rows = []
    for fraction in fractions:
        solver, stable_arrays = prime()
        num_drifted = max(1, int(round(fraction * count)))
        drift_idx = rng.choice(count, size=num_drifted, replace=False)
        accesses = stable_arrays.predicted_accesses.copy()
        accesses[drift_idx] *= 3.0
        drifted_arrays = _replace(stable_arrays, predicted_accesses=accesses)

        snapshot = (
            {key: column.copy() for key, column in solver._features.items()},
            solver._tier.copy(),
            solver._scheme.copy(),
            solver._priced.copy(),
            solver._stored.copy(),
        )

        # The instance is prebuilt for both contenders (problem construction
        # is an epoch-setup cost neither path's solve should be charged for);
        # cost tensors and profile columns are reset to cold before every
        # repeat of either contender, exactly as at a fresh re-optimization.
        delta_problem = make_problem(drifted_arrays)

        def _delta_once():
            delta_problem._arrays = drifted_arrays
            delta_problem._tensors = None
            delta_problem._profile_columns_cache = None
            solver._features = {k: c.copy() for k, c in snapshot[0].items()}
            solver._tier = snapshot[1].copy()
            solver._scheme = snapshot[2].copy()
            solver._priced = snapshot[3].copy()
            solver._stored = snapshot[4].copy()
            return solver.solve(delta_problem)

        full_problem = make_problem(drifted_arrays)

        def _full_once():
            full_problem._arrays = drifted_arrays
            full_problem._tensors = None
            full_problem._profile_columns_cache = None
            solve_optassign(full_problem, prefer="greedy")

        delta_times, full_times = [], []
        for _ in range(repeats):
            delta_times.append(_timed(_delta_once, "bench.repeat")[1])
            full_times.append(_timed(_full_once, "bench.repeat")[1])
        delta_s, full_s = min(delta_times), min(full_times)
        delta_report = _delta_once()
        full_report = solve_optassign(full_problem, prefer="greedy")

        identical = all(
            delta_report.assignment.choices[name].tier_index
            == full_report.assignment.choices[name].tier_index
            and delta_report.assignment.choices[name].scheme
            == full_report.assignment.choices[name].scheme
            for name in full_problem.partition_names
        )
        row = {
            "partitions": count,
            "drift_fraction": fraction,
            "drift_threshold": threshold,
            "changed_rows": delta_report.num_changed,
            "pinned_rows": delta_report.num_pinned,
            "mode": delta_report.mode,
            "delta_s": delta_s,
            "full_s": full_s,
            "speedup": full_s / delta_s,
            "assignments_identical": identical,
        }
        rows.append(row)
        print(
            f"delta {count:6d} partitions, {fraction * 100:5.1f}% drifted "
            f"({delta_report.num_changed:5d} rows, mode={delta_report.mode}): "
            f"delta {delta_s * 1e3:7.2f} ms  full {full_s * 1e3:7.2f} ms "
            f"({row['speedup']:4.1f}x)  identical={identical}"
        )
    return rows


def sweep_step_month(sizes, events_per_epoch: int = 5_000, repeats: int = 3) -> list[dict]:
    """Scalar step_month vs the precompiled vectorized epoch step."""
    tiers = azure_tier_catalog(include_premium=False)
    simulator = CloudStorageSimulator(tiers)
    rows = []
    for count in sizes:
        partitions, _ = build_instance(count, seed=7)
        placement = simulator.default_placement(partitions)
        rng = np.random.default_rng(11)
        events = [
            AccessEvent(
                month=0,
                partition=f"dataset_{int(rng.integers(0, count))}",
                reads=float(rng.integers(1, 5)),
            )
            for _ in range(min(events_per_epoch, 5 * count))
        ]
        scalar_s = _best_of(
            lambda: simulator.step_month(partitions, placement, events), repeats
        )
        compiled, compile_s = _timed(
            lambda: simulator.compile_placement(partitions, placement),
            "bench.compile",
        )
        compiled_s = _best_of(lambda: compiled.step(events), repeats)
        fast = compiled.step(events)
        reference = simulator.step_month(partitions, placement, events)
        agree = (
            abs(fast.bill.total - reference.bill.total)
            <= 1e-9 * max(1.0, abs(reference.bill.total))
            and fast.access_count == reference.access_count
            and fast.latency_violations == reference.latency_violations
        )
        row = {
            "partitions": count,
            "events": len(events),
            "scalar_s": scalar_s,
            "compile_s": compile_s,
            "compiled_step_s": compiled_s,
            "speedup": scalar_s / compiled_s,
            "bills_agree": agree,
        }
        rows.append(row)
        print(
            f"step_month {count:6d} partitions, {len(events):5d} events: "
            f"scalar {scalar_s * 1e3:8.2f} ms  compiled {compiled_s * 1e3:7.2f} ms "
            f"({row['speedup']:5.1f}x, compile {compile_s * 1e3:.2f} ms)  agree={agree}"
        )
    return rows


def sweep_feature_store(
    partitions: int, epochs: int = 48, events_per_epoch: int = 1_000, window: int = 6
) -> dict:
    """Scalar deque store vs numpy ring buffers: ingest + window aggregation."""
    rng = np.random.default_rng(13)
    names = [f"p{i:05d}" for i in range(partitions)]
    batches = []
    for epoch in range(epochs):
        chosen = rng.integers(0, partitions, size=events_per_epoch)
        counts: dict[str, float] = {}
        for index in chosen:
            name = names[index]
            counts[name] = counts.get(name, 0.0) + 1.0
        batches.append(counts)

    results = {}
    stores = {"scalar": ScalarFeatureStore(window), "ring": FeatureStore(window)}
    for label, store in stores.items():

        def _ingest(store=store):
            for epoch, counts in enumerate(batches):
                store.observe_counts(epoch, counts)

        _, ingest_s = _timed(_ingest, "bench.ingest")
        _, aggregate_s = _timed(
            lambda store=store: store.window_series_map(names), "bench.aggregate"
        )
        results[label] = {
            "ingest_s_per_epoch": ingest_s / epochs,
            "window_aggregation_s": aggregate_s,
        }
    agree = (
        stores["scalar"].window_series_map(names)
        == stores["ring"].window_series_map(names)
    )
    summary = {
        "partitions": partitions,
        "epochs": epochs,
        "events_per_epoch": events_per_epoch,
        "window_months": window,
        **{
            f"{label}_{key}": value
            for label, metrics in results.items()
            for key, value in metrics.items()
        },
        "ingest_speedup": results["scalar"]["ingest_s_per_epoch"]
        / results["ring"]["ingest_s_per_epoch"],
        "aggregation_speedup": results["scalar"]["window_aggregation_s"]
        / results["ring"]["window_aggregation_s"],
        "series_identical": agree,
    }
    print(
        f"feature store {partitions} partitions x {epochs} epochs: "
        f"ingest {summary['scalar_ingest_s_per_epoch'] * 1e6:8.1f} -> "
        f"{summary['ring_ingest_s_per_epoch'] * 1e6:8.1f} us/epoch "
        f"({summary['ingest_speedup']:.1f}x), aggregation "
        f"{summary['scalar_window_aggregation_s'] * 1e3:7.2f} -> "
        f"{summary['ring_window_aggregation_s'] * 1e3:7.2f} ms "
        f"({summary['aggregation_speedup']:.1f}x), identical={agree}"
    )
    return summary


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes, no speedup assertions, no JSON output (CI smoke mode)",
    )
    args = parser.parse_args(argv)

    greedy_sizes = QUICK_GREEDY_SIZES if args.quick else GREEDY_SIZES
    step_sizes = QUICK_STEP_SIZES if args.quick else STEP_SIZES
    store_partitions = (
        QUICK_FEATURE_STORE_PARTITIONS if args.quick else FEATURE_STORE_PARTITIONS
    )

    _print_section("Greedy OPTASSIGN: scalar oracle vs vectorized masked argmin")
    greedy_rows = sweep_greedy(greedy_sizes, repeats=2 if args.quick else 3)
    _print_section("step_month: scalar loop vs CompiledPlacement")
    step_rows = sweep_step_month(step_sizes, repeats=2 if args.quick else 3)
    _print_section("FeatureStore: sparse deques vs numpy ring buffers")
    store_row = sweep_feature_store(
        store_partitions, epochs=12 if args.quick else 48
    )
    _print_section("DeltaSolver: incremental epochs vs full vectorized solve")
    delta_rows = sweep_delta(
        QUICK_DELTA_PARTITIONS if args.quick else DELTA_PARTITIONS,
        repeats=2 if args.quick else 3,
    )
    _print_section("Solver phases: span-derived per-phase wall clock")
    phase_profile = profile_solver_phases(500 if args.quick else 10_000)
    for name, stats in sorted(phase_profile["phases"].items()):
        print(
            f"{name:28s} best {stats['total_s'] * 1e3:8.2f} ms  "
            f"median {stats['median_s'] * 1e3:8.2f} ms  "
            f"spread {stats['spread_s'] * 1e3:7.2f} ms  count {stats['count']:3d}"
        )
    missing = [name for name in SOLVER_PHASES if name not in phase_profile["phases"]]
    if missing:
        raise SystemExit(f"solver phase spans missing from the profile: {missing}")

    if not all(row["assignments_identical"] for row in greedy_rows):
        raise SystemExit("vectorized greedy diverged from the scalar oracle")
    if not all(row["bills_agree"] for row in step_rows):
        raise SystemExit("compiled step_month diverged from the scalar oracle")
    if not store_row["series_identical"]:
        raise SystemExit("ring-buffer feature store diverged from the scalar oracle")
    if not all(row["assignments_identical"] for row in delta_rows):
        raise SystemExit("delta solve diverged from the full solve oracle")

    if args.quick:
        print("\nquick mode: fast paths exercised and verified, nothing written")
        return

    payload = {
        "benchmark": "optassign_scaling",
        "greedy": greedy_rows,
        "step_month": step_rows,
        "feature_store": store_row,
        "solver_phases": phase_profile,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2))
    print(f"\nwrote {OUTPUT}")

    delta_payload = {
        "benchmark": "optassign_delta",
        "partitions": DELTA_PARTITIONS,
        "drift_threshold": 0.1,
        "rows": delta_rows,
    }
    OUTPUT_DELTA.write_text(json.dumps(delta_payload, indent=2))
    print(f"wrote {OUTPUT_DELTA}")

    at_10k = next(row for row in greedy_rows if row["partitions"] == 10_000)
    print(
        f"greedy OPTASSIGN at 10k partitions: {at_10k['speedup']:.1f}x cold, "
        f"{at_10k['speedup_warm']:.1f}x warm (target >= 10x)"
    )
    at_5pct = next(row for row in delta_rows if row["drift_fraction"] == 0.05)
    print(
        f"delta solve at 10k partitions / 5% drift: {at_5pct['speedup']:.1f}x "
        "vs full solve (target >= 3x)"
    )
    if at_5pct["speedup"] < 3.0:
        raise SystemExit("delta solve at 5% drift fell below the 3x target")


# ---------------------------------------------------------------------------
# pytest-benchmark tests (the paper's quoted runtimes)
# ---------------------------------------------------------------------------

def test_greedy_optassign_on_463_datasets(benchmark):
    """Tier-only optimisation of a 463-dataset account (paper: 2.53 s on Spark)."""
    rng = np.random.default_rng(91)
    partitions = [
        DataPartition(
            f"dataset_{index}",
            size_gb=float(rng.lognormal(4.0, 2.0)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0])),
            current_tier=0,
        )
        for index in range(463)
    ]
    model = CostModel(azure_tier_catalog(include_premium=False), duration_months=6.0)
    problem = OptAssignProblem(partitions, model)

    from conftest import print_section

    assignment = benchmark(lambda: solve_greedy(problem))
    print_section("Runtime: greedy OPTASSIGN over 463 datasets (paper: 2.53 s)")
    print(f"tier counts: {assignment.tier_counts()}")
    assert len(assignment.choices) == 463


def test_single_pipeline_optimisation_pass(benchmark, tpch_small, tpch_small_workload):
    """One OPTASSIGN pass inside the prepared pipeline (paper: ~47 ms per setting)."""
    from repro.core.pipeline import ScopeConfig, ScopePipeline, paper_variant_suite
    from conftest import print_section

    config = ScopeConfig(rows_per_file=200, target_total_gb=50.0)
    pipeline = ScopePipeline(tpch_small.tables, tpch_small_workload, config).prepare()
    variant = paper_variant_suite()[-1]  # SCOPe (Total cost focused)
    # Warm the compression-profile cache so the measurement isolates the solve.
    pipeline.run_variant(variant)

    row = benchmark(lambda: pipeline.run_variant(variant))
    print_section("Runtime: one pipeline optimisation pass (paper: ~47 ms)")
    print(f"total cost {row.total_cost:.1f} cents, tiering scheme {row.tier_counts}")
    assert row.total_cost > 0


if __name__ == "__main__":
    main()
