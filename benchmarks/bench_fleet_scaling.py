"""Fleet-scale solve benchmark: stacked-vectorized vs per-tenant-scalar.

Sweeps a (tenants x partitions-per-tenant) grid and times one fleet-wide
re-optimization three ways:

* **per-tenant scalar** — N independent scalar greedy solves (the original
  reference oracle, one ``options_for`` loop per tenant);
* **per-tenant vectorized** — N independent vectorized greedy solves (what N
  un-stacked engines would do);
* **stacked vectorized** — one tenant-tagged
  :class:`~repro.core.optassign.StackedProblem` solve over every tenant's
  partitions at once (what the :class:`~repro.fleet.FleetScheduler` does).

``cores_available`` records ``os.cpu_count()`` so committed numbers are
interpretable.  Every stacked choice is verified identical (tier, scheme,
bit-exact objective) to its per-tenant solve before any timing is reported,
and the results are written to ``BENCH_fleet_scaling.json`` so the perf
trajectory is tracked across commits.

Run with:  PYTHONPATH=src python benchmarks/bench_fleet_scaling.py [--quick]

``--quick`` shrinks the grid so CI can exercise the stacked path (and its
oracle equivalence check) on every push without timing anybody.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro import obs  # noqa: E402
from repro.cloud import (  # noqa: E402
    CompressionProfile,
    CostModel,
    DataPartition,
    azure_tier_catalog,
)
from repro.core.optassign import OptAssignProblem, solve_greedy  # noqa: E402
from oracles.problems import split_choices, stack  # noqa: E402
from oracles.results import scalar_greedy  # noqa: E402

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fleet_scaling.json"

GRID = ((8, 64), (32, 64), (32, 256), (128, 256))
QUICK_GRID = ((2, 16), (4, 32))


def _best_of(function, repeats: int, setup=None) -> float:
    """Best wall-clock of ``function`` over fresh ``setup()`` state.

    Every engine re-optimization builds its OPTASSIGN problems from scratch
    (forecasts change every epoch), so each repeat gets cold problems — no
    path may amortise its tensor caches across repeats.  Timing goes through
    the span API (a private tracer; the process-global switch stays off, so
    the code under test runs with no-op instrumentation).
    """
    best = float("inf")
    tracer = obs.Tracer()
    for _ in range(repeats):
        state = setup() if setup is not None else None
        with tracer.span("bench.repeat"):
            function(state)
        best = min(best, tracer.records()[-1].duration_s)
    return best


def build_tenant_problem(model: CostModel, seed: int, count: int) -> OptAssignProblem:
    rng = np.random.default_rng(seed)
    partitions = [
        DataPartition(
            f"p{index:05d}",
            size_gb=float(rng.lognormal(3.0, 1.5)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0])),
            current_tier=int(rng.integers(-1, 3)),
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
    return OptAssignProblem(partitions, model, profiles)


def verify_stacked_matches_oracle(stacked_assignment, stacked, problems) -> None:
    split = split_choices(stacked, stacked_assignment)
    for tenant, problem in problems.items():
        oracle = scalar_greedy(problem)
        for name, choice in oracle.choices.items():
            mine = split[tenant][name]
            assert mine.tier_index == choice.tier_index, (tenant, name)
            assert mine.scheme == choice.scheme, (tenant, name)
            assert mine.objective == choice.objective, (tenant, name)


def sweep(grid, repeats: int = 3, verify: bool = True) -> list[dict]:
    model = CostModel(azure_tier_catalog(), duration_months=6.0)
    rows: list[dict] = []
    for tenants, per_tenant in grid:
        def build_all():
            return {
                f"tenant_{index:04d}": build_tenant_problem(
                    model, seed=1000 + index, count=per_tenant
                )
                for index in range(tenants)
            }

        scalar_s = _best_of(
            lambda problems: [
                scalar_greedy(problem)
                for problem in problems.values()
            ],
            1 if tenants * per_tenant >= 16_384 else repeats,
            setup=build_all,
        )
        vectorized_s = _best_of(
            lambda problems: [
                solve_greedy(problem) for problem in problems.values()
            ],
            repeats,
            setup=build_all,
        )

        def stacked_solve(problems):
            stacked = stack(problems)
            assignment = solve_greedy(stacked.problem)
            return stacked, assignment

        stacked_s = _best_of(stacked_solve, repeats, setup=build_all)
        if verify:
            problems = build_all()
            stacked, assignment = stacked_solve(problems)
            verify_stacked_matches_oracle(assignment, stacked, problems)

        row = {
            "tenants": tenants,
            "partitions_per_tenant": per_tenant,
            "total_partitions": tenants * per_tenant,
            "per_tenant_scalar_s": scalar_s,
            "per_tenant_vectorized_s": vectorized_s,
            "stacked_vectorized_s": stacked_s,
            "stacked_vs_scalar_speedup": scalar_s / stacked_s if stacked_s else None,
            "stacked_vs_per_tenant_vectorized_speedup": (
                vectorized_s / stacked_s if stacked_s else None
            ),
            "oracle_verified": verify,
        }
        rows.append(row)
        print(
            f"{tenants:>5} tenants x {per_tenant:>5} partitions: "
            f"scalar {scalar_s * 1e3:9.1f} ms | "
            f"per-tenant vec {vectorized_s * 1e3:9.1f} ms | "
            f"stacked {stacked_s * 1e3:9.1f} ms | "
            f"{row['stacked_vs_scalar_speedup']:.1f}x vs scalar"
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny grid for CI smoke runs (no timing assertions anywhere)",
    )
    args = parser.parse_args()

    grid = QUICK_GRID if args.quick else GRID
    print("Fleet solve scaling: per-tenant scalar vs stacked vectorized")
    rows = sweep(grid, repeats=2 if args.quick else 3)

    if args.quick:
        print("\n--quick: skipping JSON output")
        return
    payload = {
        "benchmark": "fleet_scaling",
        "cores_available": os.cpu_count(),
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT.name}")


if __name__ == "__main__":
    main()
