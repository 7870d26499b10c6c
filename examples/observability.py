"""Observability walkthrough: trace a solve and a fleet window end to end.

Everything in :mod:`repro.obs` is off by default — the engine, solver and
fleet scheduler are instrumented, but until a run is wrapped in
``obs.observed()`` every span and counter is a shared no-op and the billed
results are bit-identical.  This example turns the lights on twice:

1. **A capacitated OPTASSIGN solve.**  The hottest tier's capacity is
   squeezed below what the unconstrained solve wants, so the span tree shows
   the full solver pipeline: tensor build, vectorized greedy argmin, and the
   capacity-repair eviction rounds.
2. **A drift-triggered fleet run on a contended pool.**  One hot tenant and
   two cold tenants share a performance pool sized below the hot tenant's
   demand; the hot tenant's workload flips mid-run, firing its drift
   trigger.  The span tree of one re-optimizing month (a one-month
   ``fleet.window``) covers problem building, the stacked solve, pool
   arbitration (``optassign.repair_pools``), migration and the fleet's
   settle pass.

The traced run is then exported three ways — human summary tables, a
lossless JSONL dump (``--out`` writes it; CI validates it against
``schemas/obs_export.schema.json``), and the Prometheus text format — and
the JSONL round trip is asserted byte-exact.

Run with:  python examples/observability.py [--quick] [--out spans.jsonl]
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from repro import obs
from repro.cloud import (
    CapacityPool,
    CompressionProfile,
    CostModel,
    DataPartition,
    PoolSet,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import OptAssignProblem, solve_optassign
from repro.engine import DriftTriggered, EngineConfig, OnlineTieringEngine
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec

#: The solver/fleet phases the traced run must cover (the same span names the
#: benchmark JSON and the CI regression gate use).
REQUIRED_PHASES = (
    "optassign.solve",
    "optassign.batch_tensors",
    "optassign.greedy",
    "optassign.repair_capacity",
    "optassign.repair_pools",
    "fleet.window",
    "fleet.build_problem",
    "fleet.stack",
    "fleet.solve",
    "fleet.apply",
    "fleet.settle",
    "engine.policy_decision",
    "engine.build_problem",
    "engine.forecast",
    "engine.migrate",
    "engine.settle",
    "engine.ingest",
    "engine.feature_store",
)


def _banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def build_capacitated_problem(count: int) -> OptAssignProblem:
    """A seeded instance whose busiest tier is squeezed to 40% of demand."""
    rng = np.random.default_rng(42)
    tiers = azure_tier_catalog(include_premium=False)
    partitions = [
        DataPartition(
            f"dataset_{index:03d}",
            size_gb=float(rng.lognormal(3.5, 1.2)),
            predicted_accesses=float(rng.lognormal(1.0, 1.8)),
            latency_threshold_s=float(rng.choice([60.0, 7200.0])),
            current_tier=0,
        )
        for index in range(count)
    ]
    profiles = {
        partition.name: {
            "gzip": CompressionProfile(
                "gzip",
                ratio=float(rng.uniform(2.0, 5.0)),
                decompression_s_per_gb=float(rng.uniform(0.5, 1.5)),
            ),
        }
        for partition in partitions
    }
    model = CostModel(tiers, duration_months=6.0)
    unconstrained = OptAssignProblem(partitions, model, profiles)
    report = solve_optassign(unconstrained, prefer="greedy")
    usage = [0.0] * len(tiers)
    for partition in partitions:
        choice = report.assignment.choices[partition.name]
        usage[choice.tier_index] += unconstrained.stored_gb(partition, choice.scheme)
    hot = usage.index(max(usage))
    squeezed = type(tiers)(
        [
            tier.with_capacity(usage[hot] * 0.4) if index == hot else tier
            for index, tier in enumerate(tiers)
        ]
    )
    return OptAssignProblem(
        partitions, CostModel(squeezed, duration_months=6.0), profiles
    )


def build_fleet(months: int) -> FleetScheduler:
    """1 drifting hot tenant + 2 cold tenants on an undersized shared pool."""
    catalog = multi_cloud_catalog()
    config = EngineConfig(horizon_months=6.0, window_months=4)
    specs = []
    for name in ("hot", "cold_a", "cold_b"):
        is_hot = name == "hot"
        partitions = [
            DataPartition(
                f"{name}_{index:02d}",
                size_gb=200.0 if is_hot else 500.0,
                predicted_accesses=50.0 if is_hot else 0.2,
                latency_threshold_s=1.0 if is_hot else math.inf,
            )
            for index in range(4)
        ]
        if is_hot:
            # Quiet start, then the dashboards go live: the drift trigger
            # fires mid-run and the pool has to be re-arbitrated.
            flip = months // 2
            series = {
                p.name: [50.0] * flip + [1500.0] * (months - flip)
                for p in partitions
            }
        else:
            series = {p.name: [0.2] * months for p in partitions}
        specs.append(
            TenantSpec(
                name=name,
                partitions=partitions,
                policy=DriftTriggered(threshold=0.3),
                series=series,
                config=config,
            )
        )
    pools = PoolSet(
        catalog,
        [CapacityPool("performance", ("azure_blob/premium", "azure_blob/hot"), 1000.0)],
    )
    return FleetScheduler(
        specs,
        catalog,
        pools=pools,
        config=FleetConfig(engine=config),
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller sizes for CI smoke runs"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the traced run's JSONL export to this path",
    )
    args = parser.parse_args(argv)
    count = 80 if args.quick else 400
    months = 6 if args.quick else 10

    _banner("1. Capacitated OPTASSIGN solve: tensor build, greedy, repair")
    with obs.observed() as run:
        solve_optassign(build_capacitated_problem(count), prefer="greedy")
        solver_spans = list(run.tracer.records())

        _banner("2. Drift-triggered fleet run on a contended capacity pool")
        scheduler = build_fleet(months)
        report = scheduler.run(num_epochs=months)
        # The fleet plans its tenants together; a lone engine plans as the
        # one member of its own block (engine.build_problem, engine.migrate).
        spec = scheduler.tenants[0]
        OnlineTieringEngine(
            spec.partitions,
            scheduler.tiers,
            DriftTriggered(threshold=0.3),
            config=spec.config,
        ).run(spec.make_stream(months))
    snap = run.snapshot()

    print(f"\ncapacitated solve over {count} partitions:\n")
    print(obs.render_span_tree(solver_spans))

    # The span tree of one month that actually re-optimized: fleet.window ->
    # build/stack/solve/apply plus the settle.
    fleet_epochs = [
        record
        for record in snap.spans
        if record.name == "fleet.window" and record.attrs.get("num_reoptimized", 0)
    ]
    drifted = fleet_epochs[-1]  # the post-drift re-arbitration month
    epoch_spans = [
        record
        for record in snap.spans
        if record.span_id == drifted.span_id
        or record.parent_id is not None
        and _has_ancestor(snap.spans, record, drifted.span_id)
    ]
    print(
        f"\nfleet month {drifted.attrs['index']} "
        f"(re-optimized {drifted.attrs['num_reoptimized']} tenants):\n"
    )
    print(obs.render_span_tree(epoch_spans))

    _banner("3. Exports: summary table, JSONL dump, Prometheus text format")
    print()
    print(obs.render_summary(snap, top=10))

    jsonl = obs.to_jsonl(snap)
    assert obs.to_jsonl(obs.parse_jsonl(jsonl)) == jsonl, "JSONL round trip broke"
    print(f"\nJSONL export: {len(jsonl.splitlines())} lines (round trip verified)")
    if args.out is not None:
        args.out.write_text(jsonl)
        print(f"wrote {args.out}")

    prometheus = obs.to_prometheus(snap)
    scrape_preview = "\n".join(prometheus.splitlines()[:12])
    print(f"\nPrometheus scrape body ({len(prometheus.splitlines())} lines):\n")
    print(scrape_preview)
    print("...")

    covered = {record.name for record in snap.spans}
    missing = [name for name in REQUIRED_PHASES if name not in covered]
    assert not missing, f"span coverage is missing phases: {missing}"
    print(
        f"\ntraced {len(snap.spans)} spans / {len(snap.metrics)} metric series; "
        f"all {len(REQUIRED_PHASES)} required phases covered; fleet bill "
        f"{report.total_bill:,.0f} cents"
    )


def _has_ancestor(spans, record, ancestor_id: int) -> bool:
    by_id = {r.span_id: r for r in spans}
    current = record
    while current.parent_id is not None:
        if current.parent_id == ancestor_id:
            return True
        current = by_id.get(current.parent_id)
        if current is None:
            return False
    return False


if __name__ == "__main__":
    main()
