"""Fleet tiering scenario: shared capacity pools vs static per-tenant slices.

A provider runs the tiering optimizer for many tenant accounts that draw
from the *same* reserved capacity — here, a "performance" pool spanning the
Azure premium and hot tiers of the shared multi-cloud catalog.  The fleet is
deliberately heterogeneous:

* one **hot** tenant whose dashboards read every partition ~1500 times a
  month (this data earns its place in the performance tiers many times over);
* three **cold** tenants holding large archival partitions that are read a
  handful of times a year and belong in the cheap archive tiers.

Two ways to enforce the shared budget are compared on the same streams:

* **naive slicing** — every tenant gets a static 1/N share of the pool, the
  per-account setup a provider falls into when each tenant's optimizer runs
  alone.  The hot tenant's share is far too small, so most of its read-hot
  data is squeezed into read-expensive tiers; the cold tenants' shares sit
  idle.
* **shared arbitration** — the :class:`~repro.fleet.FleetScheduler` stacks
  all firing tenants into one vectorized OPTASSIGN solve and water-fills the
  pool by regret per GB (:func:`~repro.core.optassign.repair_pools`): the
  hot tenant takes the capacity the cold tenants do not want.

Same total capacity, same workloads — arbitration wins by a large margin
(about 45% on the default sizes).  The final phases verify the slack-pool
oracle: with a big enough pool the fleet run is bill-exact against
independent single-tenant engine runs, on the dense monthly timeline and on
the windowed one, where the fleet settles every tenant in one pass per
window and each independent engine settles alone.

Run with:  python examples/fleet_tiering.py [--quick]
"""

from __future__ import annotations

import argparse
import math

from repro import obs
from repro.cloud import CapacityPool, DataPartition, PoolSet, multi_cloud_catalog
from repro.engine import (
    DriftTriggered,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
    TimeTrigger,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import PoissonZipfStream, generate_fleet_workload

MONTHS = 12
ENGINE_CONFIG = EngineConfig(horizon_months=6.0, window_months=6)
POOL_TIERS = ("azure_blob/premium", "azure_blob/hot")


def hot_tenant(num_partitions: int):
    """Dashboard-style data: mid-size, read ~1500x/month, 1 s SLA."""
    partitions = [
        DataPartition(
            f"dash_{index:02d}",
            size_gb=200.0,
            predicted_accesses=1500.0,
            latency_threshold_s=1.0,
        )
        for index in range(num_partitions)
    ]
    series = {partition.name: [1500.0] * MONTHS for partition in partitions}
    return partitions, series


def cold_tenant(num_partitions: int):
    """Archival data: large, read a couple of times a year, no SLA."""
    partitions = [
        DataPartition(
            f"arch_{index:02d}",
            size_gb=500.0,
            predicted_accesses=0.2,
            latency_threshold_s=math.inf,
        )
        for index in range(num_partitions)
    ]
    series = {partition.name: [0.2] * MONTHS for partition in partitions}
    return partitions, series


def build_specs(hot_parts: int, cold_parts: int):
    specs = []
    for name in ("hot", "cold_a", "cold_b", "cold_c"):
        builder = hot_tenant if name == "hot" else cold_tenant
        partitions, series = builder(hot_parts if name == "hot" else cold_parts)
        specs.append(
            TenantSpec(
                name=name,
                partitions=partitions,
                policy=PeriodicReoptimize(6),
                series=series,
                config=ENGINE_CONFIG,
            )
        )
    return specs


def performance_pool(catalog, capacity_gb: float) -> PoolSet:
    return PoolSet(
        catalog, [CapacityPool("performance", POOL_TIERS, capacity_gb)]
    )


def run_shared(catalog, capacity_gb, hot_parts, cold_parts):
    scheduler = FleetScheduler(
        build_specs(hot_parts, cold_parts),
        catalog,
        pools=performance_pool(catalog, capacity_gb),
        config=FleetConfig(engine=ENGINE_CONFIG),
    )
    return scheduler.run(num_epochs=MONTHS)


def run_sliced(catalog, capacity_gb, hot_parts, cold_parts):
    """Each tenant arbitrates only against its own 1/N static slice."""
    reports = {}
    specs = build_specs(hot_parts, cold_parts)
    slice_pools = performance_pool(catalog, capacity_gb).scaled(1.0 / len(specs))
    for spec in specs:
        scheduler = FleetScheduler(
            [spec],
            catalog,
            pools=slice_pools,
            config=FleetConfig(engine=ENGINE_CONFIG),
        )
        reports[spec.name] = scheduler.run(num_epochs=MONTHS)
    return reports


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller fleet for CI smoke runs",
    )
    args = parser.parse_args()
    hot_parts = 4 if args.quick else 12
    cold_parts = 4 if args.quick else 10
    capacity = 1.25 * hot_parts * 200.0  # fits the hot tenant with 25% slack

    catalog = multi_cloud_catalog()

    print("=" * 72)
    print("Phase 1 — contended pool: shared arbitration vs static 1/N slices")
    print("=" * 72)
    print(
        f"performance pool = {POOL_TIERS} @ {capacity:,.0f} GB shared by "
        "1 hot + 3 cold tenants"
    )
    with obs.observed() as run:
        shared = run_shared(catalog, capacity, hot_parts, cold_parts)
    sliced = run_sliced(catalog, capacity, hot_parts, cold_parts)
    sliced_total = sum(report.total_bill for report in sliced.values())

    rows = [
        (
            name,
            f"{report.total_bill:,.0f}",
            f"{shared.tenant_reports[name].total_bill:,.0f}",
        )
        for name, report in sliced.items()
    ]
    rows.append(("total", f"{sliced_total:,.0f}", f"{shared.total_bill:,.0f}"))
    print()
    print(obs.render_table(("tenant", "sliced bill", "shared bill"), rows))
    saving = 100.0 * (sliced_total - shared.total_bill) / sliced_total
    peak = shared.peak_pool_utilization()["performance"]
    print(
        f"\nshared arbitration saves {saving:.1f}% "
        f"(peak pool utilization {peak:.0%}; the hot tenant borrows the "
        "slack the cold tenants never use)"
    )
    print("\nshared-run telemetry (span-phase totals + fleet metrics):")
    print(obs.render_summary(run.snapshot(), top=8))
    assert shared.total_bill < sliced_total, "arbitration must beat slicing here"

    print()
    print("=" * 72)
    print("Phase 2 — slack pool: the fleet is bill-exact vs independent runs")
    print("=" * 72)
    fleet = generate_fleet_workload(3, 6, MONTHS, seed=7)
    slack_pool = PoolSet.per_provider(
        catalog, {"aws_s3": 1e9, "azure_blob": 1e9, "gcp_gcs": 1e9}
    )
    specs = [
        TenantSpec(
            name=tenant.name,
            partitions=tenant.partitions,
            policy=PeriodicReoptimize(3),
            series=tenant.series,
            profiles=tenant.profiles,
            config=ENGINE_CONFIG,
            latency_slo_s=tenant.workload.latency_slo_s,
        )
        for tenant in fleet
    ]
    scheduler = FleetScheduler(
        specs, catalog, pools=slack_pool, config=FleetConfig(engine=ENGINE_CONFIG)
    )
    fleet_report = scheduler.run(num_epochs=MONTHS)
    for tenant in fleet:
        engine = OnlineTieringEngine(
            tenant.partitions,
            catalog,
            PeriodicReoptimize(3),
            ENGINE_CONFIG,
            profiles=tenant.profiles,
            latency_slo_s=tenant.workload.latency_slo_s,
        )
        oracle = engine.run(SeriesStream(tenant.series, num_epochs=MONTHS))
        fleet_bill = fleet_report.tenant_reports[tenant.name].total_bill
        exact = "exact" if fleet_bill == oracle.total_bill else "MISMATCH"
        print(
            f"{tenant.name}: fleet {fleet_bill:,.2f} vs independent "
            f"{oracle.total_bill:,.2f} -> {exact}"
        )
        assert fleet_bill == oracle.total_bill
    print("\nslack-pool fleet == independent per-tenant engines, to the cent.")

    print()
    print("=" * 72)
    print("Phase 3 — slack pool, windowed: one settle pass vs independent runs")
    print("=" * 72)
    for label, make_policy in (
        ("periodic", lambda: PeriodicReoptimize(3)),
        ("drift", lambda: DriftTriggered(0.4)),
    ):
        check_windowed(catalog, fleet, slack_pool, label, make_policy)
    print("\nwindowed slack-pool fleet == independent per-tenant engines, to the bit.")


def tenant_stream(tenant, index: int) -> PoissonZipfStream:
    return PoissonZipfStream(
        [partition.name for partition in tenant.partitions],
        rate_per_month=400.0 * (index + 1),
        horizon_months=float(MONTHS),
        seed=100 + index,
    )


def check_windowed(catalog, fleet, pools, label, make_policy) -> None:
    """``run_streams`` under a 0.25-month time trigger against each tenant's
    own ``run_stream``: every record's bill must agree to the bit."""
    trigger_months = 0.25
    specs = [
        TenantSpec(
            name=tenant.name,
            partitions=tenant.partitions,
            policy=make_policy(),
            stream=iter(()),
            profiles=tenant.profiles,
            config=ENGINE_CONFIG,
            latency_slo_s=tenant.workload.latency_slo_s,
        )
        for tenant in fleet
    ]
    scheduler = FleetScheduler(
        specs, catalog, pools=pools, config=FleetConfig(engine=ENGINE_CONFIG)
    )
    fleet_report = scheduler.run_streams(
        {tenant.name: tenant_stream(tenant, k) for k, tenant in enumerate(fleet)},
        TimeTrigger(trigger_months),
        horizon_months=float(MONTHS),
    )
    for k, tenant in enumerate(fleet):
        engine = OnlineTieringEngine(
            tenant.partitions,
            catalog,
            make_policy(),
            ENGINE_CONFIG,
            profiles=tenant.profiles,
            latency_slo_s=tenant.workload.latency_slo_s,
        )
        oracle = engine.run_stream(
            tenant_stream(tenant, k),
            TimeTrigger(trigger_months),
            horizon_months=float(MONTHS),
        )
        records = fleet_report.tenant_reports[tenant.name].records
        exact = [record.bill_total for record in records] == [
            record.bill_total for record in oracle.records
        ]
        print(
            f"{label:>8} {tenant.name}: {len(records)} windows, fleet "
            f"{sum(r.bill_total for r in records):,.4f} vs independent "
            f"{oracle.total_bill:,.4f} -> {'exact' if exact else 'MISMATCH'}"
        )
        assert exact and len(records) == MONTHS / trigger_months


if __name__ == "__main__":
    main()
