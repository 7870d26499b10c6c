"""The end-to-end fleet workloads: what each one builds from a seed.

Every workload drives ``FleetScheduler.run_streams`` over one
``PoissonZipfStream`` per tenant for a 12-month horizon.  The tenant accounts
(partitions, sizes, SLO classes, residency pins, compression profiles) are
generated from the fixed ``FLEET_SEED``, so a workload always has the same
shape and the same number of rows to place.  The benchmark's ``--seed``
drives the event streams only: which partitions are read, when, and hence
which tenants drift and fire.  That keeps the work per run steady across
seeds while every seed is still a different input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.chaos import (
    ChaosInjector,
    DisruptionSchedule,
    PoolShock,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
    TenantLeave,
)
from repro.cloud import PoolSet, multi_cloud_catalog
from repro.engine import (
    AnyTrigger,
    CountTrigger,
    DriftTrigger,
    DriftTriggered,
    EngineConfig,
    PeriodicReoptimize,
    StaticOnce,
    TimeTrigger,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import (
    PoissonZipfStream,
    compose_modulations,
    diurnal_modulation,
    flash_crowd,
    generate_fleet_workload,
    tenant_rate_skew,
)

FLEET_SEED = 2023
HORIZON_MONTHS = 12.0
#: Windows opening before this month are warm-up: they hold the bootstrap
#: solve, where every tenant fires into an empty feature store.  They are
#: executed and billed but left out of throughput and latency.
WARMUP_MONTHS = 1.0
TIME_WINDOW_MONTHS = 0.1
POOL_SHARE = 0.5
RESIDENCY_PROVIDERS = ("aws_s3", "azure_blob")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: fleet shape, stream, trigger and policy."""

    name: str
    why: str
    tenants: int
    partitions: int
    events: int
    reopt_mode: str
    policy: str
    #: ``0`` cuts windows every ``TIME_WINDOW_MONTHS``; otherwise the fleet
    #: closes a window after ``events // count_windows`` merged events.
    count_windows: int = 0
    pools: bool = True
    diurnal: bool = False
    flash_month: float | None = None
    #: Close a window early when the fleet's access mix drifts off the
    #: forecasts it planned against (with the time cadence as fallback).
    drift_close: bool = False
    chaos: bool = False

    def scaled(self, quick: bool) -> "Workload":
        """The tiny shape ``--quick`` runs: same layers, a fraction of work."""
        if not quick:
            return self
        return replace(self, tenants=4, partitions=8, events=6_000)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fleet-steady",
            why=(
                "about half the tenants drift and fire every 0.1-month window,"
                " so problem build and the stacked pool-arbitrated solve dominate"
            ),
            tenants=16,
            partitions=64,
            events=150_000,
            reopt_mode="full",
            policy="drift",
        ),
        Workload(
            name="fleet-delta-count",
            why=(
                "same fleet cut by merged event count and re-solved by the"
                " incremental delta solver instead of the full solve"
            ),
            tenants=16,
            partitions=64,
            events=150_000,
            reopt_mode="delta",
            policy="drift",
            count_windows=125,
        ),
        Workload(
            name="firehose",
            why=(
                "few tenants and many bursty events with the solver idle after"
                " bootstrap, so generation, merge, windowing and billing dominate"
            ),
            tenants=8,
            partitions=64,
            events=450_000,
            reopt_mode="full",
            policy="static",
            count_windows=125,
            pools=False,
            diurnal=True,
            flash_month=4.0,
        ),
        Workload(
            name="storm",
            why=(
                "outage, price and pool shocks, a departing tenant and drift"
                " closes move data and flush delta caches, so migration and"
                " chaos show in the latency tail"
            ),
            tenants=16,
            partitions=64,
            events=150_000,
            reopt_mode="delta",
            policy="periodic",
            flash_month=7.0,
            drift_close=True,
            chaos=True,
        ),
    )
}


@dataclass
class Fleet:
    """One freshly set-up fleet, ready for a single ``run_streams`` pass."""

    workload: Workload
    scheduler: FleetScheduler
    streams: dict[str, PoissonZipfStream]
    chaos: ChaosInjector | None

    def trigger(self):
        """A fresh window trigger (triggers carry per-window state)."""
        if not self.workload.drift_close:
            return cadence(self.workload)
        engines = self.scheduler.engines

        def fleet_forecast():
            # Live tenants' applied forecasts summed by partition name, the
            # same key the drift trigger counts merged events under.
            total: dict[str, float] = {}
            for engine in engines.values():
                forecast = engine.last_applied_forecast
                if forecast:
                    for name, rate in forecast.items():
                        total[name] = total.get(name, 0.0) + rate
            return total or None

        return AnyTrigger(
            DriftTrigger(
                0.5,
                min_width_months=0.05,
                check_every=2048,
                baseline_provider=fleet_forecast,
            ),
            cadence(self.workload),
        )


def cadence(workload: Workload):
    """The workload's count or time trigger alone (no drift member)."""
    if workload.count_windows:
        return CountTrigger(max(1, workload.events // workload.count_windows))
    return TimeTrigger(TIME_WINDOW_MONTHS)


def _policy(kind: str):
    if kind == "drift":
        return DriftTriggered(0.4)
    if kind == "static":
        return StaticOnce()
    if kind == "periodic":
        return PeriodicReoptimize(10)
    raise ValueError(f"unknown policy {kind!r}")


def _storm_schedule(last_tenant: str) -> DisruptionSchedule:
    return DisruptionSchedule(
        [
            ProviderOutage(epoch=3, provider="gcp_gcs"),
            ProviderRecovery(epoch=5, provider="gcp_gcs"),
            PriceShock(epoch=6, provider="aws_s3", storage_factor=1.5),
            PoolShock(epoch=8, pool="azure_blob", capacity_factor=0.5),
            TenantLeave(epoch=9, tenant=last_tenant),
        ]
    )


def stream_seed(seed: int, tenant_index: int) -> int:
    """Tenant ``i``'s stream seed, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, tenant_index]).generate_state(1)[0])


def build(workload: Workload, seed: int) -> Fleet:
    """Set up the workload's fleet and event streams for one pass."""
    catalog = multi_cloud_catalog()
    accounts = generate_fleet_workload(
        workload.tenants,
        workload.partitions,
        months=int(HORIZON_MONTHS),
        seed=FLEET_SEED,
        residency_providers=RESIDENCY_PROVIDERS,
        residency_fraction=0.1,
    )
    config = EngineConfig(
        horizon_months=6, window_months=6, reopt_mode=workload.reopt_mode
    )
    specs = [
        TenantSpec(
            name=account.name,
            partitions=account.partitions,
            policy=_policy(workload.policy),
            stream=iter(()),
            profiles=account.profiles,
            config=config,
            latency_slo_s=account.workload.latency_slo_s,
            provider_affinity=account.workload.provider_affinity,
        )
        for account in accounts
    ]
    pools = None
    if workload.pools:
        fleet_gb = sum(account.total_gb for account in accounts)
        pools = PoolSet.per_provider(
            catalog,
            {provider: POOL_SHARE * fleet_gb for provider in catalog.provider_names},
        )
    chaos = (
        ChaosInjector(_storm_schedule(accounts[-1].name)) if workload.chaos else None
    )
    scheduler = FleetScheduler(
        specs,
        catalog,
        pools=pools,
        config=FleetConfig(engine=config, max_workers=None),
        chaos=chaos,
    )

    modulations = []
    if workload.diurnal:
        modulations.append(diurnal_modulation(amplitude=0.5))
    if workload.flash_month is not None:
        modulations.append(
            flash_crowd(workload.flash_month, magnitude=5.0, duration_months=0.25)
        )
    modulation = compose_modulations(*modulations) if modulations else None
    names = [account.name for account in accounts]
    rates = tenant_rate_skew(workload.events / HORIZON_MONTHS, names, exponent=1.0)
    streams = {
        account.name: PoissonZipfStream(
            [partition.name for partition in account.partitions],
            rate_per_month=rates[account.name],
            horizon_months=HORIZON_MONTHS,
            seed=stream_seed(seed, index),
            modulation=modulation,
            tenant=account.name,
        )
        for index, account in enumerate(accounts)
    }
    return Fleet(workload=workload, scheduler=scheduler, streams=streams, chaos=chaos)
