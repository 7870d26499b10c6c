"""Fleet-level chaos: churn, pool shocks, the degradation ladder, forced
firing — and the oracle lock: delta-mode solves with selective invalidation
must bill exactly what full re-solves bill under every disruption type."""

import pytest

from repro.chaos import (
    ChaosInjector,
    DisruptionSchedule,
    PoolShock,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
    TenantJoin,
    TenantLeave,
)
from repro.cloud import DataPartition, PoolSet, multi_cloud_catalog
from repro.engine import EngineConfig, StaticOnce, StreamWindow
from repro.engine.policies import PeriodicReoptimize
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import generate_fleet_workload

MONTHS = 6
SEED = 7
SLACK = 1e9
COST_RTOL = 1e-6

FULL_CONFIG = EngineConfig(horizon_months=6.0, window_months=6)
DELTA_CONFIG = EngineConfig(
    horizon_months=6.0,
    window_months=6,
    reopt_mode="delta",
    delta_drift_threshold=0.0,
)


def make_specs(num=2, offset=0, config=FULL_CONFIG):
    fleet = generate_fleet_workload(
        num, 4, MONTHS, seed=SEED, name_offset=offset
    )
    return [
        TenantSpec(
            name=tenant.name,
            partitions=tenant.partitions,
            policy=PeriodicReoptimize(2),
            series=tenant.series,
            profiles=tenant.profiles,
            config=config,
            latency_slo_s=tenant.workload.latency_slo_s,
        )
        for tenant in fleet
    ]


def run_fleet(schedule, config=FULL_CONFIG, capacities=None, pools=True):
    catalog = multi_cloud_catalog()
    chaos = ChaosInjector(schedule) if schedule is not None else None
    pool_set = None
    if pools:
        caps = {name: SLACK for name in catalog.provider_names}
        caps.update(capacities or {})
        pool_set = PoolSet.per_provider(catalog, caps)
    scheduler = FleetScheduler(
        make_specs(config=config),
        catalog,
        pools=pool_set,
        config=FleetConfig(engine=config),
        chaos=chaos,
    )
    report = scheduler.run(num_epochs=MONTHS)
    return scheduler, chaos, report, catalog


class TestCalmFleetIdentity:
    def test_empty_schedule_is_bit_identical(self):
        _, _, calm, _ = run_fleet(None)
        _, chaos, attached, _ = run_fleet(DisruptionSchedule.empty())
        assert calm.total_bill == attached.total_bill
        assert chaos.reports == []


class TestFleetOutage:
    def schedule(self):
        return DisruptionSchedule(
            [
                ProviderOutage(epoch=2, provider="azure_blob"),
                ProviderRecovery(epoch=4, provider="azure_blob"),
            ]
        )

    def test_outage_forces_evacuating_tenants_to_fire(self):
        scheduler, chaos, report, catalog = run_fleet(self.schedule())
        outage = next(r for r in chaos.reports if r.epoch == 2)
        assert "forced_evacuation" in outage.action_kinds
        assert outage.bill_impact_cents > 0.0
        dead = set(catalog.tier_indices_of("azure_blob"))
        for engine in scheduler.engines.values():
            assert engine.banned_tiers == frozenset()  # recovered by the end
            # Data returned to azure tiers after the policy's next firing.
        providers = {
            catalog.provider_of(d.tier_index)
            for engine in scheduler.engines.values()
            for d in engine.placement.values()
        }
        assert "azure_blob" in providers

    def test_forced_tenants_cleared_after_epoch(self):
        scheduler, chaos, _, _ = run_fleet(self.schedule())
        assert chaos.take_forced_tenants() == set()


class TestFleetChurn:
    def test_join_and_leave(self):
        joiner = make_specs(1, offset=10)[0]
        schedule = DisruptionSchedule(
            [
                TenantJoin(epoch=2, spec=joiner),
                TenantLeave(epoch=4, tenant="tenant_001"),
            ]
        )
        scheduler, _, report, _ = run_fleet(schedule)
        assert sorted(scheduler.engines) == ["tenant_000", "tenant_010"]
        # Billed history of the departed tenant is retained in the report...
        assert sorted(report.tenant_reports) == [
            "tenant_000",
            "tenant_001",
            "tenant_010",
        ]
        # ...covering exactly the epochs it was live for.
        assert report.tenant_reports["tenant_001"].num_epochs == 4
        # The joiner was live from its join epoch to the end.
        assert report.tenant_reports["tenant_010"].num_epochs == MONTHS - 2

    def test_leave_releases_pool_reservations(self):
        # Squeeze azure so that both tenants together exceed the budget but
        # one alone fits: after tenant_001 leaves, the remaining tenant's
        # next arbitration may use the space the departed tenant held.
        schedule = DisruptionSchedule(
            [TenantLeave(epoch=3, tenant="tenant_001")]
        )
        scheduler, _, report, catalog = run_fleet(schedule)
        usage = scheduler._fleet_tier_usage(list(scheduler.engines))
        # Only live engines contribute to pool accounting.
        assert usage.sum() == pytest.approx(
            sum(
                engine.tier_usage_gb().sum()
                for name, engine in scheduler.engines.items()
            )
        )
        assert "tenant_001" not in scheduler.engines

    def test_rejoining_a_used_name_is_rejected(self):
        rejoin = make_specs(1, offset=1)[0]  # regenerates tenant_001's spec
        schedule = DisruptionSchedule(
            [
                TenantLeave(epoch=2, tenant="tenant_001"),
                TenantJoin(epoch=4, spec=rejoin),
            ]
        )
        with pytest.raises(ValueError, match="already in the fleet"):
            run_fleet(schedule)


class TestPoolShockAndDegradation:
    def test_pool_shock_is_applied_in_place(self):
        schedule = DisruptionSchedule(
            [PoolShock(epoch=2, pool="azure_blob", capacity_factor=0.5)]
        )
        scheduler, _, _, _ = run_fleet(schedule)
        capacity = {
            pool.name: pool.capacity_gb for pool in scheduler.pools
        }["azure_blob"]
        assert capacity == pytest.approx(SLACK * 0.5)

    def test_pool_shock_without_pools_rejected(self):
        schedule = DisruptionSchedule(
            [PoolShock(epoch=0, pool="azure_blob", capacity_factor=0.5)]
        )
        with pytest.raises(ValueError, match="no\\s+shared capacity pools"):
            run_fleet(schedule, pools=False)

    def test_unsatisfiable_pools_degrade_not_crash(self):
        # Every provider's budget shrinks to a few GB at epoch 2: the stacked
        # solve cannot fit the fleet into the pools, so the ladder suspends
        # the budgets and records the degradation instead of raising.
        schedule = DisruptionSchedule(
            [
                PoolShock(epoch=2, pool=name, capacity_gb=2.0)
                for name in multi_cloud_catalog().provider_names
            ]
        )
        scheduler, chaos, report, _ = run_fleet(schedule)
        assert report.num_epochs == MONTHS  # the run completed
        suspended = [
            action
            for rep in chaos.reports
            for action in rep.actions
            if action.kind == "pool_budget_suspended"
        ]
        assert suspended, "expected the pool budgets to be suspended"
        assert any(rep.degraded for rep in chaos.reports)


class TestDeltaEquivalenceUnderChaos:
    """The oracle lock: selective cache invalidation must reproduce the full
    re-solve bill on every disruption type (threshold 0, rel 1e-6)."""

    def assert_equivalent(self, schedule_builder, **kwargs):
        _, _, full, _ = run_fleet(schedule_builder(), config=FULL_CONFIG, **kwargs)
        _, _, delta, _ = run_fleet(schedule_builder(), config=DELTA_CONFIG, **kwargs)
        assert delta.total_bill == pytest.approx(
            full.total_bill, rel=COST_RTOL
        )

    def test_outage_and_recovery(self):
        self.assert_equivalent(
            lambda: DisruptionSchedule(
                [
                    ProviderOutage(epoch=2, provider="azure_blob"),
                    ProviderRecovery(epoch=4, provider="azure_blob"),
                ]
            )
        )

    def test_price_shock_increase(self):
        self.assert_equivalent(
            lambda: DisruptionSchedule(
                [PriceShock(epoch=2, provider="aws_s3", storage_factor=5.0)]
            )
        )

    def test_price_shock_decrease(self):
        self.assert_equivalent(
            lambda: DisruptionSchedule(
                [PriceShock(epoch=2, storage_factor=0.25, read_factor=0.5)]
            )
        )

    def test_pool_shock(self):
        self.assert_equivalent(
            lambda: DisruptionSchedule(
                [PoolShock(epoch=2, pool="azure_blob", capacity_gb=120.0)]
            )
        )

    def test_churn(self):
        def schedule():
            joiner = make_specs(1, offset=10)[0]
            return DisruptionSchedule(
                [
                    TenantJoin(epoch=2, spec=joiner),
                    TenantLeave(epoch=4, tenant="tenant_001"),
                ]
            )

        self.assert_equivalent(schedule)

    def test_combined_storm(self):
        def schedule():
            joiner = make_specs(1, offset=11)[0]
            return DisruptionSchedule(
                [
                    ProviderOutage(epoch=1, provider="azure_blob"),
                    TenantJoin(epoch=2, spec=joiner),
                    PriceShock(epoch=3, provider="aws_s3", storage_factor=3.0),
                    ProviderRecovery(epoch=4, provider="azure_blob"),
                    TenantLeave(epoch=4, tenant="tenant_000"),
                ]
            )

        self.assert_equivalent(schedule)


class TestDegradedWindowReportsItsOwnRelaxation:
    def test_unpooled_retry_after_a_relaxed_window(self):
        """Window 0's pooled solve widens tenant a's latency SLA; window 1's
        pooled solve (tenant b alone) fails under shrunken pools and the
        unpooled retry needs no relaxation.  Window 1's report holds the
        retry's outcome only, not window 0's factor."""
        catalog = multi_cloud_catalog()
        # Faster than any tier: feasible only once the SLA is widened x2.
        fast = DataPartition(
            "fast", size_gb=50.0, predicted_accesses=5.0, latency_threshold_s=0.003
        )
        slow = [
            DataPartition(f"b{i}", size_gb=40.0, predicted_accesses=1.0)
            for i in range(2)
        ]
        specs = [
            TenantSpec("a", [fast], StaticOnce(), stream=iter(())),
            TenantSpec("b", slow, PeriodicReoptimize(1), stream=iter(())),
        ]
        chaos = ChaosInjector(
            DisruptionSchedule(
                [
                    PoolShock(epoch=1, pool=name, capacity_gb=1.0)
                    for name in catalog.provider_names
                ]
            )
        )
        scheduler = FleetScheduler(
            specs,
            catalog,
            pools=PoolSet.per_provider(
                catalog, {name: SLACK for name in catalog.provider_names}
            ),
            config=FleetConfig(engine=EngineConfig(horizon_months=3.0)),
            chaos=chaos,
        )
        for index in range(2):
            scheduler.step_window(
                {
                    name: StreamWindow(index, float(index), index + 1.0, (), "time")
                    for name in ("a", "b")
                }
            )
        first, second = chaos.reports
        assert first.epoch == 0
        assert [(a.kind, a.amount) for a in first.actions] == [("latency_relaxed", 2.0)]
        assert second.epoch == 1
        assert [a.kind for a in second.actions] == ["pool_budget_suspended"]
