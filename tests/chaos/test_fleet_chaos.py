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
from repro.cloud import DataPartition, PoolSet, TimedEvent, multi_cloud_catalog
from repro.core.optassign import InfeasibleError
from repro.engine import (
    EngineConfig,
    OnlineTieringEngine,
    SeriesStream,
    StaticOnce,
    StreamWindow,
    TimeTrigger,
)
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


def make_fleet(schedule, config=FULL_CONFIG, capacities=None, pools=True):
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
    return scheduler, chaos, catalog


def run_fleet(schedule, config=FULL_CONFIG, capacities=None, pools=True):
    scheduler, chaos, catalog = make_fleet(schedule, config, capacities, pools)
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

    def test_joiner_feeds_its_spec_stream_on_dense_input_only(self):
        """The one way dense and stream input differ: on dense input a
        joiner settles its spec's series from its join month; on stream
        input, with no stream of its own, it settles empty windows."""
        join = 2

        def schedule():
            return DisruptionSchedule(
                [TenantJoin(epoch=join, spec=make_specs(1, offset=10)[0])]
            )

        joiner = make_specs(1, offset=10)[0]
        _, _, dense, _ = run_fleet(schedule())
        expected = [
            sum(round(event.reads) for event in batch.events)
            for batch in SeriesStream(joiner.series)
        ][: MONTHS - join]
        records = dense.tenant_reports[joiner.name].records
        assert [record.access_count for record in records] == expected
        assert sum(expected) > 0

        scheduler, _, _ = make_fleet(schedule())
        specs = scheduler.tenants
        streams = {
            spec.name: [
                TimedEvent(float(batch.epoch), event.partition, event.reads)
                for batch in SeriesStream(spec.series)
                for event in batch.events
            ]
            for spec in specs
        }
        report = scheduler.run_streams(
            streams, TimeTrigger(1.0), horizon_months=float(MONTHS)
        )
        records = report.tenant_reports[joiner.name].records
        assert [record.epoch for record in records] == list(range(join, MONTHS))
        for record in records:
            assert record.access_count == 0
            assert record.read_cost == record.decompression_cost == 0.0
            assert record.storage_cost > 0.0
        # The tenants with streams bill as on dense input.
        for spec in specs:
            assert [
                record.bill_total for record in report.tenant_reports[spec.name].records
            ] == [record.bill_total for record in dense.tenant_reports[spec.name].records]

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
        """``schedule_builder(config)`` builds the schedule for a fleet
        whose engines run ``config`` (a joiner's spec must match it)."""
        _, _, full, _ = run_fleet(
            schedule_builder(FULL_CONFIG), config=FULL_CONFIG, **kwargs
        )
        _, _, delta, _ = run_fleet(
            schedule_builder(DELTA_CONFIG), config=DELTA_CONFIG, **kwargs
        )
        assert delta.total_bill == pytest.approx(
            full.total_bill, rel=COST_RTOL
        )

    def test_outage_and_recovery(self):
        self.assert_equivalent(
            lambda config: DisruptionSchedule(
                [
                    ProviderOutage(epoch=2, provider="azure_blob"),
                    ProviderRecovery(epoch=4, provider="azure_blob"),
                ]
            )
        )

    def test_price_shock_increase(self):
        self.assert_equivalent(
            lambda config: DisruptionSchedule(
                [PriceShock(epoch=2, provider="aws_s3", storage_factor=5.0)]
            )
        )

    def test_price_shock_decrease(self):
        self.assert_equivalent(
            lambda config: DisruptionSchedule(
                [PriceShock(epoch=2, storage_factor=0.25, read_factor=0.5)]
            )
        )

    def test_pool_shock(self):
        self.assert_equivalent(
            lambda config: DisruptionSchedule(
                [PoolShock(epoch=2, pool="azure_blob", capacity_gb=120.0)]
            )
        )

    def test_churn(self):
        def schedule(config):
            joiner = make_specs(1, offset=10, config=config)[0]
            return DisruptionSchedule(
                [
                    TenantJoin(epoch=2, spec=joiner),
                    TenantLeave(epoch=4, tenant="tenant_001"),
                ]
            )

        self.assert_equivalent(schedule)

    def test_combined_storm(self):
        def schedule(config):
            joiner = make_specs(1, offset=11, config=config)[0]
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


class TestTenantEnginesHoldNoDeltaSolver:
    def test_a_price_shock_reprices_the_fleet_solver_alone(self):
        """A delta fleet solves every window with its own solver, so its
        tenant engines never build one, and a price shock has only the
        fleet's to reprice."""
        scheduler, _, report, _ = run_fleet(
            DisruptionSchedule(
                [PriceShock(epoch=2, provider="aws_s3", storage_factor=5.0)]
            ),
            config=DELTA_CONFIG,
        )
        assert report.total_reoptimizations > len(scheduler.engines)
        assert scheduler._delta is not None
        assert all(engine._delta is None for engine in scheduler.engines.values())


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


class TestOneDegradationLadder:
    def test_a_frozen_bootstrap_raises_as_the_lone_engine_does(self):
        """Only azure_blob/premium meets a 0.01 s cap, and its provider is
        down from the start: the first solve is infeasible and no tenant has
        a placement to freeze at, so the fleet raises instead of billing
        nothing, as a lone engine on the same input does."""
        catalog = multi_cloud_catalog()
        partitions = [
            DataPartition(f"p{i}", size_gb=10.0, predicted_accesses=3.0) for i in range(3)
        ]
        slo = {partition.name: 0.01 for partition in partitions}
        series = {partition.name: [9.0] * 3 for partition in partitions}

        def outage():
            return ChaosInjector(
                DisruptionSchedule([ProviderOutage(epoch=0, provider="azure_blob")])
            )

        fleet = FleetScheduler(
            [
                TenantSpec(
                    "t", partitions, StaticOnce(), series=series, latency_slo_s=slo
                )
            ],
            catalog,
            chaos=outage(),
        )
        with pytest.raises(InfeasibleError, match="never-relaxed"):
            fleet.run()
        assert fleet.engines["t"].placement is None
        engine = OnlineTieringEngine(
            partitions, catalog, StaticOnce(), latency_slo_s=slo, chaos=outage()
        )
        with pytest.raises(InfeasibleError, match="never-relaxed"):
            engine.run(SeriesStream(series))

    def test_actions_are_keyed_by_the_window_index(self):
        """Half-month windows: the pool shock's mark 1 lands in window 2,
        and the pooled solves of windows 2 and 3 both fall back to the
        unpooled retry; each window's rung lands in that window's report,
        beside its relaxation notes, and the shock lands in window 2's
        report beside the rung it caused, not under its month mark."""
        catalog = multi_cloud_catalog()
        fast = DataPartition(
            "fast", size_gb=50.0, predicted_accesses=5.0, latency_threshold_s=0.003
        )
        slow = [
            DataPartition(f"b{i}", size_gb=40.0, predicted_accesses=1.0) for i in range(2)
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
        for index in range(4):
            scheduler.step_window(
                {
                    name: StreamWindow(index, index / 2, (index + 1) / 2, (), "time")
                    for name in ("a", "b")
                }
            )
        assert [
            (report.epoch, len(report.events), [action.kind for action in report.actions])
            for report in chaos.reports
        ] == [
            (0, 0, ["latency_relaxed"]),
            (2, len(catalog.provider_names), ["pool_budget_suspended"]),
            (3, 0, ["pool_budget_suspended"]),
        ]
