"""FleetScheduler behaviour: validation, epoch locking, oracle equality."""

from dataclasses import replace

import pytest

from repro.cloud import (
    DataPartition,
    PoolSet,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.engine import (
    DriftTriggered,
    EngineConfig,
    EpochBatch,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
    StaticOnce,
)
from repro.core.optassign import InfeasibleError
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import generate_fleet_workload

MONTHS = 8
CONFIG = EngineConfig(horizon_months=6.0, window_months=6)


@pytest.fixture(scope="module")
def fleet_workload():
    return generate_fleet_workload(3, 5, MONTHS, seed=11)


def make_specs(fleet_workload, policy=PeriodicReoptimize, **policy_kwargs):
    policy_kwargs = policy_kwargs or {"period_months": 3}
    return [
        TenantSpec(
            name=tenant.name,
            partitions=tenant.partitions,
            policy=policy(**policy_kwargs),
            series=tenant.series,
            profiles=tenant.profiles,
            config=CONFIG,
            latency_slo_s=tenant.workload.latency_slo_s,
            provider_affinity=tenant.workload.provider_affinity or None,
        )
        for tenant in fleet_workload
    ]


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetScheduler([], multi_cloud_catalog())

    def test_duplicate_tenant_names_rejected(self, fleet_workload):
        specs = make_specs(fleet_workload)
        specs[1].name = specs[0].name
        with pytest.raises(ValueError, match="duplicate"):
            FleetScheduler(specs, multi_cloud_catalog())

    def test_shared_policy_instance_rejected(self, fleet_workload):
        specs = make_specs(fleet_workload)
        specs[1].policy = specs[0].policy
        with pytest.raises(ValueError, match="share a policy"):
            FleetScheduler(specs, multi_cloud_catalog())

    def test_pools_must_match_catalog_object(self, fleet_workload):
        catalog = multi_cloud_catalog()
        pools = PoolSet.per_provider(multi_cloud_catalog(), {"aws_s3": 1e6})
        with pytest.raises(ValueError, match="different catalog"):
            FleetScheduler(make_specs(fleet_workload), catalog, pools=pools)

    def test_capacitated_catalog_rejected_with_pools(self, fleet_workload):
        catalog = azure_tier_catalog(capacities=[1e6, 1e6, 1e6, 1e6])
        pools = PoolSet.per_tier(catalog, {"hot": 100.0})
        with pytest.raises(ValueError, match="uncapacitated"):
            FleetScheduler(make_specs(fleet_workload), catalog, pools=pools)

    def test_capacitated_catalog_rejected_without_pools(self, fleet_workload):
        # A finite tier capacity would be enforced by the stacked solve
        # across all tenants combined — different semantics from N
        # independent engines — so the fleet refuses it outright.
        catalog = azure_tier_catalog(capacities=[1e6, 1e6, 1e6, 1e6])
        with pytest.raises(ValueError, match="fleet-wide"):
            FleetScheduler(make_specs(fleet_workload), catalog)

    def test_mismatched_pricing_rejected(self, fleet_workload):
        specs = make_specs(fleet_workload)
        specs[1].config = EngineConfig(horizon_months=12.0, window_months=6)
        with pytest.raises(ValueError, match="differs from the fleet's in horizon_months;"):
            FleetScheduler(specs, multi_cloud_catalog())

    @pytest.mark.parametrize(
        "setting", [{"reopt_mode": "delta"}, {"delta_drift_threshold": 0.2}]
    )
    def test_solver_settings_the_fleet_ignores_are_rejected(self, fleet_workload, setting):
        """The fleet solves every tenant with its own solver settings, so a
        spec asking for others (the first tenant's too) raises."""
        specs = make_specs(fleet_workload)
        specs[0].config = replace(CONFIG, **setting)
        with pytest.raises(
            ValueError, match=f"differs from the fleet's in {', '.join(setting)};"
        ):
            FleetScheduler(specs, multi_cloud_catalog())
        # Accepted once the fleet solves with those settings too.
        for spec in specs:
            spec.config = specs[0].config
        FleetScheduler(
            specs, multi_cloud_catalog(), config=FleetConfig(engine=specs[0].config)
        )

    @pytest.mark.parametrize(
        "setting", [{"reopt_mode": "delta"}, {"delta_drift_threshold": 0.2}]
    )
    def test_add_tenant_rejects_solver_settings_the_fleet_ignores(
        self, fleet_workload, setting
    ):
        specs = make_specs(fleet_workload)
        scheduler = FleetScheduler(specs[:2], multi_cloud_catalog())
        joiner = specs[2]
        joiner.config = replace(CONFIG, **setting)
        with pytest.raises(
            ValueError, match=f"differs from the fleet's in {', '.join(setting)};"
        ):
            scheduler.add_tenant(joiner)
        assert joiner.name not in scheduler.engines
        joiner.config = CONFIG
        scheduler.add_tenant(joiner)
        assert joiner.name in scheduler.engines


class TestTenantSpec:
    def test_name_validation(self):
        partition = [DataPartition("p", size_gb=1.0, predicted_accesses=1.0)]
        with pytest.raises(ValueError):
            TenantSpec(name="", partitions=partition, policy=StaticOnce(), series={"p": [1.0]})
        with pytest.raises(ValueError, match="may not contain"):
            TenantSpec(name="a::b", partitions=partition, policy=StaticOnce(), series={"p": [1.0]})

    def test_exactly_one_event_source(self):
        partition = [DataPartition("p", size_gb=1.0, predicted_accesses=1.0)]
        stream = SeriesStream({"p": [1.0]})
        with pytest.raises(ValueError, match="exactly one"):
            TenantSpec(name="t", partitions=partition, policy=StaticOnce())
        with pytest.raises(ValueError, match="exactly one"):
            TenantSpec(
                name="t",
                partitions=partition,
                policy=StaticOnce(),
                series={"p": [1.0]},
                stream=stream,
            )

    def test_fleet_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(max_workers=0)


class TestEpochLocking:
    def test_unequal_stream_lengths_raise(self, fleet_workload):
        specs = make_specs(fleet_workload)
        short = dict(specs[0].series)
        specs[0].series = {name: values[: MONTHS // 2] for name, values in short.items()}
        # explicit per-spec streams of different lengths
        specs[0].stream = SeriesStream(specs[0].series, num_epochs=MONTHS // 2)
        specs[0].series = None
        scheduler = FleetScheduler(specs, multi_cloud_catalog())
        with pytest.raises(ValueError, match="same epochs"):
            scheduler.run(num_epochs=MONTHS)

    def test_mixed_epochs_raise(self, fleet_workload):
        specs = make_specs(fleet_workload)
        scheduler = FleetScheduler(specs, multi_cloud_catalog())
        batches = {
            specs[0].name: EpochBatch(epoch=0, events=()),
            specs[1].name: EpochBatch(epoch=1, events=()),
            specs[2].name: EpochBatch(epoch=0, events=()),
        }
        with pytest.raises(ValueError, match="locked"):
            scheduler.step_epoch(batches)

    def test_missing_tenant_batch_raises(self, fleet_workload):
        specs = make_specs(fleet_workload)
        scheduler = FleetScheduler(specs, multi_cloud_catalog())
        with pytest.raises(KeyError, match="missing tenants"):
            scheduler.step_epoch({specs[0].name: EpochBatch(epoch=0, events=())})


class TestSlackPoolOracle:
    """With slack pools the fleet must equal N independent engine runs."""

    @pytest.fixture(scope="class")
    def reports(self, fleet_workload):
        catalog = multi_cloud_catalog()
        pools = PoolSet.per_provider(
            catalog, {"aws_s3": 1e9, "azure_blob": 1e9, "gcp_gcs": 1e9}
        )
        scheduler = FleetScheduler(
            make_specs(fleet_workload, policy=DriftTriggered, threshold=0.2),
            catalog,
            pools=pools,
            config=FleetConfig(engine=CONFIG),
        )
        fleet_report = scheduler.run(num_epochs=MONTHS)
        independent = {}
        for tenant in fleet_workload:
            engine = OnlineTieringEngine(
                tenant.partitions,
                catalog,
                DriftTriggered(threshold=0.2),
                CONFIG,
                profiles=tenant.profiles,
                latency_slo_s=tenant.workload.latency_slo_s,
                provider_affinity=tenant.workload.provider_affinity or None,
            )
            independent[tenant.name] = engine.run(
                SeriesStream(tenant.series, num_epochs=MONTHS)
            )
        return fleet_report, independent

    def test_bills_are_exact_per_tenant(self, reports):
        fleet_report, independent = reports
        for name, oracle in independent.items():
            assert fleet_report.tenant_reports[name].total_bill == oracle.total_bill

    def test_epoch_records_match_component_wise(self, reports):
        fleet_report, independent = reports
        for name, oracle in independent.items():
            fleet_records = fleet_report.tenant_reports[name].records
            assert len(fleet_records) == len(oracle.records)
            for mine, theirs in zip(fleet_records, oracle.records):
                assert mine.reoptimized == theirs.reoptimized
                assert mine.storage_cost == theirs.storage_cost
                assert mine.read_cost == theirs.read_cost
                assert mine.migration_cost == theirs.migration_cost
                assert mine.num_moved == theirs.num_moved

    def test_fleet_total_is_sum_of_tenants(self, reports):
        fleet_report, independent = reports
        assert fleet_report.total_bill == pytest.approx(
            sum(report.total_bill for report in independent.values()), abs=1e-9
        )


class TestRelaxationFallback:
    def test_pool_infeasible_epoch_relaxes_latency_like_the_facade(self):
        # Two tenants, one read-hot 10 GB partition each, with a 10 ms SLA
        # that unrelaxed admits only azure premium (5.3 ms; hot is 61.4 ms).
        # The premium pool fits one partition, so arbitration has no feasible
        # destination at factor 1 — the scheduler must relax latency (factor
        # 8 admits hot) instead of aborting the fleet run, mirroring
        # solve_optassign's behavior for tier-capacity infeasibility.
        catalog = azure_tier_catalog()
        pools = PoolSet.per_tier(catalog, {"premium": 10.0})
        specs = []
        for index in range(2):
            name = f"p{index}"
            specs.append(
                TenantSpec(
                    name=f"tenant_{index}",
                    partitions=[
                        DataPartition(
                            name,
                            size_gb=10.0,
                            predicted_accesses=20_000.0,
                            latency_threshold_s=0.01,
                        )
                    ],
                    policy=StaticOnce(),
                    series={name: [20_000.0] * 3},
                    config=CONFIG,
                )
            )
        scheduler = FleetScheduler(
            specs, catalog, pools=pools, config=FleetConfig(engine=CONFIG)
        )
        report = scheduler.run(num_epochs=3)
        assert report.num_epochs == 3
        for record in report.pool_usage:
            assert record.used_gb["premium"] <= 10.0 + 1e-6
        # one partition kept premium, the other was relaxed into hot
        placements = {
            name: engine.placement for name, engine in scheduler.engines.items()
        }
        tiers_used = sorted(
            decision.tier_index
            for placement in placements.values()
            for decision in placement.values()
        )
        assert tiers_used == [0, 1]

    def test_hard_mask_infeasibility_fails_fast_with_facade_diagnostic(self):
        # An SLO cap below every tier's published SLO can never be fixed by
        # latency relaxation; the facade's pointed fail-fast diagnostic must
        # surface from the fleet immediately instead of being retried and
        # buried under a generic exhausted-rounds error.
        catalog = azure_tier_catalog()
        spec = TenantSpec(
            name="t",
            partitions=[DataPartition("p", size_gb=1.0, predicted_accesses=1.0)],
            policy=StaticOnce(),
            series={"p": [1.0, 1.0]},
            config=CONFIG,
            latency_slo_s={"p": 1e-9},
        )
        scheduler = FleetScheduler([spec], catalog, config=FleetConfig(engine=CONFIG))
        with pytest.raises(InfeasibleError, match="latency relaxation cannot help"):
            scheduler.run(num_epochs=2)


class TestSchedulerMechanics:
    def test_thread_pool_parity(self, fleet_workload):
        catalog = multi_cloud_catalog()
        bills = []
        for workers in (None, 4):
            scheduler = FleetScheduler(
                make_specs(fleet_workload),
                catalog,
                config=FleetConfig(engine=CONFIG, max_workers=workers),
            )
            report = scheduler.run(num_epochs=MONTHS)
            bills.append(report.tenant_bills())
        assert bills[0] == bills[1]

    def test_pool_usage_recorded_every_epoch(self, fleet_workload):
        catalog = multi_cloud_catalog()
        pools = PoolSet.per_provider(catalog, {"azure_blob": 1e9})
        scheduler = FleetScheduler(
            make_specs(fleet_workload), catalog, pools=pools,
            config=FleetConfig(engine=CONFIG),
        )
        report = scheduler.run(num_epochs=MONTHS)
        assert len(report.pool_usage) == MONTHS
        assert [record.epoch for record in report.pool_usage] == list(range(MONTHS))
        # every tenant re-optimizes at epoch 0 (bootstrap)
        assert report.pool_usage[0].num_reoptimized == len(fleet_workload)
        for record in report.pool_usage:
            assert record.capacity_gb == {"azure_blob": 1e9}
            assert record.used_gb["azure_blob"] >= 0.0

    def test_pool_less_fleet_still_records_solve_telemetry(self, fleet_workload):
        scheduler = FleetScheduler(
            make_specs(fleet_workload), multi_cloud_catalog(),
            config=FleetConfig(engine=CONFIG),
        )
        report = scheduler.run(num_epochs=MONTHS)
        assert len(report.pool_usage) == MONTHS
        for record in report.pool_usage:
            assert record.used_gb == {} and record.capacity_gb == {}
        # epoch 0: every tenant bootstraps through the stacked solve
        assert report.pool_usage[0].num_reoptimized == len(fleet_workload)
        assert report.pool_usage[0].solve_wall_clock_s > 0.0
        assert report.peak_pool_utilization() == {}
        assert report.num_epochs == MONTHS
        assert report.num_tenants == len(fleet_workload)

    def test_contended_pool_never_exceeds_budget(self, fleet_workload):
        catalog = multi_cloud_catalog()
        # Squeeze azure: its slack-peak usage is far above 500 GB.
        pools = PoolSet.per_provider(catalog, {"azure_blob": 500.0})
        scheduler = FleetScheduler(
            make_specs(fleet_workload), catalog, pools=pools,
            config=FleetConfig(engine=CONFIG),
        )
        report = scheduler.run(num_epochs=MONTHS)
        for record in report.pool_usage:
            assert record.used_gb["azure_blob"] <= 500.0 + 1e-6
        assert max(
            record.utilization()["azure_blob"] for record in report.pool_usage
        ) == pytest.approx(report.peak_pool_utilization()["azure_blob"])

    def test_summary_shape(self, fleet_workload):
        scheduler = FleetScheduler(
            make_specs(fleet_workload), multi_cloud_catalog(),
            config=FleetConfig(engine=CONFIG),
        )
        summary = scheduler.run(num_epochs=MONTHS).summary()
        assert summary["tenants"] == len(fleet_workload)
        assert summary["epochs"] == MONTHS
        assert summary["total_bill_cents"] > 0.0
