"""Engine-level chaos: calm bit-identity, outage evacuation, recovery
re-admission, price-shock billing, graceful degradation and the
early-deletion waiver regression."""

import numpy as np
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
from repro.cloud import (
    DataPartition,
    PlacementDecision,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.engine import (
    EngineConfig,
    MigrationExecutor,
    OnlineTieringEngine,
    SeriesStream,
)
from repro.engine.policies import PeriodicReoptimize
from oracles.results import mapping_apply

MONTHS = 8


def make_partitions():
    return [
        DataPartition(
            name=f"p{i}",
            size_gb=50.0,
            predicted_accesses=200.0 if i < 2 else 1.0,
        )
        for i in range(4)
    ]


def make_series():
    return {f"p{i}": [200.0 if i < 2 else 1.0] * MONTHS for i in range(4)}


def run_engine(schedule, catalog=None, config=None, affinity=None):
    catalog = catalog if catalog is not None else multi_cloud_catalog()
    chaos = ChaosInjector(schedule) if schedule is not None else None
    engine = OnlineTieringEngine(
        make_partitions(),
        catalog,
        PeriodicReoptimize(2),
        config=config or EngineConfig(),
        provider_affinity=affinity,
        chaos=chaos,
    )
    report = engine.run(SeriesStream(make_series(), num_epochs=MONTHS))
    return engine, chaos, report, catalog


def epoch_bills(report):
    return [
        (
            record.storage_cost,
            record.read_cost,
            record.migration_cost,
            record.early_deletion_penalty,
            record.num_moved,
        )
        for record in report.records
    ]


class TestCalmRunIdentity:
    def test_empty_schedule_is_bit_identical_to_no_chaos(self):
        _, _, calm, _ = run_engine(None)
        _, chaos, attached, _ = run_engine(DisruptionSchedule.empty())
        assert epoch_bills(calm) == epoch_bills(attached)
        assert chaos.reports == []

    def test_empty_schedule_identical_in_delta_mode(self):
        config = EngineConfig(reopt_mode="delta", delta_drift_threshold=0.0)
        _, _, calm, _ = run_engine(None, config=config)
        _, _, attached, _ = run_engine(DisruptionSchedule.empty(), config=config)
        assert epoch_bills(calm) == epoch_bills(attached)


class TestOutageAndRecovery:
    def outage_schedule(self):
        # Place first (epoch 0), then kill whichever provider hosts the hot
        # partitions at epoch 3 and recover it at epoch 5.
        engine, _, _, catalog = run_engine(None)
        provider = catalog.provider_of(engine.placement["p0"].tier_index)
        return provider, DisruptionSchedule(
            [
                ProviderOutage(epoch=3, provider=provider),
                ProviderRecovery(epoch=5, provider=provider),
            ]
        )

    def test_outage_evacuates_and_recovery_readmits(self):
        provider, schedule = self.outage_schedule()
        engine, chaos, report, catalog = run_engine(schedule)
        dead = set(catalog.tier_indices_of(provider))

        outage = next(r for r in chaos.reports if r.epoch == 3)
        assert "forced_evacuation" in outage.action_kinds
        assert outage.bill_impact_cents > 0.0
        assert report.records[3].reoptimized  # forced fire, period or not

        # After the full run the provider recovered and the periodic policy
        # re-optimized (epoch 6): hot data returns to the cheap home tiers.
        assert engine.banned_tiers == frozenset()
        final_providers = {
            catalog.provider_of(d.tier_index) for d in engine.placement.values()
        }
        assert provider in final_providers

    def test_no_placement_on_dead_tiers_during_outage(self):
        provider, schedule = self.outage_schedule()
        catalog = multi_cloud_catalog()
        dead = set(catalog.tier_indices_of(provider))
        chaos = ChaosInjector(schedule)
        engine = OnlineTieringEngine(
            make_partitions(), catalog, PeriodicReoptimize(2), chaos=chaos
        )
        stream = iter(SeriesStream(make_series(), num_epochs=MONTHS))
        for epoch, batch in enumerate(stream):
            engine.step(batch)
            if 3 <= epoch < 5:
                on_dead = [
                    name
                    for name, decision in engine.placement.items()
                    if decision.tier_index in dead
                ]
                assert on_dead == []

    def test_recovery_does_not_fire_a_solve(self):
        provider, _ = self.outage_schedule()
        # The forced evacuation at epoch 3 resets Periodic(2)'s clock, so the
        # policy next fires at 5.  Recovery at 4 must NOT re-optimize epoch 4
        # — re-admission waits for the policy's epoch-5 firing.
        schedule = DisruptionSchedule(
            [
                ProviderOutage(epoch=3, provider=provider),
                ProviderRecovery(epoch=4, provider=provider),
            ]
        )
        _, _, report, _ = run_engine(schedule)
        assert report.records[3].reoptimized  # forced evacuation
        assert not report.records[4].reoptimized  # recovery alone: no solve
        assert report.records[5].reoptimized  # policy-driven re-admission

    def test_evacuation_pays_no_early_deletion(self):
        provider, schedule = self.outage_schedule()
        _, _, report, _ = run_engine(schedule)
        # The evacuation epoch moves data off the dead provider; the waiver
        # means the forced move carries no early-deletion penalty.
        assert report.records[3].early_deletion_penalty == 0.0

    def test_unknown_provider_rejected(self):
        schedule = DisruptionSchedule(
            [ProviderOutage(epoch=0, provider="not_a_cloud")]
        )
        with pytest.raises(ValueError, match="not_a_cloud"):
            run_engine(schedule)

    def test_single_provider_catalog_rejected(self):
        schedule = DisruptionSchedule(
            [ProviderOutage(epoch=0, provider="azure_blob")]
        )
        with pytest.raises(ValueError, match="MultiProviderCatalog"):
            run_engine(schedule, catalog=azure_tier_catalog())

    def test_stranded_affinity_lifted_and_recorded(self):
        affinity = {"p0": "azure_blob"}
        schedule = DisruptionSchedule(
            [ProviderOutage(epoch=3, provider="azure_blob")]
        )
        engine, chaos, _, _ = run_engine(schedule, affinity=affinity)
        outage = next(r for r in chaos.reports if r.epoch == 3)
        assert "affinity_lifted" in outage.action_kinds
        assert "p0" in outage.slo_violations
        # The pin is suspended, not deleted.
        assert engine._provider_affinity == {} or "p0" not in engine._provider_affinity
        assert engine._lifted_affinity == {"p0": "azure_blob"}


class TestPriceShock:
    def test_price_shock_changes_the_bill_immediately(self):
        calm_engine, _, calm, _ = run_engine(None)
        schedule = DisruptionSchedule(
            [PriceShock(epoch=3, storage_factor=4.0)]
        )
        _, _, shocked, _ = run_engine(schedule)
        for epoch in range(3):
            assert shocked.records[epoch].storage_cost == pytest.approx(
                calm.records[epoch].storage_cost
            )
        # The shock epoch itself bills at post-shock prices (no lag).
        assert shocked.records[3].storage_cost > calm.records[3].storage_cost

    def test_price_shock_steers_the_next_reoptimization(self):
        engine, _, _, catalog = run_engine(None)
        home = engine.placement["p3"].tier_index
        home_name = catalog[home].name
        schedule = DisruptionSchedule(
            [
                PriceShock(
                    epoch=3, tier_names=(home_name,), storage_factor=1000.0
                )
            ]
        )
        shocked_engine, _, _, _ = run_engine(schedule)
        assert shocked_engine.placement["p3"].tier_index != home


class TestDegradation:
    def test_infeasible_reoptimization_freezes_placement(self):
        # A latency SLO no tier can meet after epoch 0's placement: ban every
        # tier the hot partition could use via an outage that leaves only
        # too-slow tiers... simpler: shrink the SLO via a price-shock-free
        # schedule won't do it, so drive the engine by hand with an
        # impossible SLO added after the first solve.
        catalog = multi_cloud_catalog()
        chaos = ChaosInjector(DisruptionSchedule.empty())
        engine = OnlineTieringEngine(
            make_partitions(), catalog, PeriodicReoptimize(2), chaos=chaos
        )
        stream = list(SeriesStream(make_series(), num_epochs=4))
        engine.step(stream[0])
        placement_before = dict(engine.placement)
        # Make every future instance infeasible: an SLO cap below any tier's
        # latency.  The chaos-attached engine must freeze, not raise.
        engine._latency_slo = {"p0": 1e-12}
        engine.step(stream[1])
        engine.step(stream[2])  # periodic firing epoch: solve fails, freezes
        assert engine.placement == placement_before
        frozen = [
            action
            for report in chaos.reports
            for action in report.actions
            if action.kind == "placement_frozen"
        ]
        assert frozen, "expected a placement_frozen degradation action"

    def test_a_relaxed_solve_is_recorded(self):
        """A lone engine notes its solve's latency relaxation as a fleet
        does: a partition faster than every tier is placed once the SLA is
        widened x2, and that window's report says so."""
        catalog = multi_cloud_catalog()
        chaos = ChaosInjector(DisruptionSchedule.empty())
        fast = DataPartition(
            "fast", size_gb=50.0, predicted_accesses=5.0, latency_threshold_s=0.003
        )
        engine = OnlineTieringEngine([fast], catalog, PeriodicReoptimize(2), chaos=chaos)
        engine.run(SeriesStream({"fast": [5.0] * 3}, num_epochs=3))
        assert [
            (report.epoch, [(action.kind, action.amount) for action in report.actions])
            for report in chaos.reports
        ] == [(0, [("latency_relaxed", 2.0)]), (2, [("latency_relaxed", 2.0)])]

    def test_calm_engine_still_fails_fast(self):
        catalog = multi_cloud_catalog()
        engine = OnlineTieringEngine(
            make_partitions(), catalog, PeriodicReoptimize(2)
        )
        stream = list(SeriesStream(make_series(), num_epochs=4))
        engine.step(stream[0])
        engine._latency_slo = {"p0": 1e-12}
        engine.step(stream[1])
        with pytest.raises(Exception):
            engine.step(stream[2])


class TestFleetOnlyEventsRejected:
    @pytest.mark.parametrize(
        "event",
        [
            PoolShock(epoch=0, pool="p", capacity_factor=0.5),
            TenantLeave(epoch=0, tenant="t"),
        ],
        ids=lambda event: event.kind,
    )
    def test_fleet_event_on_bare_engine_raises(self, event):
        schedule = DisruptionSchedule([event])
        with pytest.raises(ValueError, match="fleet-level"):
            run_engine(schedule)


class TestBadWindowAppliesNothing:
    """The lone engine's twin of the fleet's bad-window battery: a window
    holding an outage or price shock that cannot apply, or a fleet-level
    event, raises before any of its disruptions applies, so the valid price
    shock marked before it leaves the catalog, the banned tiers and the
    reports as they were."""

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            ([ProviderOutage(epoch=2, provider="nowhere")], ValueError,
             "unknown provider 'nowhere'"),
            ([PriceShock(epoch=2, tier_names=("no_such_tier",), read_factor=2.0)],
             KeyError, "no_such_tier"),
            ([PriceShock(epoch=2, provider="nowhere", read_factor=2.0)], ValueError,
             "not in tuple"),
            ([ProviderOutage(epoch=2, provider="aws_s3"),
              ProviderOutage(epoch=2, provider="azure_blob"),
              ProviderOutage(epoch=2, provider="gcp_gcs")], ValueError,
             "take down every tier"),
            ([TenantLeave(epoch=2, tenant="t")], ValueError, "fleet-level"),
        ],
        ids=[
            "outage-unknown", "shock-unknown-tier", "shock-unknown-provider",
            "outage-of-everything", "fleet-event",
        ],
    )
    def test_window_raises_with_the_engine_unchanged(self, bad, error, match):
        catalog = multi_cloud_catalog()
        chaos = ChaosInjector(
            DisruptionSchedule([PriceShock(epoch=2, storage_factor=1.5), *bad])
        )
        engine = OnlineTieringEngine(
            make_partitions(), catalog, PeriodicReoptimize(2), chaos=chaos
        )
        with pytest.raises(error, match=match):
            engine.run(SeriesStream(make_series(), num_epochs=MONTHS))
        assert catalog.pricing_version == 0
        assert engine.banned_tiers == frozenset()
        assert chaos.reports == []
        assert engine.window_clock == 2.0


class TestEarlyDeletionWaiverRegression:
    """The ISSUE's audited bugfix: a forced evacuation off a tier with a
    minimum-storage window must not be charged the early-deletion penalty on
    top of the move, and the round trip home after recovery must bill the
    return move only once."""

    @pytest.fixture
    def archive_tiers(self):
        return azure_tier_catalog(include_premium=False, include_archive=True)

    def test_waived_move_pays_no_penalty(self, archive_tiers):
        archive = next(
            i
            for i, tier in enumerate(archive_tiers)
            if tier.early_deletion_months > 0
        )
        partition = DataPartition(
            "frozen", size_gb=100.0, predicted_accesses=0.0, current_tier=archive
        )
        executor = MigrationExecutor(archive_tiers)
        months = np.array([1.0])  # well inside the 6-month minimum
        old = {"frozen": PlacementDecision(tier_index=archive)}
        new = {"frozen": PlacementDecision(tier_index=0)}
        waived = mapping_apply(
            executor,
            [partition], old, new, months.copy(),
            waive_early_deletion_tiers={archive},
        )
        assert waived.early_deletion_penalty == 0.0
        assert waived.migration_cost > 0.0  # the move itself is still billed

        # Control: the identical voluntary move IS penalized.
        partition2 = DataPartition(
            "frozen", size_gb=100.0, predicted_accesses=0.0, current_tier=archive
        )
        charged = mapping_apply(executor, [partition2], old, new, months.copy())
        assert charged.early_deletion_penalty > 0.0

    def test_round_trip_after_recovery_bills_each_leg_once(self, archive_tiers):
        archive = next(
            i
            for i, tier in enumerate(archive_tiers)
            if tier.early_deletion_months > 0
        )
        partition = DataPartition(
            "frozen", size_gb=100.0, predicted_accesses=0.0, current_tier=archive
        )
        executor = MigrationExecutor(archive_tiers)
        months = np.array([1.0])
        out = mapping_apply(
            executor,
            [partition],
            {"frozen": PlacementDecision(tier_index=archive)},
            {"frozen": PlacementDecision(tier_index=0)},
            months,
            waive_early_deletion_tiers={archive},
        )
        # Provider recovers within the window; the partition moves home.
        # The return leg is a plain move: hot tiers have no minimum-storage
        # window, so no second penalty and no re-billing of the outage leg.
        back = mapping_apply(
            executor,
            [partition],
            {"frozen": PlacementDecision(tier_index=0)},
            {"frozen": PlacementDecision(tier_index=archive)},
            months,
        )
        assert out.early_deletion_penalty == 0.0
        assert back.early_deletion_penalty == 0.0
        assert back.num_moved == 1
        expected = archive_tiers[0].read_cost_for(100.0) + archive_tiers[
            archive
        ].write_cost_for(100.0)
        assert back.migration_cost == pytest.approx(expected)

    def test_waiver_only_covers_listed_tiers(self, archive_tiers):
        archive = next(
            i
            for i, tier in enumerate(archive_tiers)
            if tier.early_deletion_months > 0
        )
        partition = DataPartition(
            "frozen", size_gb=100.0, predicted_accesses=0.0, current_tier=archive
        )
        executor = MigrationExecutor(archive_tiers)
        report = mapping_apply(
            executor,
            [partition],
            {"frozen": PlacementDecision(tier_index=archive)},
            {"frozen": PlacementDecision(tier_index=0)},
            np.array([1.0]),
            waive_early_deletion_tiers={0},  # some other tier, not the source
        )
        assert report.early_deletion_penalty > 0.0
