"""The mutable overlay chaos builds on: in-place re-pricing, pool resizing,
banned tiers in problems, and the delta solver's selective invalidation."""

import numpy as np
import pytest

from oracles.problems import stack
from repro.cloud import (
    AccessEvent,
    CapacityPool,
    CloudStorageSimulator,
    CostModel,
    DataPartition,
    PoolSet,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    DeltaSolver,
    OptAssignProblem,
    solve_optassign,
)
from repro.engine import EpochBatch, OnlineTieringEngine, StaticOnce, month_window
from repro.fleet import FleetScheduler, TenantSpec


@pytest.fixture
def catalog():
    return azure_tier_catalog(include_premium=False, include_archive=False)


def make_partitions(num=4):
    # Half hot-and-small, half cold-and-huge, so stable placements span both
    # tiers of the hot/cool catalog (targeted invalidation needs rows the
    # shock does NOT touch).
    return [
        DataPartition(
            name=f"p{i}",
            size_gb=10.0 if i < num // 2 else 1000.0,
            predicted_accesses=500.0 if i < num // 2 else 0.0,
            latency_threshold_s=float("inf"),
            current_tier=0,
        )
        for i in range(num)
    ]


def make_problem(catalog, banned=None, num=4, partitions=None):
    partitions = partitions if partitions is not None else make_partitions(num)
    return OptAssignProblem(
        partitions,
        CostModel(catalog, duration_months=6.0),
        banned_tiers=banned,
    )


def stabilize(solver, catalog, partitions, banned=None, epochs=6):
    """Solve and apply the placement back until a re-solve pins every row.

    The delta detector treats ``current_tier != chosen tier`` as structural,
    so a warm cache only fully pins once the placement has been applied —
    exactly what the engine's executor does between epochs.
    """
    report = solver.solve(make_problem(catalog, banned=banned, partitions=partitions))
    for _ in range(epochs):
        for partition in partitions:
            partition.current_tier = report.assignment.choices[
                partition.name
            ].tier_index
        report = solver.solve(
            make_problem(catalog, banned=banned, partitions=partitions)
        )
        if report.mode == "delta" and report.num_changed == 0:
            return report
    raise AssertionError("delta cache never stabilized")


class TestReprice:
    def test_identity_preserved_and_version_bumped(self, catalog):
        names = [tier.name for tier in catalog]
        latencies = [tier.latency_s for tier in catalog]
        before = catalog.pricing_version
        affected = catalog.reprice(storage_factor=2.0)
        assert affected == tuple(range(len(catalog)))
        assert [tier.name for tier in catalog] == names
        assert [tier.latency_s for tier in catalog] == latencies
        assert catalog.pricing_version == before + 1

    def test_targeted_reprice_scales_only_named_tiers(self, catalog):
        target = catalog[0].name
        old_costs = [
            (tier.storage_cost, tier.read_cost, tier.write_cost)
            for tier in catalog
        ]
        affected = catalog.reprice(
            [target], storage_factor=3.0, read_factor=0.5
        )
        assert affected == (0,)
        assert catalog[0].storage_cost == pytest.approx(old_costs[0][0] * 3.0)
        assert catalog[0].read_cost == pytest.approx(old_costs[0][1] * 0.5)
        assert catalog[0].write_cost == pytest.approx(old_costs[0][2])
        for index in range(1, len(catalog)):
            assert (
                catalog[index].storage_cost,
                catalog[index].read_cost,
                catalog[index].write_cost,
            ) == old_costs[index]

    def test_cost_arrays_refreshed(self, catalog):
        before = catalog.cost_arrays()["storage_cost"].copy()
        catalog.reprice(storage_factor=2.0)
        after = catalog.cost_arrays()["storage_cost"]
        np.testing.assert_allclose(after, before * 2.0)

    def test_invalid_factors_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.reprice(storage_factor=0.0)
        with pytest.raises(ValueError):
            catalog.reprice(read_factor=float("nan"))

    def test_unknown_tier_rejected(self, catalog):
        with pytest.raises(KeyError):
            catalog.reprice(["no_such_tier"], storage_factor=2.0)

    def test_multi_provider_reprice(self):
        catalog = multi_cloud_catalog()
        dead = catalog.tier_indices_of("aws_s3")
        names = [catalog[i].name for i in dead]
        old = {i: catalog[i].storage_cost for i in range(len(catalog))}
        affected = catalog.reprice(names, storage_factor=2.0)
        assert affected == tuple(sorted(dead))
        for index in range(len(catalog)):
            factor = 2.0 if index in dead else 1.0
            assert catalog[index].storage_cost == pytest.approx(
                old[index] * factor
            )


class TestPricesFollowTheCatalog:
    """An in-place reprice that no injector announces still bills the next
    window at the new prices: a settle block compiles an engine's prices
    again once its catalog's ``pricing_version`` has moved."""

    @staticmethod
    def partitions(prefix=""):
        return [
            DataPartition(
                f"{prefix}p{i}", size_gb=100.0 * (i + 1), predicted_accesses=float(i)
            )
            for i in range(4)
        ]

    @staticmethod
    def month(partitions, epoch):
        return EpochBatch(
            epoch=epoch,
            events=tuple(AccessEvent(epoch, p.name, 1.0) for p in partitions),
        )

    @staticmethod
    def fresh_bill(engine, batch):
        """The batch billed by the engine's placement compiled afresh."""
        step = (
            CloudStorageSimulator(engine.tiers)
            .compile_placement(engine._arrays, engine.placement)
            .step(month_window(batch).events)
        )
        return (step.bill.storage, step.bill.read, step.bill.decompression)

    def test_a_lone_engine_bills_a_direct_reprice(self):
        catalog = multi_cloud_catalog()
        partitions = self.partitions()
        engine = OnlineTieringEngine(partitions, catalog, StaticOnce())
        for epoch in range(2):
            before = engine.step(self.month(partitions, epoch))
        catalog.reprice(storage_factor=2.0)
        batch = self.month(partitions, 2)
        record = engine.step(batch)
        assert record.storage_cost == 2.0 * before.storage_cost
        assert (
            record.storage_cost,
            record.read_cost,
            record.decompression_cost,
        ) == self.fresh_bill(engine, batch)

    def test_a_fleet_bills_a_direct_reprice(self):
        catalog = multi_cloud_catalog()
        tenants = {name: self.partitions(name) for name in ("a", "b")}
        fleet = FleetScheduler(
            [
                TenantSpec(name, partitions, StaticOnce(), stream=iter(()))
                for name, partitions in tenants.items()
            ],
            catalog,
        )
        for epoch in range(2):
            fleet.step_epoch(
                {name: self.month(partitions, epoch) for name, partitions in tenants.items()}
            )
        catalog.reprice(read_factor=3.0, storage_factor=0.5)
        batches = {name: self.month(partitions, 2) for name, partitions in tenants.items()}
        fleet.step_epoch(batches)
        for name, records in fleet.report().tenant_reports.items():
            last = records.records[-1]
            assert (
                last.storage_cost,
                last.read_cost,
                last.decompression_cost,
            ) == self.fresh_bill(fleet.engines[name], batches[name])


class TestPoolResize:
    def test_set_capacity_in_place(self):
        catalog = multi_cloud_catalog()
        pools = PoolSet.per_provider(
            catalog, {name: 1000.0 for name in catalog.provider_names}
        )
        previous = pools.set_capacity("aws_s3", 250.0)
        assert previous == 1000.0
        assert dict(zip((p.name for p in pools), pools.capacities))[
            "aws_s3"
        ] == pytest.approx(250.0)
        resized = next(p for p in pools if p.name == "aws_s3")
        assert resized.capacity_gb == pytest.approx(250.0)

    def test_unknown_pool_rejected(self):
        catalog = multi_cloud_catalog()
        pools = PoolSet.per_provider(
            catalog, {name: 1000.0 for name in catalog.provider_names}
        )
        with pytest.raises(KeyError, match="nope"):
            pools.set_capacity("nope", 10.0)

    def test_invalid_capacity_rejected(self):
        catalog = azure_tier_catalog()
        pools = PoolSet(
            catalog, [CapacityPool("all", tuple(t.name for t in catalog), 500.0)]
        )
        with pytest.raises(ValueError):
            pools.set_capacity("all", -1.0)


class TestBannedTiers:
    def test_banned_tier_never_assigned(self, catalog):
        problem = make_problem(catalog, banned=[0])
        assignment = solve_optassign(problem).assignment
        assert all(
            option.tier_index != 0 for option in assignment.choices.values()
        )

    def test_banned_tiers_fold_into_provider_allowed(self, catalog):
        problem = make_problem(catalog, banned=[0])
        for option in problem.options_for(problem.partitions[0]):
            if option.tier_index == 0:
                assert not option.provider_allowed

    def test_mask_covers_banned_columns(self, catalog):
        calm = make_problem(catalog)
        assert calm._tier_allowed_mask() is None  # calm-run fast path intact
        problem = make_problem(catalog, banned=[1])
        mask = problem._tier_allowed_mask()
        assert mask is not None
        assert not mask[:, 1].any()
        assert mask[:, 0].all()

    def test_whole_catalog_ban_rejected(self, catalog):
        with pytest.raises(ValueError, match="whole catalog"):
            make_problem(catalog, banned=range(len(catalog)))

    def test_out_of_range_ban_rejected(self, catalog):
        with pytest.raises(ValueError):
            make_problem(catalog, banned=[len(catalog)])

    def test_relaxed_carries_bans(self, catalog):
        problem = make_problem(catalog, banned=[0])
        assert problem.relaxed(2.0).banned_tiers == frozenset({0})

    def test_stack_unions_bans(self, catalog):
        stacked = stack(
            {
                "a": make_problem(catalog, banned=[0]),
                "b": make_problem(catalog, banned=[1]),
            }
        )
        assert stacked.problem.banned_tiers == frozenset({0, 1})



class TestDeltaInvalidation:
    def test_pricing_version_in_signature_forces_full(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stabilize(solver, catalog, partitions)
        catalog.reprice(storage_factor=2.0)
        report = solver.solve(make_problem(catalog, partitions=partitions))
        assert report.mode == "full"
        assert report.reason == "pricing changed"

    def test_note_repricing_keeps_cache_with_targeted_rows(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stable = stabilize(solver, catalog, partitions)
        # Re-price one standing tier upward and tell the solver: only rows
        # standing on that tier re-solve, the rest stay pinned.
        used = sorted(
            {option.tier_index for option in stable.assignment.choices.values()}
        )
        target = used[0]
        on_target = [
            name
            for name, option in stable.assignment.choices.items()
            if option.tier_index == target
        ]
        affected = catalog.reprice([catalog[target].name], storage_factor=10.0)
        solver.note_repricing(catalog, affected, decreased=False)
        report = solver.solve(make_problem(catalog, partitions=partitions))
        assert report.mode == "delta"
        assert report.num_changed == len(on_target)
        assert report.num_pinned == len(partitions) - len(on_target)

    def test_note_repricing_decrease_forces_all_rows(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stabilize(solver, catalog, partitions)
        affected = catalog.reprice([catalog[0].name], read_factor=0.5)
        solver.note_repricing(catalog, affected, decreased=True)
        report = solver.solve(make_problem(catalog, partitions=partitions))
        # Every row re-solves (a cheaper tier could overtake any argmin);
        # whether the solver shortcuts to a full solve or re-solves all rows
        # in delta mode, nothing may stay pinned.
        assert report.num_pinned == 0

    def test_note_repricing_for_foreign_catalog_is_noop(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stabilize(solver, catalog, partitions)
        other = azure_tier_catalog(include_premium=False, include_archive=False)
        other.reprice(storage_factor=2.0)
        solver.note_repricing(other, (0,), decreased=False)
        report = solver.solve(make_problem(catalog, partitions=partitions))
        assert report.mode == "delta"
        assert report.num_changed == 0

    def test_invalidate_forces_named_rows(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stabilize(solver, catalog, partitions)
        solver.invalidate(["p1"])
        report = solver.solve(make_problem(catalog, partitions=partitions))
        assert report.mode == "delta"
        assert report.num_changed == 1

    def test_forget_drops_rows(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions(4)
        stabilize(solver, catalog, partitions)
        solver.forget(["p3"])
        report = solver.solve(make_problem(catalog, partitions=partitions[:3]))
        assert report.mode == "delta"
        assert report.num_changed == 0

    def test_forget_everything_resets(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stabilize(solver, catalog, partitions)
        solver.forget([f"p{i}" for i in range(4)])
        report = solver.solve(make_problem(catalog, partitions=partitions))
        assert report.mode == "full"
        assert report.reason == "bootstrap"

    def test_rows_pinned_on_banned_tier_resolve(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stable = stabilize(solver, catalog, partitions)
        used = {option.tier_index for option in stable.assignment.choices.values()}
        banned_tier = min(used)
        report = solver.solve(
            make_problem(catalog, banned=[banned_tier], partitions=partitions)
        )
        assert all(
            option.tier_index != banned_tier
            for option in report.assignment.choices.values()
        )

    def test_lifting_bans_forces_full_resolve(self, catalog):
        solver = DeltaSolver()
        partitions = make_partitions()
        stabilize(solver, catalog, partitions, banned=[0])
        report = solver.solve(make_problem(catalog, partitions=partitions))
        assert report.mode == "full"
        assert report.reason == "every row changed"
