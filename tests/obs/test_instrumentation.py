"""End-to-end instrumentation: spans/metrics fire, and never change bills.

The contract the whole subsystem hangs on: observability is *read-only*.
Running the exact same engine/fleet workload with tracing enabled must
produce the bit-identical bill, placements and reoptimization count as the
disabled run — telemetry never feeds back into decisions.
"""

import math

import numpy as np
import pytest

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
from repro.core.optassign import DeltaSolver, OptAssignProblem, solve_optassign
from repro.engine import (
    DriftTriggered,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec

MONTHS = 8


def build_workload(num_partitions: int = 12):
    rng = np.random.default_rng(23)
    partitions = []
    series = {}
    for index in range(num_partitions):
        name = f"p{index:02d}"
        hot_half = [float(rng.integers(50, 120)) for _ in range(MONTHS // 2)]
        cold_half = [0.0] * (MONTHS - MONTHS // 2)
        flips = index % 2 == 0
        series[name] = hot_half + cold_half if flips else cold_half + hot_half
        partitions.append(
            DataPartition(
                name,
                size_gb=100.0 + 10.0 * index,
                predicted_accesses=series[name][0],
                latency_threshold_s=7200.0,
                current_tier=0,
            )
        )
    return partitions, series


def run_engine():
    partitions, series = build_workload()
    engine = OnlineTieringEngine(
        partitions,
        azure_tier_catalog(include_premium=False),
        DriftTriggered(threshold=0.4),
        EngineConfig(horizon_months=6.0, window_months=4),
    )
    return engine.run(SeriesStream(series, num_epochs=MONTHS))


class TestNoopFastPath:
    def test_disabled_run_records_nothing(self):
        report = run_engine()
        assert report.total_bill > 0
        assert obs.get_tracer().records() == []
        assert len(obs.get_metrics()) == 0

    def test_enabled_run_is_bill_identical(self):
        baseline = run_engine()
        with obs.observed():
            traced = run_engine()
        assert traced.total_bill == baseline.total_bill
        assert traced.num_reoptimizations == baseline.num_reoptimizations
        assert [record.epoch for record in traced.records] == [
            record.epoch for record in baseline.records
        ]
        assert [record.bill_total for record in traced.records] == [
            record.bill_total for record in baseline.records
        ]

    def test_noop_overhead_is_allocation_free_per_site(self):
        # The disabled singletons hand back shared objects, so the
        # instrumented hot loops never allocate when observability is off.
        tracer = obs.get_tracer()
        assert tracer.span("a") is tracer.span("b")
        metrics = obs.get_metrics()
        assert metrics.counter("a") is metrics.counter("b", label="x")


class TestEngineSpans:
    def test_epoch_span_tree_covers_engine_phases(self):
        with obs.observed() as run:
            report = run_engine()
        names = {record.name for record in run.tracer.records()}
        assert {
            "engine.window",
            "engine.ingest",
            "engine.feature_store",
            "engine.policy_decision",
            "engine.settle",
        } <= names
        # The workload drifts hard at the midpoint, so at least one epoch
        # re-optimizes and the solve/migrate pipeline appears.
        assert report.num_reoptimizations > 0
        assert {
            "engine.build_problem",
            "engine.forecast",
            "engine.solve",
            "engine.migrate",
            "optassign.solve",
            "optassign.batch_tensors",
            "optassign.greedy",
        } <= names
        epochs = [r for r in run.tracer.records() if r.name == "engine.window"]
        assert len(epochs) == MONTHS
        # Every month's window span nests the settle.
        settle_parents = {
            r.parent_id for r in run.tracer.records() if r.name == "engine.settle"
        }
        assert settle_parents <= {r.span_id for r in epochs}

    def test_engine_counters_and_gauges(self):
        with obs.observed() as run:
            report = run_engine()
        samples = {
            (s.name, tuple(sorted(s.labels.items()))): s
            for s in run.snapshot().metrics
        }
        reopts = samples[("engine.reoptimizations", ())]
        assert reopts.value == report.num_reoptimizations
        fills = [s for (name, _), s in samples.items() if name == "engine.window_fill"]
        assert fills and 0.0 < fills[0].value <= 1.0
        drift = [s for (name, _), s in samples.items() if name == "engine.drift_score"]
        assert drift and drift[0].labels == {"policy": "drift_triggered"}

    def test_migration_counters_fire_on_moves(self):
        with obs.observed() as run:
            run_engine()
        samples = {s.name: s for s in run.snapshot().metrics}
        assert samples["migration.moves"].value > 0
        assert samples["migration.moved_gb"].value > 0


class TestSolverSpans:
    def build_problem(self, capacity_fraction: float | None = None):
        rng = np.random.default_rng(5)
        tiers = azure_tier_catalog(include_premium=False)
        partitions = [
            DataPartition(
                f"d{index}",
                size_gb=float(rng.lognormal(3.0, 1.0)),
                predicted_accesses=float(rng.lognormal(1.0, 1.5)),
                latency_threshold_s=7200.0,
                current_tier=0,
            )
            for index in range(60)
        ]
        profiles = {
            p.name: {
                "gzip": CompressionProfile("gzip", ratio=3.0, decompression_s_per_gb=1.0)
            }
            for p in partitions
        }
        model = CostModel(tiers, duration_months=6.0)
        problem = OptAssignProblem(partitions, model, profiles)
        if capacity_fraction is None:
            return problem
        # Squeeze the tier the unconstrained solve uses most, relative to
        # its actual usage, so the capacity repair is guaranteed to evict.
        report = solve_optassign(problem, prefer="greedy")
        usage = [0.0] * len(tiers)
        for partition in partitions:
            choice = report.assignment.choices[partition.name]
            usage[choice.tier_index] += problem.stored_gb(partition, choice.scheme)
        hot = usage.index(max(usage))
        squeezed = type(tiers)(
            [
                tier.with_capacity(usage[hot] * capacity_fraction)
                if index == hot
                else tier
                for index, tier in enumerate(tiers)
            ]
        )
        return OptAssignProblem(
            partitions, CostModel(squeezed, duration_months=6.0), profiles
        )

    def test_solve_span_covers_phases(self):
        with obs.observed() as run:
            solve_optassign(self.build_problem(), prefer="greedy")
        names = [record.name for record in run.tracer.records()]
        assert "optassign.solve" in names
        assert "optassign.batch_tensors" in names
        assert "optassign.greedy" in names
        # Uncapacitated: no repair work, no relaxation retries.
        assert "optassign.repair_capacity" not in names
        assert "optassign.relaxation_round" not in names

    def test_capacitated_solve_traces_repair(self):
        with obs.observed() as run:
            solve_optassign(self.build_problem(0.25), prefer="greedy")
        names = [record.name for record in run.tracer.records()]
        assert "optassign.repair_capacity" in names
        samples = {s.name: s for s in run.snapshot().metrics}
        assert samples["optassign.repair.rounds"].labels == {"kind": "capacity"}
        assert samples["optassign.repair.rounds"].value >= 1

    def test_delta_solver_counters(self):
        problem = self.build_problem()
        with obs.observed() as run:
            solver = DeltaSolver(drift_threshold=0.1)
            solver.solve(problem)  # bootstrap -> full solve
        samples = {s.name: s for s in run.snapshot().metrics}
        assert samples["optassign.delta.full_solves"].labels == {"reason": "bootstrap"}
        names = [record.name for record in run.tracer.records()]
        assert "optassign.delta_solve" in names


class TestFleetSpans:
    @pytest.mark.slow
    def test_contended_fleet_covers_arbitration(self):
        catalog = multi_cloud_catalog()
        config = EngineConfig(horizon_months=6.0, window_months=6)
        specs = []
        for name, hot in (("hot", True), ("cold", False)):
            partitions = [
                DataPartition(
                    f"{name}_{i}",
                    size_gb=200.0 if hot else 500.0,
                    predicted_accesses=1500.0 if hot else 0.2,
                    latency_threshold_s=1.0 if hot else math.inf,
                )
                for i in range(4)
            ]
            series = {
                p.name: [1500.0 if hot else 0.2] * 6 for p in partitions
            }
            specs.append(
                TenantSpec(
                    name=name,
                    partitions=partitions,
                    policy=PeriodicReoptimize(2),
                    series=series,
                    config=config,
                )
            )
        pools = PoolSet(
            catalog,
            [CapacityPool("perf", ("azure_blob/premium", "azure_blob/hot"), 1000.0)],
        )
        scheduler = FleetScheduler(
            specs,
            catalog,
            pools=pools,
            config=FleetConfig(engine=config, max_workers=2),
        )
        with obs.observed() as run:
            scheduler.run(num_epochs=6)
        names = {record.name for record in run.tracer.records()}
        assert {
            "fleet.window",
            "fleet.build_problem",
            "fleet.stack",
            "fleet.solve",
            "fleet.apply",
            "fleet.settle",
            "optassign.repair_pools",
        } <= names
        # The build and settle spans nest directly under the window span.
        epoch_ids = {
            r.span_id for r in run.tracer.records() if r.name == "fleet.window"
        }
        for record in run.tracer.records():
            if record.name in ("fleet.build_problem", "fleet.settle"):
                assert record.parent_id in epoch_ids
        samples = {s.name for s in run.snapshot().metrics}
        assert "fleet.pool.used_gb" in samples
        assert "fleet.pool.utilization" in samples
        # The whole traced run round-trips through JSONL byte-exactly.
        text = obs.to_jsonl(run.snapshot())
        assert obs.to_jsonl(obs.parse_jsonl(text)) == text
