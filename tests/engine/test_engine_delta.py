"""Incremental re-optimization inside the online engine (``reopt_mode="delta"``).

The contract under test: at ``delta_drift_threshold=0.0`` the delta engine is
**bill-identical** to the full engine on the same stream — pinning only
bit-unchanged rows cannot move any argmin — while a positive threshold keeps
the end-to-end run feasible and actually pins rows on quiet epochs.
"""

import numpy as np
import pytest

from repro import obs
from repro.cloud import DataPartition, azure_tier_catalog
from repro.engine import (
    DriftTriggered,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SeriesStream,
)
from repro.workloads import DriftSegment, generate_drifting_reads

MONTHS = 18


@pytest.fixture(scope="module")
def drifting_workload():
    rng = np.random.default_rng(67)
    series = {}
    partitions = []
    for index in range(10):
        name = f"dataset_{index}"
        if index < 3:  # hot then silent
            segments = [DriftSegment("constant", 9), DriftSegment("inactive", MONTHS - 9)]
            prior = 80.0
        elif index < 6:  # silent then hot
            segments = [DriftSegment("inactive", 9), DriftSegment("constant", MONTHS - 9)]
            prior = 0.0
        else:
            segments = [DriftSegment("decaying", MONTHS)]
            prior = 40.0
        series[name] = generate_drifting_reads(rng, segments, base_level=80.0)
        partitions.append(
            DataPartition(
                name=name,
                size_gb=120.0 + 25.0 * index,
                predicted_accesses=prior,
                latency_threshold_s=7200.0,
                current_tier=0,
            )
        )
    return series, partitions


def run_engine(drifting_workload, policy, **config_kwargs):
    series, partitions = drifting_workload
    tiers = azure_tier_catalog(include_premium=False, include_archive=True)
    config = EngineConfig(horizon_months=6.0, window_months=6, **config_kwargs)
    engine = OnlineTieringEngine(partitions, tiers, policy, config)
    report = engine.run(SeriesStream(series))
    return engine, report


class TestEngineConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            EngineConfig(reopt_mode="sometimes")

    def test_rejects_threshold_at_or_past_one_third(self):
        with pytest.raises(ValueError):
            EngineConfig(reopt_mode="delta", delta_drift_threshold=1.0 / 3.0)
        with pytest.raises(ValueError):
            EngineConfig(reopt_mode="delta", delta_drift_threshold=-0.01)


class TestDeltaModeEquivalence:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: PeriodicReoptimize(period_months=3),
            lambda: DriftTriggered(threshold=0.3, min_gap_months=2),
        ],
        ids=["periodic", "drift"],
    )
    def test_zero_threshold_delta_is_bill_identical(
        self, drifting_workload, policy_factory
    ):
        _, full = run_engine(drifting_workload, policy_factory(), reopt_mode="full")
        _, delta = run_engine(
            drifting_workload,
            policy_factory(),
            reopt_mode="delta",
            delta_drift_threshold=0.0,
        )
        assert delta.total_bill == pytest.approx(full.total_bill, rel=1e-12)
        assert delta.num_reoptimizations == full.num_reoptimizations
        for full_record, delta_record in zip(full.records, delta.records):
            assert delta_record.bill_total == pytest.approx(
                full_record.bill_total, rel=1e-12
            )
            assert delta_record.num_moved == full_record.num_moved

    def test_positive_threshold_pins_rows_and_stays_close(self, drifting_workload):
        _, full = run_engine(
            drifting_workload, PeriodicReoptimize(period_months=2), reopt_mode="full"
        )
        with obs.observed() as run:
            _, delta = run_engine(
                drifting_workload,
                PeriodicReoptimize(period_months=2),
                reopt_mode="delta",
                delta_drift_threshold=0.1,
            )
        names = [record.name for record in run.tracer.records()]
        # Every re-optimization solved through the delta solver.
        assert names.count("optassign.delta_solve") == delta.num_reoptimizations
        # The delta engine may place slightly differently (pinned rows keep
        # their standing placement under sub-threshold drift), but the bill
        # must stay within the coarse regret envelope of the full engine.
        assert delta.total_bill <= full.total_bill * 1.5
        assert delta.num_epochs == full.num_epochs

    def test_full_mode_has_no_delta_solver(self, drifting_workload):
        with obs.observed() as run:
            engine, _ = run_engine(
                drifting_workload, PeriodicReoptimize(period_months=3), reopt_mode="full"
            )
        assert engine._delta is None
        names = [record.name for record in run.tracer.records()]
        assert "optassign.delta_solve" not in names
