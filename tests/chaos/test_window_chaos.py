"""Chaos on the epoch-free timeline: disruptions land at window boundaries.

Disruption schedules stay keyed by integer month marks; on the windowed
timeline an event fires in whichever window's ``[start, end)`` span covers
its mark.  Month-aligned windows must therefore recover the dense chaos run
bit-exactly, and each mark must apply exactly once however the stream is cut.
"""

import pytest

from repro.chaos import (
    ChaosInjector,
    DisruptionSchedule,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
)
from repro.cloud import DataPartition, TimedEvent, multi_cloud_catalog
from repro.engine import (
    CountTrigger,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    TimeTrigger,
    monthly_batches,
)
from repro.fleet import FleetScheduler, TenantSpec
from repro.workloads import PoissonZipfStream

MONTHS = 6


def make_partitions(prefix="p"):
    return [
        DataPartition(
            name=f"{prefix}{i}",
            size_gb=60.0,
            predicted_accesses=150.0 if i < 2 else 1.0,
        )
        for i in range(4)
    ]


def make_stream(prefix="p", seed=77):
    return PoissonZipfStream(
        [f"{prefix}{i}" for i in range(4)],
        rate_per_month=300.0,
        horizon_months=float(MONTHS),
        seed=seed,
    )


def run_windowed(schedule, trigger=None):
    chaos = ChaosInjector(schedule) if schedule is not None else None
    engine = OnlineTieringEngine(
        make_partitions(),
        multi_cloud_catalog(),
        PeriodicReoptimize(2),
        config=EngineConfig(),
        chaos=chaos,
    )
    report = engine.run_stream(
        make_stream(),
        trigger or TimeTrigger(1.0),
        horizon_months=float(MONTHS),
    )
    return engine, chaos, report


def assert_one_outage_report(chaos, window):
    """The run's one chaos report is window ``window``'s, and it holds the
    outage's description, its forced evacuation and the traffic billed."""
    (report,) = chaos.reports
    assert report.epoch == window
    assert report.events == ["provider 'azure_blob' outage at epoch 2"]
    assert report.action_kinds == ("forced_evacuation",)
    assert report.bill_impact_cents > 0.0


class TestEpochsInWindow:
    def test_half_open_spans_apply_each_mark_once(self):
        spans = [(0.0, 0.7), (0.7, 2.0), (2.0, 2.0), (2.0, 3.5), (3.5, 6.0)]
        marks = [
            list(ChaosInjector._epochs_in_window(start, end))
            for start, end in spans
        ]
        assert marks == [[0], [1], [], [2, 3], [4, 5]]
        flat = [m for chunk in marks for m in chunk]
        assert flat == sorted(set(flat)) == list(range(6))

    def test_month_aligned_windows_recover_dense_marks(self):
        for month in range(6):
            assert list(
                ChaosInjector._epochs_in_window(float(month), month + 1.0)
            ) == [month]


class TestEngineWindowChaos:
    def test_month_aligned_chaos_matches_dense_run(self):
        schedule = DisruptionSchedule(
            [
                ProviderOutage(epoch=2, provider="azure_blob"),
                ProviderRecovery(epoch=4, provider="azure_blob"),
            ]
        )
        dense_engine = OnlineTieringEngine(
            make_partitions(),
            multi_cloud_catalog(),
            PeriodicReoptimize(2),
            config=EngineConfig(),
            chaos=ChaosInjector(schedule),
        )
        dense = dense_engine.run(monthly_batches(make_stream(), num_epochs=MONTHS))
        _, _, windowed_report = run_windowed(schedule)
        assert windowed_report.total_bill == dense.total_bill
        assert [r.reoptimized for r in windowed_report.records] == [
            r.reoptimized for r in dense.records
        ]

    def test_outage_fires_inside_covering_window(self):
        # Windows cut every 1.5 months: the outage mark at month 2 falls in
        # window [1.5, 3.0) and must force an evacuation solve there.
        schedule = DisruptionSchedule(
            [ProviderOutage(epoch=2, provider="azure_blob")]
        )
        _, chaos, report = run_windowed(schedule, trigger=TimeTrigger(1.5))
        assert chaos.summary()["events_applied"] == 1
        fired = [r for r in report.records if r.start_month <= 2.0 < r.end_month]
        assert len(fired) == 1
        assert fired[0].reoptimized

    def test_an_outage_is_one_report_under_its_window_index(self):
        """The mark-2 outage lands in window 1, [1.5, 3.0): its description,
        its evacuation and the evacuation's traffic are one report, keyed
        by the window index."""
        schedule = DisruptionSchedule(
            [ProviderOutage(epoch=2, provider="azure_blob")]
        )
        _, chaos, _ = run_windowed(schedule, trigger=TimeTrigger(1.5))
        assert_one_outage_report(chaos, window=1)

    def test_count_trigger_windows_still_apply_every_mark(self):
        schedule = DisruptionSchedule(
            [
                PriceShock(epoch=1, storage_factor=2.0),
                ProviderOutage(epoch=3, provider="azure_blob"),
                ProviderRecovery(epoch=5, provider="azure_blob"),
            ]
        )
        _, chaos, _ = run_windowed(schedule, trigger=CountTrigger(150))
        assert chaos.summary()["events_applied"] == 3

    def test_calm_windowed_run_is_bit_identical_to_no_chaos(self):
        _, _, calm = run_windowed(None)
        _, chaos, attached = run_windowed(DisruptionSchedule.empty())
        assert attached.total_bill == calm.total_bill
        assert chaos.summary()["events_applied"] == 0


class TestFleetWindowChaos:
    def make_scheduler(self, schedule):
        specs = [
            TenantSpec(
                name=name,
                partitions=make_partitions(prefix=f"{name}_"),
                policy=PeriodicReoptimize(2),
                stream=iter(()),
                config=EngineConfig(),
            )
            for name in ("acme", "globex")
        ]
        chaos = ChaosInjector(schedule) if schedule is not None else None
        return (
            FleetScheduler(specs, multi_cloud_catalog(), chaos=chaos),
            chaos,
        )

    def fleet_streams(self):
        return {
            name: make_stream(prefix=f"{name}_", seed=seed)
            for name, seed in (("acme", 5), ("globex", 6))
        }

    def test_fleet_outage_applies_once_on_windowed_timeline(self):
        schedule = DisruptionSchedule(
            [
                ProviderOutage(epoch=2, provider="azure_blob"),
                ProviderRecovery(epoch=4, provider="azure_blob"),
            ]
        )
        scheduler, chaos = self.make_scheduler(schedule)
        report = scheduler.run_streams(
            self.fleet_streams(), TimeTrigger(1.5), horizon_months=float(MONTHS)
        )
        assert chaos.summary()["events_applied"] == 2
        # The evacuation forced every tenant's engine to solve in the
        # window covering month 2.
        for tenant_report in report.tenant_reports.values():
            fired = [
                r
                for r in tenant_report.records
                if r.start_month <= 2.0 < r.end_month
            ]
            assert fired and fired[0].reoptimized

    def test_an_outage_is_one_report_under_its_window_index(self):
        schedule = DisruptionSchedule(
            [ProviderOutage(epoch=2, provider="azure_blob")]
        )
        scheduler, chaos = self.make_scheduler(schedule)
        scheduler.run_streams(
            self.fleet_streams(), TimeTrigger(1.5), horizon_months=float(MONTHS)
        )
        assert_one_outage_report(chaos, window=1)

    def test_fleet_month_aligned_chaos_matches_dense(self):
        schedule = DisruptionSchedule(
            [PriceShock(epoch=3, storage_factor=1.5)]
        )
        streams = self.fleet_streams()

        dense_specs = [
            TenantSpec(
                name=name,
                partitions=make_partitions(prefix=f"{name}_"),
                policy=PeriodicReoptimize(2),
                stream=monthly_batches(streams[name], num_epochs=MONTHS),
                config=EngineConfig(),
            )
            for name in ("acme", "globex")
        ]
        dense_scheduler = FleetScheduler(
            dense_specs, multi_cloud_catalog(), chaos=ChaosInjector(schedule)
        )
        dense = dense_scheduler.run(num_epochs=MONTHS)

        scheduler, _ = self.make_scheduler(schedule)
        windowed_report = scheduler.run_streams(
            streams, TimeTrigger(1.0), horizon_months=float(MONTHS)
        )
        assert windowed_report.total_bill == dense.total_bill
