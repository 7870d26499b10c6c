"""One settle pass over many engines against each engine settling alone.

A fleet settles every tenant that shares a ring width and an EWMA alpha in
one :class:`~repro.engine.SettleBlock` pass; a lone engine settles through a
block of one.  The reference is the per-engine window settle in
``tests/oracles/engine_state.py``.  Hypothesis drives two identical fleets
(or engines) over the same windows — one through the blocks, one through the
reference — and after every window requires bit-identical records and bills,
feature-store rings, lifetime and last-access columns, forecaster values and
epochs, residency clocks and each policy's observed rate columns.  The draws
cover tenants with no events, zero-read events, zero-width flush windows,
per-tenant vocabularies, tenants whose configs differ in ``window_months``
and ``forecast_alpha``, full and delta mode, and windowed chaos: a price
shock, an outage and its recovery, a tenant leaving and a tenant joining.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.engine_state import reference_settle_window, settle_each_engine
from repro.chaos import (
    ChaosInjector,
    DisruptionSchedule,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
    TenantJoin,
    TenantLeave,
)
from repro.cloud import DataPartition, EventBatch, TimedEvent, multi_cloud_catalog
from repro.core.access_predict import WindowedAccessForecaster
from repro.engine import (
    CountTrigger,
    DriftTriggered,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SettleBlock,
    StaticOnce,
    StreamWindow,
    TimeTrigger,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec

NAMES = ("p0", "p1", "p2", "p3", "p4")
READS = (0.0, 0.5, 1.0, 2.5, 4.0)
DURATIONS = (0.0, 0.1, 0.25, 0.5, 1.0)
JOINER = "zeta"


def partitions(prefix: str = "") -> list[DataPartition]:
    return [
        DataPartition(
            name=f"{prefix}{name}",
            size_gb=20.0 + 35.0 * i,
            predicted_accesses=(12.0, 0.5, 0.0, 3.25, 40.0)[i],
            latency_threshold_s=7200.0,
            current_tier=-1 if i % 2 else 0,
        )
        for i, name in enumerate(NAMES)
    ]


def prefix_of(tenant: str) -> str:
    """Partition-name prefix of a tenant: odd tenants and the joiner name
    their partitions apart, so vocabularies differ between tenants."""
    if tenant == JOINER:
        return "j_"
    return f"{tenant}_" if int(tenant[1:]) % 2 else ""


def make_policy(kind: str):
    if kind == "periodic":
        return PeriodicReoptimize(2)
    if kind == "drift":
        return DriftTriggered(threshold=0.2)
    return StaticOnce()


tenant_specs = st.lists(
    st.tuples(
        st.sampled_from((2, 3)),  # window_months
        st.sampled_from((0.4, 0.15)),  # forecast_alpha
        st.sampled_from(("periodic", "drift", "static")),
    ),
    min_size=1,
    max_size=3,
)
window_events = st.lists(
    st.tuples(st.integers(0, len(NAMES) - 1), st.sampled_from(READS)), max_size=8
)


@st.composite
def fleet_runs(draw):
    tenants = draw(tenant_specs)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(DURATIONS),
                st.sampled_from(("time", "count", "drift")),
                # One event list per tenant, plus one for a joiner.
                st.lists(window_events, min_size=len(tenants) + 1, max_size=len(tenants) + 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    chaos = draw(
        st.sets(st.sampled_from(("price", "outage", "leave", "join")), max_size=4)
    )
    mode = draw(st.sampled_from(("full", "delta")))
    return tenants, steps, chaos, mode


def engine_config(window_months: int, alpha: float, mode: str) -> EngineConfig:
    return EngineConfig(
        horizon_months=3.0,
        window_months=window_months,
        forecast_alpha=alpha,
        reopt_mode=mode,
    )


def build_fleet(tenants, chaos_kinds, mode):
    names = [f"t{k}" for k in range(len(tenants))]
    specs = [
        TenantSpec(
            name=name,
            partitions=partitions(prefix_of(name)),
            policy=make_policy(kind),
            stream=iter(()),
            config=engine_config(window_months, alpha, mode),
        )
        for name, (window_months, alpha, kind) in zip(names, tenants)
    ]
    events = []
    if "price" in chaos_kinds:
        events.append(PriceShock(epoch=1, provider="aws_s3", storage_factor=1.7))
    if "outage" in chaos_kinds:
        events.append(ProviderOutage(epoch=1, provider="gcp_gcs"))
        events.append(ProviderRecovery(epoch=2, provider="gcp_gcs"))
    if "leave" in chaos_kinds and len(names) > 1:
        events.append(TenantLeave(epoch=2, tenant=names[-1]))
    if "join" in chaos_kinds:
        events.append(
            TenantJoin(
                epoch=1,
                spec=TenantSpec(
                    name=JOINER,
                    partitions=partitions(prefix_of(JOINER)),
                    policy=PeriodicReoptimize(1),
                    stream=iter(()),
                    config=engine_config(3, 0.4, mode),
                ),
            )
        )
    chaos = ChaosInjector(DisruptionSchedule(events)) if events else None
    scheduler = FleetScheduler(
        specs,
        multi_cloud_catalog(),
        config=FleetConfig(engine=engine_config(3, 0.4, mode)),
        chaos=chaos,
    )
    return scheduler


def tenant_windows(names, steps):
    """Per-step window mappings; each tenant's window carries its own
    vocabulary (its events' names in first-occurrence order)."""
    start = 0.0
    for index, (duration, cause, per_tenant) in enumerate(steps):
        end = start + duration
        windows = {}
        for name, picks in zip(names, per_tenant):
            prefix = prefix_of(name)
            windows[name] = StreamWindow(
                index=index,
                start_month=start,
                end_month=end,
                events=tuple(
                    TimedEvent(start, f"{prefix}{NAMES[k]}", reads) for k, reads in picks
                ),
                cause="flush" if duration == 0.0 else cause,
            )
        yield windows
        start = end


def bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def engine_state(engine) -> dict:
    store = engine.feature_store
    forecaster = engine.forecaster
    observed = engine._last_observed
    return {
        "ring": bits(store._window),
        "lifetime": bits(store._lifetime),
        "last_access": bits(store._last_access),
        "store_epoch": store._epoch,
        "value": bits(forecaster._value),
        "at": bits(forecaster._at),
        "forecast_epoch": forecaster._last_epoch,
        "months_in_tier": bits(engine.months_in_tier),
        "observed": None
        if observed is None
        else (
            observed.names,
            bits(observed.rates),
            None if observed.rows is None else observed.rows.tolist(),
        ),
        "window": engine._last_window,
        "clock": engine.window_clock,
    }


def record_view(report) -> dict:
    return {
        name: [
            {k: v for k, v in asdict(record).items() if k != "wall_clock_s"}
            for record in tenant_report.records
        ]
        for name, tenant_report in report.tenant_reports.items()
    }


def fleet_state(scheduler) -> dict:
    return {name: engine_state(engine) for name, engine in scheduler.engines.items()}


class TestFleetPassMatchesEachEngineAlone:
    @settings(max_examples=120, deadline=None)
    @given(run=fleet_runs())
    def test_records_bills_and_state(self, run):
        tenants, steps, chaos_kinds, mode = run
        block = build_fleet(tenants, chaos_kinds, mode)
        alone = build_fleet(tenants, chaos_kinds, mode)
        settle_each_engine(alone)
        names = [f"t{k}" for k in range(len(tenants))] + [JOINER]
        for windows in tenant_windows(names, steps):
            block.step_window(windows)
            alone.step_window(windows)
            assert fleet_state(block) == fleet_state(alone)
        got, expected = block.report(), alone.report()
        assert record_view(got) == record_view(expected)
        assert got.total_bill == expected.total_bill

    @settings(max_examples=60, deadline=None)
    @given(
        tenants=tenant_specs,
        raw=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 40).map(lambda k: k / 16),
                    st.integers(0, len(NAMES) - 1),
                    st.sampled_from(READS),
                ),
                max_size=25,
            ).map(sorted),
            min_size=3,
            max_size=3,
        ),
        trigger=st.sampled_from((("time", 0.25), ("time", 0.5), ("count", 1), ("count", 4))),
        horizon=st.sampled_from((None, 3.0)),
        mode=st.sampled_from(("full", "delta")),
    )
    def test_run_streams_under_time_and_count_triggers(
        self, tenants, raw, trigger, horizon, mode
    ):
        """Merged streams share one vocabulary; without a horizon a count
        trigger can end in a zero-width flush window."""
        block = build_fleet(tenants, (), mode)
        alone = build_fleet(tenants, (), mode)
        settle_each_engine(alone)
        reports = []
        for scheduler in (block, alone):
            streams = {
                spec.name: [
                    TimedEvent(t, scheduler.engines[spec.name]._arrays.names[k], reads)
                    for t, k, reads in events
                ]
                for spec, events in zip(scheduler.tenants, raw)
            }
            kind, value = trigger
            reports.append(
                scheduler.run_streams(
                    streams,
                    TimeTrigger(value) if kind == "time" else CountTrigger(value),
                    horizon_months=horizon,
                )
            )
        assert fleet_state(block) == fleet_state(alone)
        assert record_view(reports[0]) == record_view(reports[1])
        assert reports[0].total_bill == reports[1].total_bill


def solo_engine(window_months, alpha, warm, kind):
    forecaster = None
    if warm:
        # A name the engine does not know comes first, so the engine's
        # forecaster rows are not 0..n-1.
        forecaster = WindowedAccessForecaster(alpha=alpha)
        forecaster.seed({"elsewhere": 5.0, "p3": 80.0}, epoch=-6)
        forecaster.update(-4, {"p1": 2.5, "elsewhere": 1.0})
    return OnlineTieringEngine(
        partitions(),
        multi_cloud_catalog(),
        make_policy(kind),
        config=engine_config(window_months, alpha, "full"),
        forecaster=forecaster,
    )


class TestLoneEngineIsABlockOfOne:
    @settings(max_examples=100, deadline=None)
    @given(
        window_months=st.sampled_from((1, 2, 3)),
        alpha=st.sampled_from((0.4, 0.15)),
        warm=st.booleans(),
        kind=st.sampled_from(("periodic", "drift", "static")),
        steps=st.lists(
            st.tuples(
                st.sampled_from(DURATIONS),
                st.sampled_from(("time", "count", "drift")),
                st.lists(window_events, min_size=1, max_size=1),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_step_window_matches_the_reference(self, window_months, alpha, warm, kind, steps):
        block = solo_engine(window_months, alpha, warm, kind)
        alone = solo_engine(window_months, alpha, warm, kind)
        alone._settle_window = (
            lambda window, rows, migration, reoptimized, started: reference_settle_window(
                alone, window, migration, reoptimized, started
            )
        )
        for windows in tenant_windows(["t0"], steps):
            got = block.step_window(windows["t0"])
            expected = alone.step_window(windows["t0"])
            assert engine_state(block) == engine_state(alone)
            got, expected = asdict(got), asdict(expected)
            got.pop("wall_clock_s"), expected.pop("wall_clock_s")
            assert got == expected

    def test_settle_window_runs_the_same_pass(self):
        """A lone engine plans and settles through one block of one, window
        after window."""
        engine = solo_engine(3, 0.4, False, "static")
        engine.step_window(
            next(tenant_windows(["t0"], [(0.5, "time", [[(0, 1.0)]])]))["t0"]
        )
        block = engine._own_block
        assert isinstance(block, SettleBlock) and block.engines == (engine,)
        assert engine._block is block and block.tenants == ("",)
        record = engine.step_window(
            StreamWindow(1, 0.5, 0.75, (TimedEvent(0.6, "p1", 2.0),), "time")
        )
        assert engine._own_block is block
        assert record.access_count == 2 and not record.reoptimized


class TestBlockMembership:
    def test_engines_hold_views_of_the_block_columns(self):
        engines = [solo_engine(3, 0.4, False, "static") for _ in range(2)]
        block = SettleBlock(engines)
        assert block.intact()
        for engine in engines:
            assert np.shares_memory(engine.months_in_tier, block.months_in_tier)
            assert engine.feature_store._window.base is not None
        # A solo settle takes the engine over; the shared block goes stale.
        engines[0].step_window(
            next(tenant_windows(["t0"], [(0.5, "time", [[(0, 1.0)]])]))["t0"]
        )
        assert not block.intact()

    def test_block_needs_one_ring_width_and_alpha(self):
        with pytest.raises(ValueError, match="window_months"):
            SettleBlock(
                [solo_engine(3, 0.4, False, "static"), solo_engine(2, 0.4, False, "static")]
            )
        with pytest.raises(ValueError, match="window_months"):
            SettleBlock(
                [solo_engine(3, 0.4, False, "static"), solo_engine(3, 0.15, False, "static")]
            )
        with pytest.raises(ValueError, match="at least one"):
            SettleBlock([])
        shared = WindowedAccessForecaster()
        twins = [
            OnlineTieringEngine(
                partitions(), multi_cloud_catalog(), StaticOnce(), forecaster=shared
            )
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="own forecasters"):
            SettleBlock(twins)

    def test_store_folded_outside_the_block_slides_on_its_own(self):
        """A store observed directly through epoch 1, then settled from
        window 3, expires the skipped ring columns as the per-engine fold
        does."""
        engines = []
        for _ in range(2):
            engine = solo_engine(2, 0.4, False, "static")
            engine.feature_store.observe_rows(0, np.array([0, 1]), np.array([3.0, 1.0]))
            engine.feature_store.observe_rows(1, np.array([2]), np.array([2.0]))
            engines.append(engine)
        block, alone = engines
        alone._settle_window = (
            lambda window, rows, migration, reoptimized, started: reference_settle_window(
                alone, window, migration, reoptimized, started
            )
        )
        window = StreamWindow(3, 0.0, 0.5, (TimedEvent(0.1, "p3", 1.0),), "time")
        block.step_window(window)
        alone.step_window(window)
        assert engine_state(block) == engine_state(alone)
        assert block.feature_store.window_reads("p0") == 0.0

    def test_store_with_spare_rows_folds_through_its_own_rows(self):
        """A store that registered a name of its own holds more rows than
        its engine, so the next engine's store rows start later in the
        block than its engine rows do."""
        tenants = [(3, 0.4, "periodic")] * 2
        block, alone = build_fleet(tenants, (), "full"), build_fleet(tenants, (), "full")
        settle_each_engine(alone)
        for scheduler in (block, alone):
            scheduler.engines["t0"].feature_store.register(["extra"])
        steps = [(0.5, "time", [[(1, 2.0), (4, 1.0)], [(0, 3.0), (1, 0.5)]])] * 3
        for windows in tenant_windows(["t0", "t1"], steps):
            block.step_window(windows)
            alone.step_window(windows)
            assert fleet_state(block) == fleet_state(alone)

    def test_mixed_configs_settle_in_one_block_per_group(self):
        tenants = [(3, 0.4, "static"), (2, 0.4, "static"), (3, 0.4, "static"), (3, 0.15, "static")]
        scheduler = build_fleet(tenants, (), "full")
        names = [f"t{k}" for k in range(len(tenants))]
        scheduler.step_window(next(tenant_windows(names, [(0.5, "time", [[]] * 4)])))
        groups = [names_ for names_, _ in scheduler._blocks]
        assert groups == [("t0", "t2"), ("t1",), ("t3",)]


class TestRejectedWindowChangesNothing:
    def two_tenants(self):
        return build_fleet([(3, 0.4, "periodic"), (3, 0.4, "periodic")], (), "full")

    def windows(self, index, start, end, second):
        return {
            "t0": StreamWindow(index, start, end, (TimedEvent(start, "p0", 1.0),), "time"),
            "t1": StreamWindow(index, start, end, (TimedEvent(start, second, 1.0),), "time"),
        }

    def test_bad_event_raises_before_any_tenant_changes(self):
        fleet, clean = self.two_tenants(), self.two_tenants()
        for scheduler in (fleet, clean):
            scheduler.step_window(self.windows(0, 0.0, 0.5, "t1_p0"))
        before = fleet_state(fleet)
        policies = [engine.policy._last_reoptimized for engine in fleet.engines.values()]
        with pytest.raises(KeyError, match="unknown partition 'nowhere'"):
            fleet.step_window(self.windows(1, 0.5, 1.0, "nowhere"))
        assert fleet_state(fleet) == before
        assert [e.policy._last_reoptimized for e in fleet.engines.values()] == policies
        assert [len(r.records) for r in fleet.report().tenant_reports.values()] == [1, 1]
        # The corrected window is accepted, and the run continues exactly as
        # one that never saw the bad window.
        for scheduler in (fleet, clean):
            scheduler.step_window(self.windows(1, 0.5, 1.0, "t1_p1"))
        assert fleet_state(fleet) == fleet_state(clean)
        assert record_view(fleet.report()) == record_view(clean.report())

    def test_bad_joiner_event_raises_before_any_disruption(self):
        """A tenant admitted by this window's TenantJoin, whose event names
        an unknown partition: the window raises before the join and the
        price shock in it apply, and the corrected window is accepted."""

        def fleet():
            return build_fleet([(3, 0.4, "periodic")] * 2, ("price", "join"), "full")

        def windows(joiner_partition):
            mapping = self.windows(1, 1.0, 1.5, "t1_p1")
            mapping[JOINER] = StreamWindow(
                1, 1.0, 1.5, (TimedEvent(1.0, joiner_partition, 1.0),), "time"
            )
            return mapping

        scheduler, clean = fleet(), fleet()
        for each in (scheduler, clean):
            each.step_window(self.windows(0, 0.0, 1.0, "t1_p0"))
        before = fleet_state(scheduler)
        prices = bits(scheduler.tiers.cost_arrays()["storage_cost"])
        with pytest.raises(KeyError, match="unknown partition 'nowhere'"):
            scheduler.step_window(windows("nowhere"))
        assert JOINER not in scheduler.engines
        assert fleet_state(scheduler) == before
        assert bits(scheduler.tiers.cost_arrays()["storage_cost"]) == prices
        assert scheduler.chaos.reports == clean.chaos.reports
        for each in (scheduler, clean):
            each.step_window(windows("j_p2"))
        assert fleet_state(scheduler) == fleet_state(clean)
        assert record_view(scheduler.report()) == record_view(clean.report())
        assert scheduler.report().tenant_reports[JOINER].records[0].access_count == 1

    def test_out_of_order_window_raises_before_any_tenant_changes(self):
        fleet = self.two_tenants()
        fleet.step_window(self.windows(0, 0.0, 0.5, "t1_p0"))
        before = fleet_state(fleet)
        with pytest.raises(ValueError, match="consecutive"):
            fleet.step_window(self.windows(2, 0.5, 1.0, "t1_p0"))
        assert fleet_state(fleet) == before

    def test_lone_engine_rejects_before_its_policy_runs(self):
        engine = solo_engine(3, 0.4, False, "periodic")
        with pytest.raises(KeyError, match="unknown partition"):
            engine.step_window(
                StreamWindow(0, 0.0, 0.5, (TimedEvent(0.1, "nowhere", 1.0),), "time")
            )
        assert engine.placement is None and engine.policy._last_reoptimized is None
        record = engine.step_window(
            StreamWindow(0, 0.0, 0.5, (TimedEvent(0.1, "p0", 1.0),), "time")
        )
        assert record.reoptimized and record.access_count == 1


class OneChunk:
    """A stream whose one chunk is built when the run reads it."""

    def __init__(self, reads, prefix=""):
        self.reads = reads
        self.vocab = (f"{prefix}p0", f"{prefix}p1")

    def chunks(self):
        yield EventBatch([0.1, 0.2], [0, 1], self.reads, self.vocab)


class TestNonFiniteReadsNeverReachABill:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lone_run_stream_raises_before_any_record(self, bad):
        engine = solo_engine(3, 0.4, False, "static")
        fresh = engine_state(engine)
        with pytest.raises(ValueError, match="reads must be finite"):
            engine.run_stream(OneChunk([1.0, bad]), TimeTrigger(0.25), horizon_months=1.0)
        assert engine_state(engine) == fresh and engine.placement is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fleet_run_streams_raises_before_any_record(self, bad):
        scheduler = build_fleet([(3, 0.4, "periodic"), (3, 0.4, "periodic")], (), "full")
        fresh = fleet_state(scheduler)
        with pytest.raises(ValueError, match="reads must be finite"):
            scheduler.run_streams(
                {"t0": OneChunk([1.0, 2.0]), "t1": OneChunk([bad, 1.0], "t1_")},
                TimeTrigger(0.25),
                horizon_months=1.0,
            )
        assert fleet_state(scheduler) == fresh
        assert all(not r.records for r in scheduler.report().tenant_reports.values())
        # The same streams with a finite read run through.
        report = scheduler.run_streams(
            {"t0": OneChunk([1.0, 2.0]), "t1": OneChunk([3.0, 1.0], "t1_")},
            TimeTrigger(0.25),
            horizon_months=1.0,
        )
        assert np.isfinite(report.total_bill)
