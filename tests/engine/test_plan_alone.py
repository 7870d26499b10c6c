"""A lone engine's one-member plan against the per-engine plan it replaced.

A lone :class:`~repro.engine.OnlineTieringEngine` re-optimizes through a
:class:`~repro.engine.WindowPlan` whose one member is itself, in its block
of one.  The reference (``plan_alone`` in ``tests/oracles/plan.py``) runs
the steps a lone engine ran before: the reference forecast, the object build
of its instance, the one solve (``solve_stacked``, which the engine runs
too), the per-partition scan, the ``placement`` setter and the policy
notification.  Hypothesis drives two
identical engines over the same windows — one through its plan, one through
the reference — and requires, after every window, bit-identical records,
placements (ratio and decompression bits too), residency clocks, every
row's recorded tier and codec and the policy baseline, and partitions that
stay as given (``check_placement_record``).  The draws cover full
and delta mode, periodic and drift policies and time- and count-triggered
windows, over a capacitated multi-cloud catalog with precompressed
partitions, calm or under a storm: a provider outage (whose evacuations
waive the early-deletion penalty), a price shock and the recovery.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.plan import check_placement_record, placement_record, plan_alone
from repro.chaos import (
    ChaosInjector,
    DisruptionSchedule,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
)
from repro.cloud import CompressionProfile, DataPartition, TimedEvent, multi_cloud_catalog
from repro.engine import (
    CountTrigger,
    DriftTriggered,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    TimeTrigger,
    windowed,
)

HORIZON = 4.0
COUNT = 8
READS = (0.0, 1.0, 3.0, 12.0)


def bits(value) -> bytes:
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value).tobytes()
    return struct.pack("<d", value)


def catalog():
    """The multi-cloud catalog with two capacitated tiers: Azure premium and
    the GCS archive tier the cold partitions land on."""
    base = multi_cloud_catalog()
    capacities = [math.inf] * len(base)
    capacities[base.index_of("azure_blob/premium")] = 120.0
    capacities[base.index_of("gcp_gcs/archive")] = 150.0
    return base.with_capacities(capacities)


def partitions() -> list[DataPartition]:
    """New data, placed data and two partitions already stored gzip."""
    return [
        DataPartition(
            name=f"p{i}",
            size_gb=20.0 + 11.5 * i,
            predicted_accesses=(400.0, 0.2, 30.0, 0.0, 90.0, 1.0, 5.0, 0.5)[i],
            latency_threshold_s=(7200.0, 60.0)[i % 2],
            current_tier=(-1, -1, 1, 4, -1, 3, 1, -1)[i],
            current_codec="gzip" if i in (3, 6) else None,
        )
        for i in range(COUNT)
    ]


def profiles() -> dict:
    return {
        f"p{i}": {
            "gzip": CompressionProfile(
                "gzip", ratio=3.0 + 0.2 * i, decompression_s_per_gb=1.5
            ),
            **(
                {"zstd": CompressionProfile("zstd", ratio=2.5, decompression_s_per_gb=0.3)}
                if i % 2
                else {}
            ),
        }
        for i in range(COUNT)
    }


def build_engine(mode: str, policy: str, storm: bool) -> OnlineTieringEngine:
    chaos = None
    if storm:
        chaos = ChaosInjector(
            DisruptionSchedule(
                [
                    ProviderOutage(epoch=1, provider="gcp_gcs"),
                    PriceShock(epoch=2, provider="aws_s3", storage_factor=1.8),
                    ProviderRecovery(epoch=3, provider="gcp_gcs"),
                ]
            )
        )
    return OnlineTieringEngine(
        partitions(),
        catalog(),
        PeriodicReoptimize(2) if policy == "periodic" else DriftTriggered(threshold=0.15),
        config=EngineConfig(horizon_months=3.0, window_months=3, reopt_mode=mode),
        profiles=profiles(),
        chaos=chaos,
    )


def engine_view(engine: OnlineTieringEngine) -> dict:
    placement = engine.placement
    policy = engine.policy
    baseline = getattr(policy, "_predicted", None)
    applied = engine.last_applied_forecast
    return {
        "placement": None
        if placement is None
        else (
            dict(placement),
            bits(placement.ratio),
            bits(placement.decompression_s_per_gb),
        ),
        "months_in_tier": bits(engine.months_in_tier),
        "record": placement_record(engine),
        "baseline": (
            policy._last_reoptimized,
            None if baseline is None else (baseline.names, bits(baseline.dense())),
        ),
        "applied": None if applied is None else (applied.names, bits(applied.dense())),
    }


def record_bits(record) -> dict:
    view = asdict(record)
    del view["wall_clock_s"]
    return {
        name: bits(value) if isinstance(value, float) else (type(value), value)
        for name, value in view.items()
    }


@st.composite
def runs(draw):
    events = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.floats(0.0, HORIZON, exclude_max=True, allow_subnormal=False),
                    st.integers(0, COUNT - 1),
                    st.sampled_from(READS),
                ),
                max_size=30,
            )
        )
    )
    trigger = draw(
        st.one_of(
            st.sampled_from((0.5, 1.0)).map(lambda width: ("time", width)),
            st.sampled_from((3, 6)).map(lambda count: ("count", count)),
        )
    )
    mode = draw(st.sampled_from(("full", "delta")))
    policy = draw(st.sampled_from(("periodic", "drift")))
    storm = draw(st.booleans())
    return events, trigger, mode, policy, storm


class TestLonePlanMatchesThePerEngineReference:
    @settings(max_examples=40, deadline=None)
    @given(run=runs())
    def test_records_placements_and_state(self, run):
        events, (kind, size), mode, policy, storm = run
        plan = build_engine(mode, policy, storm)
        alone = build_engine(mode, policy, storm)
        plan_alone(alone)
        trigger = TimeTrigger(size) if kind == "time" else CountTrigger(size)
        timed = [TimedEvent(t, f"p{k}", reads) for t, k, reads in events]
        for window in windowed(timed, trigger, horizon_months=HORIZON):
            outcomes = []
            for engine in (plan, alone):
                try:
                    outcomes.append(record_bits(engine.step_window(window)))
                except Exception as error:  # both engines must fail alike
                    outcomes.append(repr(error))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], str):
                return
            assert engine_view(plan) == engine_view(alone)
            for engine in (plan, alone):
                check_placement_record(engine, partitions())
        if storm:
            assert plan.chaos.summary() == alone.chaos.summary()
