"""Partitions, profiles, tiers, engine configs and cost models reject NaN
and infinite numbers when built.

Each constructor compares with a test NaN fails, so a NaN or an infinite
size, prior, ratio, price, latency, horizon or compute price raises
``ValueError`` where it enters — not six latency relaxations later as an
infeasible solve naming the wrong cause, and not as a tier that silently
never fits.  An infinite latency threshold ("no SLA") and an infinite tier
capacity (unbounded) stay legal.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.cloud import (
    CloudStorageSimulator,
    CompressionProfile,
    CostModel,
    CostWeights,
    DataPartition,
    StorageTier,
    TimedEvent,
    azure_tier_catalog,
)
from repro.engine import EngineConfig, OnlineTieringEngine, StaticOnce, TimeTrigger

NONFINITE = (math.nan, math.inf, -math.inf)


def partition(**fields) -> DataPartition:
    values = {"name": "p", "size_gb": 10.0, "predicted_accesses": 4.0}
    values.update(fields)
    return DataPartition(**values)


def tier(**fields) -> StorageTier:
    values = {
        "name": "hot",
        "storage_cost": 2.0,
        "read_cost": 0.01,
        "write_cost": 0.02,
        "latency_s": 0.06,
    }
    values.update(fields)
    return StorageTier(**values)


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize(
    "field",
    ("size_gb", "predicted_accesses", "latency_threshold_s", "read_fraction", "pushdown_fraction"),
)
def test_partition_fields(field, value):
    if field == "latency_threshold_s" and value == math.inf:
        assert partition(**{field: value}).latency_threshold_s == math.inf
        return
    with pytest.raises(ValueError, match=field.split("_")[0]):
        partition(**{field: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("field", ("ratio", "decompression_s_per_gb"))
def test_profile_fields(field, value):
    values = {"scheme": "gzip", "ratio": 3.0, "decompression_s_per_gb": 0.5}
    values[field] = value
    with pytest.raises(ValueError, match="ratio" if field == "ratio" else "decompression"):
        CompressionProfile(**values)


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize(
    "field",
    (
        "storage_cost",
        "read_cost",
        "write_cost",
        "latency_s",
        "early_deletion_months",
        "capacity_gb",
        "slo_latency_s",
    ),
)
def test_tier_fields(field, value):
    if field in ("capacity_gb", "slo_latency_s") and value == math.inf:
        assert getattr(tier(**{field: value}), field) == math.inf
        return
    with pytest.raises(ValueError, match=field):
        tier(**{field: value})


def test_a_partition_size_is_held_as_a_float():
    assert type(partition(size_gb=7).size_gb) is float


@pytest.mark.parametrize(
    "field", ("size_gb", "predicted_accesses", "latency_threshold_s")
)
def test_a_solo_run_stops_at_the_bad_partition(field):
    """The probe: a static-once solo run with one non-finite partition field
    used to end in an InfeasibleError after six relaxed solves; it now
    cannot be built."""
    with pytest.raises(ValueError, match=field.split("_")[0]):
        bad = partition(name="bad", **{field: math.nan})
        engine = OnlineTieringEngine(
            [partition(name="good"), bad], azure_tier_catalog(), StaticOnce()
        )
        engine.run_stream([TimedEvent(0.1, "good", 1.0)], TimeTrigger(0.5), horizon_months=1.0)


def test_a_nan_tier_price_stops_at_the_catalog():
    catalog = azure_tier_catalog()
    with pytest.raises(ValueError, match="storage_cost"):
        replace(catalog[0], storage_cost=math.nan)


@pytest.mark.parametrize("factor", ("storage_factor", "read_factor", "write_factor"))
def test_reprice_with_an_infinite_factor_changes_nothing(factor):
    catalog = azure_tier_catalog()
    before = [(t.storage_cost, t.read_cost, t.write_cost) for t in catalog]
    version = catalog.pricing_version
    with pytest.raises(ValueError, match=factor):
        catalog.reprice(**{factor: math.inf})
    assert [(t.storage_cost, t.read_cost, t.write_cost) for t in catalog] == before
    assert catalog.pricing_version == version


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize(
    "field, prefix",
    (
        ("horizon_months", "horizon_months must be positive"),
        ("compute_cost_per_s", "compute_cost_per_s must be non-negative"),
    ),
)
def test_engine_config_fields(field, prefix, value):
    """Unchecked, a NaN or infinite horizon ends in an InfeasibleError after
    six relaxed solves, which names the wrong cause."""
    with pytest.raises(ValueError, match=prefix):
        EngineConfig(**{field: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize(
    "field, prefix",
    (
        ("compute_cost_per_s", "compute cost must be non-negative"),
        ("duration_months", "duration must be positive"),
    ),
)
def test_cost_model_fields(field, prefix, value):
    with pytest.raises(ValueError, match=prefix):
        CostModel(azure_tier_catalog(), **{field: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("field", ("alpha", "beta", "gamma"))
def test_cost_weights(field, value):
    with pytest.raises(ValueError, match="cost weights must be non-negative"):
        CostWeights(**{field: value})


@pytest.mark.parametrize("value", NONFINITE)
def test_simulator_compute_cost(value):
    with pytest.raises(ValueError, match="compute cost must be non-negative"):
        CloudStorageSimulator(azure_tier_catalog(), compute_cost_per_s=value)
