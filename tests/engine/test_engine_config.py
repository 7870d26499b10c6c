"""``EngineConfig`` rejects the values no engine can run, when it is built.

A ``window_months`` that is not a whole number of at least 1 used to fail
inside numpy (``TypeError: 'float' object cannot be interpreted as an
integer``) once an engine sized its feature store; a ``forecast_alpha``
outside (0, 1] or a ``forecast_blend`` outside [0, 1] failed only when an
engine built its forecaster, after a fleet had compared the configs (where
a NaN in two config objects reads as a difference).  Every check is a
comparison that NaN fails.
"""

from __future__ import annotations

import math

import pytest

from repro.cloud import DataPartition, multi_cloud_catalog
from repro.engine import EngineConfig, OnlineTieringEngine, StaticOnce


@pytest.mark.parametrize("value", [2.5, 3.0, math.inf, -math.inf, math.nan, 0, -1, "3"])
def test_window_months_must_be_an_integer_of_at_least_one(value):
    with pytest.raises(ValueError, match=r"window_months must be an integer >= 1"):
        EngineConfig(window_months=value)


@pytest.mark.parametrize("value", [0.0, -0.1, 1.5, math.inf, -math.inf, math.nan])
def test_forecast_alpha_must_be_in_the_unit_interval_open_at_zero(value):
    with pytest.raises(ValueError, match=r"forecast_alpha must be in \(0, 1\]"):
        EngineConfig(forecast_alpha=value)


@pytest.mark.parametrize("value", [-0.1, 1.5, math.inf, -math.inf, math.nan])
def test_forecast_blend_must_be_in_the_unit_interval(value):
    with pytest.raises(ValueError, match=r"forecast_blend must be in \[0, 1\]"):
        EngineConfig(forecast_blend=value)


@pytest.mark.parametrize(
    "config",
    [
        {"window_months": 1},
        {"window_months": 12},
        {"forecast_alpha": 1.0},
        {"forecast_alpha": 1e-9},
        {"forecast_blend": 0.0},
        {"forecast_blend": 1.0},
    ],
)
def test_edge_values_build_an_engine(config):
    engine = OnlineTieringEngine(
        [DataPartition("p", size_gb=1.0, predicted_accesses=2.0)],
        multi_cloud_catalog(),
        StaticOnce(),
        config=EngineConfig(**config),
    )
    assert engine.feature_store.window_months == engine.config.window_months
    assert engine.forecaster.alpha == engine.config.forecast_alpha
    assert engine.forecaster.blend == engine.config.forecast_blend
