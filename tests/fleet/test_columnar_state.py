"""A windowed fleet settles, forecasts and drift-scores on columns.

Each engine resolves its partitions to feature-store and forecaster rows
once, at construction.  After that the window path — settle, the feature
store, the forecaster, the policy's drift score and the problem build —
works on row-aligned columns and calls none of the name-keyed adapters:
``EventBatch.reads_by_partition``, ``FeatureStore.observe_counts``, the
forecaster's ``update`` and ``forecast_monthly``, or
``RateColumns.from_mapping``.  The calls are counted over pooled fleet runs
(full and delta, periodic, drift and static policies, count-triggered
windows with no ``DriftTrigger``) in a child interpreter, as in
``test_columnar_fleet.py``, so the patched classes never leak into this one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from test_columnar_fleet import TENANTS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
CASES = [
    (mode, policy)
    for mode in ("full", "delta")
    for policy in ("periodic", "drift", "static")
]
ADAPTERS = (
    "EventBatch.reads_by_partition",
    "FeatureStore.observe_counts",
    "WindowedAccessForecaster.update",
    "WindowedAccessForecaster.forecast_monthly",
    "RateColumns.from_mapping",
)

COUNTING_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
from repro.cloud import EventBatch
from repro.core.access_predict import WindowedAccessForecaster
from repro.engine import FeatureStore, RateColumns

counts = {{}}

def count(owner, name):
    label = f"{{owner.__name__}}.{{name}}"
    counts[label] = 0
    original = owner.__dict__[name]
    if isinstance(original, classmethod):
        function = original.__func__

        def counted(cls, *args, **kwargs):
            counts[label] += 1
            return function(cls, *args, **kwargs)

        setattr(owner, name, classmethod(counted))
    else:
        def counted(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        setattr(owner, name, counted)

count(EventBatch, "reads_by_partition")
count(FeatureStore, "observe_counts")
count(WindowedAccessForecaster, "update")
count(WindowedAccessForecaster, "forecast_monthly")
count(RateColumns, "from_mapping")

import test_columnar_fleet as fleet

results = {{}}
for mode, policy in {CASES!r}:
    before = dict(counts)
    reoptimized = fleet.run_fleet(mode, policy)
    results[f"{{mode}}/{{policy}}"] = [
        reoptimized, {{key: counts[key] - before[key] for key in counts}}
    ]
before = dict(counts)
EventBatch.empty().reads_by_partition()
FeatureStore().observe_counts(0, {{}})
forecaster = WindowedAccessForecaster()
forecaster.update(0, {{}})
forecaster.forecast_monthly([])
RateColumns.from_mapping((), {{}})
results["direct"] = [0, {{key: counts[key] - before[key] for key in counts}}]
print(json.dumps(results))
"""


def test_fleet_windows_call_no_name_keyed_adapter():
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    results = json.loads(completed.stdout.strip().splitlines()[-1])
    assert results.pop("direct")[1] == dict.fromkeys(ADAPTERS, 1)
    assert set(results) == {f"{mode}/{policy}" for mode, policy in CASES}
    for case, (reoptimized, counts) in results.items():
        if case.endswith("static"):
            assert reoptimized == len(TENANTS), case
        else:
            assert reoptimized > len(TENANTS), case
        assert counts == dict.fromkeys(ADAPTERS, 0), case
