"""A windowed fleet settles in one pass per window, not one per tenant.

``run_streams`` splits each merged window by tenant with one stable sort and
never selects one tenant at a time (``EventBatch.for_tenant``); the fleet
then settles every tenant in one :class:`~repro.engine.SettleBlock` pass,
and a lone engine's ``step_window`` goes through the same pass as a block of
one.  Calls are counted over pooled fleet runs (full and delta, periodic and
drift policies, count-triggered windows) in a child interpreter, as in
``test_columnar_fleet.py``, so the patched classes never leak into this one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from test_columnar_fleet import CASES, TENANTS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

COUNTING_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
from repro.cloud import EventBatch
from repro.engine import SettleBlock
from repro.fleet import FleetScheduler

calls = {{"for_tenant": 0, "step_window": 0, "passes": []}}
for_tenant = EventBatch.for_tenant
settle = SettleBlock.settle
step_window = FleetScheduler.step_window

def counted_for_tenant(self, tenant):
    calls["for_tenant"] += 1
    return for_tenant(self, tenant)

def counted_settle(self, *args, **kwargs):
    calls["passes"].append(len(self.engines))
    return settle(self, *args, **kwargs)

def counted_step_window(self, windows):
    calls["step_window"] += 1
    return step_window(self, windows)

EventBatch.for_tenant = counted_for_tenant
SettleBlock.settle = counted_settle
FleetScheduler.step_window = counted_step_window

import test_columnar_fleet as fleet

def take():
    taken = dict(calls)
    calls.update(for_tenant=0, step_window=0, passes=[])
    return taken

results = {{}}
for mode, policy in fleet.CASES:
    take()
    fleet.run_fleet(mode, policy)
    results[f"{{mode}}/{{policy}}"] = take()

from repro.cloud import multi_cloud_catalog
from repro.engine import OnlineTieringEngine, PeriodicReoptimize, TimeTrigger
from repro.workloads import PoissonZipfStream

partitions = fleet.tenant_partitions("solo")
engine = OnlineTieringEngine(partitions, multi_cloud_catalog(), PeriodicReoptimize(2))
report = engine.run_stream(
    PoissonZipfStream([p.name for p in partitions], 500.0, horizon_months=2.0, seed=3),
    TimeTrigger(0.25),
    horizon_months=2.0,
)
results["solo"] = dict(take(), windows=len(report.records))
print(json.dumps(results))
"""


def test_one_settle_pass_per_window():
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    results = json.loads(completed.stdout.strip().splitlines()[-1])
    solo = results.pop("solo")
    assert solo["windows"] == 8
    assert solo["passes"] == [1] * solo["windows"]
    assert set(results) == {f"{mode}/{policy}" for mode, policy in CASES}
    for case, counted in results.items():
        assert counted["step_window"] > 1, case
        assert counted["for_tenant"] == 0, case
        assert counted["passes"] == [len(TENANTS)] * counted["step_window"], case
