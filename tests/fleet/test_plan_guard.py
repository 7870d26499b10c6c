"""Every re-optimization plans and solves in one pass, never one tenant at
a time.

Over pooled fleet runs (full and delta, periodic and drift policies,
count-triggered windows) no tenant engine re-optimizes on its own: each
window that re-solves forecasts, stacks, solves (``solve_stacked``) and
applies once through a :class:`~repro.engine.WindowPlan`, and a window with
no firing tenant does no plan work.  A lone engine over the same kind of
windows plans the same way: each window that re-solves runs one
``_reoptimize`` — one forecast, one stack, one ``solve_stacked`` and one
apply of its one-member plan — and a quiet window none.  (The per-tenant
stack is an oracle under ``tests/oracles/``, which the library cannot
import: ``tools/check_banned_patterns.py``.)  Calls are counted in a child
interpreter, as in ``test_settle_pass.py``, so the patched classes never
leak into this one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cloud import multi_cloud_catalog
from repro.engine import (
    CountTrigger,
    DriftTriggered,
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    StaticOnce,
)
from repro.workloads import PoissonZipfStream
from test_columnar_fleet import CASES, MONTHS, tenant_partitions

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def run_alone(reopt_mode: str, policy: str) -> None:
    """One engine over count-triggered windows of its own stream."""
    partitions = tenant_partitions("solo")
    engine = OnlineTieringEngine(
        partitions,
        multi_cloud_catalog(),
        {
            "periodic": lambda: PeriodicReoptimize(period_months=1),
            "drift": lambda: DriftTriggered(threshold=0.05),
            "static": StaticOnce,
        }[policy](),
        EngineConfig(horizon_months=3.0, window_months=3, reopt_mode=reopt_mode),
    )
    stream = PoissonZipfStream(
        [p.name for p in partitions], rate_per_month=500.0, horizon_months=MONTHS, seed=0
    )
    engine.run_stream(stream, CountTrigger(100), horizon_months=MONTHS)


COUNTING_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
import repro.engine.engine as engine_module
import repro.fleet.scheduler as scheduler_module
from repro.engine import OnlineTieringEngine, SettleBlock, WindowPlan
from repro.fleet import FleetScheduler

calls = {{}}

def count(owner, name, key=None):
    function = getattr(owner, name)
    key = key or f"{{owner.__name__}}.{{name}}"

    def counted(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return function(*args, **kwargs)

    setattr(owner, name, counted)

count(OnlineTieringEngine, "_reoptimize")
# The one solve, as each host module binds it.
count(engine_module, "solve_stacked", "solve_stacked")
count(scheduler_module, "solve_stacked", "solve_stacked")
for name in ("forecast", "stack", "apply"):
    count(WindowPlan, name)
count(SettleBlock, "forecast")

import test_columnar_fleet as fleet
import test_plan_guard as guard

windows = []

def counting(step, solved):
    def counted_step(self, window):
        before = dict(calls)
        record = step(self, window)
        counted = {{k: v - before.get(k, 0) for k, v in calls.items()}}
        windows.append((solved(self, record), counted))
        return record
    return counted_step

FleetScheduler.step_window = counting(
    FleetScheduler.step_window,
    lambda scheduler, _: scheduler._pool_records[-1].num_reoptimized > 0,
)
OnlineTieringEngine.step_window = counting(
    OnlineTieringEngine.step_window, lambda _, record: record.reoptimized
)

results = {{}}
for mode, policy in [*fleet.CASES, ("full", "static")]:
    for host, run in (("fleet", fleet.run_fleet), ("alone", guard.run_alone)):
        calls.clear()
        windows.clear()
        run(mode, policy)
        results[f"{{host}}/{{mode}}/{{policy}}"] = list(windows)
print(json.dumps(results))
"""


def test_one_plan_pass_per_solving_window():
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    results = json.loads(completed.stdout.strip().splitlines()[-1])
    cases = [*CASES, ("full", "static")]
    assert set(results) == {
        f"{host}/{mode}/{policy}" for host in ("fleet", "alone") for mode, policy in cases
    }
    for case, windows in results.items():
        alone = case.startswith("alone/")
        solving = [counted for is_solving, counted in windows if is_solving]
        assert solving, case
        for counted in solving:
            assert counted.get("OnlineTieringEngine._reoptimize", 0) == int(alone), case
            assert counted["solve_stacked"] == 1, case
            for step in ("forecast", "stack", "apply"):
                assert counted[f"WindowPlan.{step}"] == 1, case
            assert counted["SettleBlock.forecast"] == 1, case  # one block
        for is_solving, counted in windows:
            if not is_solving:
                assert not any(counted.values()), case
    for host in ("fleet", "alone"):
        static = results[f"{host}/full/static"]
        assert [is_solving for is_solving, _ in static] == [True] + [False] * (
            len(static) - 1
        )
