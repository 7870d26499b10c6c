"""A fleet plans each solving window in one pass, never one tenant at a time.

Over pooled fleet runs (full and delta, periodic and drift policies,
count-triggered windows) no tenant's ``build_problem`` or
``apply_assignment`` runs and ``StackedProblem.stack`` is never called: each
window that re-solves forecasts, stacks and applies once through a
:class:`~repro.engine.WindowPlan`, and a window with no firing tenant does
no plan work.  Calls are counted in a child interpreter, as in
``test_settle_pass.py``, so the patched classes never leak into this one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from test_columnar_fleet import CASES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

COUNTING_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
from repro.core.optassign import StackedProblem
from repro.engine import OnlineTieringEngine, SettleBlock, WindowPlan
from repro.fleet import FleetScheduler

calls = {{}}

def count(owner, name, static=False):
    original = owner.__dict__[name]
    function = original.__func__ if static else original
    key = f"{{owner.__name__}}.{{name}}"

    def counted(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return function(*args, **kwargs)

    setattr(owner, name, classmethod(counted) if static else counted)

count(OnlineTieringEngine, "build_problem")
count(OnlineTieringEngine, "apply_assignment")
count(StackedProblem, "stack", static=True)
for name in ("forecast", "stack", "apply"):
    count(WindowPlan, name)
count(SettleBlock, "forecast")

import test_columnar_fleet as fleet

windows = []
step_window = FleetScheduler.step_window

def counted_step_window(self, tenant_windows):
    before = dict(calls)
    step_window(self, tenant_windows)
    solving = self._pool_records[-1].num_reoptimized > 0
    windows.append((solving, {{k: v - before.get(k, 0) for k, v in calls.items()}}))

FleetScheduler.step_window = counted_step_window

results = {{}}
for mode, policy in [*fleet.CASES, ("full", "static")]:
    calls.clear()
    windows.clear()
    fleet.run_fleet(mode, policy)
    results[f"{{mode}}/{{policy}}"] = list(windows)
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
    assert set(results) == {f"{mode}/{policy}" for mode, policy in CASES} | {"full/static"}
    for case, windows in results.items():
        solving = [counted for is_solving, counted in windows if is_solving]
        assert solving, case
        for counted in solving:
            assert counted.get("OnlineTieringEngine.build_problem", 0) == 0, case
            assert counted.get("OnlineTieringEngine.apply_assignment", 0) == 0, case
            assert counted.get("StackedProblem.stack", 0) == 0, case
            for step in ("forecast", "stack", "apply"):
                assert counted[f"WindowPlan.{step}"] == 1, case
            assert counted["SettleBlock.forecast"] == 1, case  # one block
        for is_solving, counted in windows:
            if not is_solving:
                assert not any(counted.values()), case
    static = results["full/static"]
    assert [is_solving for is_solving, _ in static] == [True] + [False] * (len(static) - 1)
