"""The delta rows' same-run speedup gate in ``benchmarks/check_bench_regression.py``.

The wall-clock allowance (2x the committed time plus 50 ms) passes any 2x
regression of the 1.4-16.6 ms delta rows; the speedup check must not.  A
delta solve that got slower by a factor ``f`` while the full solve timed in
the same run did not divides the row's speedup by ``f``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
import check_bench_regression as gate  # noqa: E402

COMMITTED = json.loads((ROOT / "BENCH_optassign_delta.json").read_text())["rows"]


@pytest.fixture
def failures(monkeypatch):
    recorded: list[str] = []
    monkeypatch.setattr(gate, "_FAILURES", recorded)
    return recorded


@pytest.mark.parametrize("row", COMMITTED, ids=lambda row: f"{row['drift_fraction']:.0%}")
def test_a_2x_slower_delta_fails_and_a_1_3x_slower_one_passes(row, failures):
    slower = lambda factor: row["full_s"] / (row["delta_s"] * factor)  # noqa: E731
    gate._check_speedup("delta speedup", slower(1.3), row["speedup"])
    assert failures == []
    gate._check_speedup("delta speedup", slower(2.0), row["speedup"])
    assert len(failures) == 1
    # The wall-clock allowance alone would have let the 2x row through.
    gate._check_wall_clock("delta wall clock", 2.0 * row["delta_s"], row["delta_s"])
    assert len(failures) == 1
