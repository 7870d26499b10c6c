"""The summary and verdicts of ``tools/ab_e2ebench.py``.

A gain needs at least ten pairs, nine tenths of them won (ties count for
neither), a median gap wider than the base's interquartile range, and no
larger share of failed windows; each condition alone withholds it.  The
bound verdict reads the head's median against the base's, and calls a
spread wider than the bound unresolved unless every head run is better.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))
import ab_e2ebench as ab  # noqa: E402

BETTER = {"p50": "lower", "rate": "higher"}


def pairs(base, head, name="p50", base_failed=0, head_failed=0):
    return [
        {
            "first": "base" if k % 2 == 0 else "head",
            "base": {"metrics": {name: b}, "attempted": 100, "failed": base_failed},
            "head": {"metrics": {name: h}, "attempted": 100, "failed": head_failed},
        }
        for k, (b, h) in enumerate(zip(base, head))
    ]


def summary(base, head, name="p50", bounds=(), **failed):
    return ab.summarise(pairs(base, head, name, **failed), BETTER, dict(bounds))


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


class TestGainRule:
    def test_clear_gain(self):
        sides, metrics = summary(BASE, [x * 0.8 for x in BASE])
        entry = metrics["p50"]
        assert (entry["wins"], entry["losses"], entry["ties"]) == (10, 0, 0)
        assert entry["verdict"] == "gain"
        assert entry["ratio"] == pytest.approx(0.8)
        assert sides["base"]["p50"]["median"] == pytest.approx(1.0)
        assert sides["base"]["p50"]["q1"] < 1.0 < sides["base"]["p50"]["q3"]

    def test_higher_is_better(self):
        _, metrics = summary(BASE, [x * 1.2 for x in BASE], name="rate")
        assert metrics["rate"]["verdict"] == "gain"
        _, metrics = summary(BASE, [x * 0.8 for x in BASE], name="rate")
        assert metrics["rate"]["wins"] == 0
        assert metrics["rate"]["verdict"] == "no gain"

    def test_nine_of_ten_wins_is_enough_and_eight_is_not(self):
        head = [x * 0.8 for x in BASE]
        head[0] = 2.0
        assert summary(BASE, head)[1]["p50"]["verdict"] == "gain"
        head[1] = 2.0
        entry = summary(BASE, head)[1]["p50"]
        assert (entry["wins"], entry["losses"]) == (8, 2)
        assert entry["verdict"] == "no gain"

    def test_ties_count_for_neither(self):
        head = [x * 0.8 for x in BASE]
        head[0] = BASE[0]
        entry = summary(BASE, head)[1]["p50"]
        assert (entry["wins"], entry["losses"], entry["ties"]) == (9, 0, 1)
        assert entry["verdict"] == "gain"
        head[1] = BASE[1]
        assert summary(BASE, head)[1]["p50"]["verdict"] == "no gain"

    def test_a_gap_inside_the_base_spread_is_no_gain(self):
        # The head wins every pair, by less than the base's quartile spread.
        entry = summary(BASE, [x - 0.005 for x in BASE])[1]["p50"]
        assert entry["wins"] == 10
        assert entry["verdict"] == "no gain"

    def test_fewer_than_ten_pairs_is_no_gain(self):
        entry = summary(BASE[:9], [x * 0.5 for x in BASE[:9]])[1]["p50"]
        assert entry["wins"] == 9
        assert entry["verdict"] == "no gain"

    def test_more_failed_windows_is_no_gain(self):
        head = [x * 0.5 for x in BASE]
        assert summary(BASE, head, head_failed=1)[1]["p50"]["verdict"] == "no gain"
        _, metrics = summary(BASE, head, base_failed=1, head_failed=1)
        assert metrics["p50"]["verdict"] == "gain"


class TestBoundVerdict:
    BOUND = {"p50": 0.25}

    def verdict(self, base, head):
        return summary(base, head, bounds=self.BOUND)[1]["p50"]["bound_verdict"]

    def test_within_and_worse(self):
        assert self.verdict(BASE, [x * 1.2 for x in BASE]) == "within bound"
        assert self.verdict(BASE, [x * 1.3 for x in BASE]) == "worse than bound"

    def test_a_wide_spread_is_unresolved_unless_the_head_is_better_in_every_run(self):
        wide = [1.0, 0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2]
        assert self.verdict(wide, wide[::-1]) == "unresolved"
        assert self.verdict(wide, [0.1] * 10) == "within bound"

    def test_no_bound_without_a_declared_bound(self):
        assert "bound_verdict" not in summary(BASE, BASE)[1]["p50"]


def test_one_pair_summarises():
    sides, metrics = summary([1.0], [0.5])
    assert sides["head"]["p50"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    assert metrics["p50"]["verdict"] == "no gain"


def test_self_test_compares_head_with_itself_on_the_quick_shapes():
    args = ab.parse_args(["--self-test", "--workload", "firehose", "--base", "x"])
    assert (args.base, args.head, args.seconds) == ("HEAD", "HEAD", 0.0)
    assert args.pairs == ab.SELF_TEST_PAIRS >= ab.MIN_PAIRS
    assert "--quick" in ab.run_argv(args)
    with pytest.raises(SystemExit):
        ab.parse_args(["--workload", "firehose"])


def test_only_the_self_test_runs_the_quick_shapes():
    args = ab.parse_args(["--base", "HEAD~1", "--workload", "firehose", "--seed", "57"])
    assert ab.run_argv(args) == [
        "--workload", "firehose", "--seed", "57", "--seconds", "25.0", "--trace", "0"
    ]  # fmt: skip
    with pytest.raises(SystemExit):
        ab.parse_args(["--base", "HEAD~1", "--workload", "firehose", "--quick"])


def test_cores_available_without_an_affinity_call(monkeypatch):
    assert ab.cores_available() >= 1
    monkeypatch.delattr(ab.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ab.os, "cpu_count", lambda: 3)
    assert ab.cores_available() == 3
