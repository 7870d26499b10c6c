"""Fast checks of the end-to-end benchmark on its ``--quick`` shapes."""

from __future__ import annotations

import json
import re

import pytest

import fleet_workloads
import run
from layer_profile import self_times, span_profile
from repro.obs import SpanRecord
from speed import REFERENCE_S, Speedometer

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def spec():
    return json.loads(run.BENCHMARK_JSON.read_text())


def run_quick(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--quick", "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_spec_names_and_sizes(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(fleet_workloads.WORKLOADS)
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = workloads + [m["name"] for m in metrics]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_declared_metric(capsys, spec, trace):
    code, lines, result = run_quick(capsys, "storm", trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert f"storm {metric['name']} {value['value']:.6g} {metric['unit']}" in lines


def test_rescaling_follows_the_kernel_but_not_one_outlier():
    speed = Speedometer()
    speed.at_s = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    speed.took_s = [REFERENCE_S * slowdown for slowdown in (1, 1, 1, 30, 2, 2, 2)]
    # Twice as slow from t=4 on; the lone 30x sample at t=3 reads as 2x.
    assert speed.scale([0.5, 3.0, 5.0]) == pytest.approx([1.0, 0.5, 0.5])

    speed = Speedometer()
    paused_s = speed.sample()
    assert len(speed.took_s) == 1 and 0 < speed.took_s[0] < paused_s
    assert speed.due(speed.at_s[0] + 1.0) and not speed.due(speed.at_s[0])


def test_checks_catch_lost_events_and_changed_bills():
    workload = fleet_workloads.WORKLOADS["fleet-delta-count"].scaled(True)
    untraced = run.run_pass(workload, seed=3)
    traced = run.run_pass(workload, seed=3, traced=True)
    checks = run.Checks()
    run.check_passes(checks, [untraced, traced], golden=None)
    assert checks.failures == []
    assert traced.bill == untraced.bill

    untraced.windows[5].events += 1
    run.check_passes(checks, [untraced, traced], golden=None)
    assert any("events generated" in failure for failure in checks.failures)

    checks = run.Checks()
    golden = {
        "bill_cents": untraced.bill * (1 + 1e-6),
        "events": run.generated_events(untraced),
        "windows": len(untraced.windows),
    }
    run.check_passes(checks, [traced], golden=golden)
    assert len(checks.failures) == 1 and "golden" in checks.failures[0]


def test_self_time_plus_children_is_total():
    spans = [
        SpanRecord(0, None, "fleet.window", 0.0, 1.0),
        SpanRecord(1, 0, "fleet.solve", 0.1, 0.5),
        SpanRecord(2, 1, "optassign.solve", 0.2, 0.3),
        SpanRecord(3, 0, "fleet.settle", 0.7, 0.25),
    ]
    assert self_times(spans) == pytest.approx({0: 0.25, 1: 0.2, 2: 0.3, 3: 0.25})
    profile = span_profile(spans)
    assert profile["fleet.window.self_s"] == pytest.approx(0.25)
    assert profile["spans.self_s"] == pytest.approx(1.0)

    workload = fleet_workloads.WORKLOADS["storm"].scaled(True)
    traced = run.run_pass(workload, seed=1, traced=True)
    own = self_times(traced.spans)
    children: dict[int, float] = {}
    for span in traced.spans:
        if span.parent_id is not None:
            children[span.parent_id] = children.get(span.parent_id, 0.0) + span.duration_s
    for span in traced.spans:
        assert own[span.span_id] + children.get(span.span_id, 0.0) == pytest.approx(
            span.duration_s, abs=1e-6
        )
        # Without a thread pool children never overlap, so no self time is
        # negative: the spans nest as a tree.
        assert own[span.span_id] >= -1e-6
