#!/usr/bin/env python3
"""End-to-end fleet streaming benchmark: stream -> window -> forecast -> solve
-> migrate -> settle, measured end to end and layer by layer.

Run from the repository root:

    python3 e2ebench/run.py --workload fleet-steady --seed 0 --seconds 25 --trace 0

One invocation runs one workload (see ``fleet_workloads.WORKLOADS``) as a
closed loop in virtual time: ``FleetScheduler.run_streams`` processes the
next window only after the previous one has settled, in one process, with no
thread pool and no sharding.  A *pass* sets up a fresh fleet and replays the
whole 12-month stream once.  Passes repeat while a typical one still ends
within ``--seconds`` of wall clock (at least ``MIN_PASSES`` of them), and each
metric summarises its per-pass values (see ``end_to_end`` and ``per_layer``).
End-to-end timings are rescaled to a nominal machine speed with a reference
kernel timed through every pass (see ``speed``).

``--trace 0`` reports the end-to-end metrics from untraced passes.  The
window stopwatch wraps the public ``FleetScheduler.step_window`` from outside
(an instance attribute), so it times a window from its close to placements
applied and the window billed.  ``--trace 1`` reports per-layer metrics:
each round runs an untraced pass, a plain generate pass and a plain
windowing pass over the same streams, then a pass under the ``repro.obs``
tracer.

Every pass is checked: events generated == events windowed == accesses
billed, the bill repeats bit for bit across passes (traced passes included),
pool budgets hold, and for seeds in ``goldens.json`` the bill, event count
and window count equal the recorded ones.  Every metric is printed as
``workload metric value unit``; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when a
check failed and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"
MIN_PASSES = 2
BILL_RTOL = 1e-9


@dataclass
class Window:
    """One timed ``step_window`` call."""

    start_month: float
    cause: str
    events: int
    latency_s: float = 0.0
    ended_s: float = 0.0
    #: Time spent timing the reference kernel just before this window,
    #: inside ``run_streams`` but not part of it.
    paused_s: float = 0.0
    failed: bool = True


@dataclass
class Pass:
    """One set-up plus one full ``run_streams`` replay.

    Only the streams and the report outlive the pass; the fleet itself is
    dropped so that later passes neither carry its memory nor pay for it in
    garbage collection.
    """

    streams: dict
    setup_s: float
    setup_at_s: float
    speed: Speedometer
    windows: list[Window] = field(default_factory=list)
    began_s: float = 0.0
    ended_s: float = 0.0
    report: object = None
    error: str | None = None
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Wall time of ``run_streams``, without the reference kernel."""
        paused_s = sum(window.paused_s for window in self.windows)
        return self.ended_s - self.began_s - paused_s

    @property
    def step_s(self) -> float:
        return sum(window.latency_s for window in self.windows)

    @property
    def bill(self) -> float:
        return self.report.total_bill


def degraded_actions(chaos) -> int:
    """Degradation rungs taken so far, as ``DegradationReport.degraded``
    counts them (a forced evacuation alone honours every constraint)."""
    if chaos is None:
        return 0
    return sum(
        1
        for report in chaos.reports
        for action in report.actions
        if action.kind != "forced_evacuation"
    )


def run_pass(workload, seed: int, traced: bool = False) -> Pass:
    """Set up a fresh fleet and replay the workload's streams through it,
    timing the reference kernel around set-up and now and then between
    windows."""
    from repro import obs

    import fleet_workloads
    from layer_profile import counter_totals

    gc.collect()  # start every pass from the same heap, outside the clocks
    speed = Speedometer()
    speed.sample()
    began = time.perf_counter()
    fleet = fleet_workloads.build(workload, seed)
    trigger = fleet.trigger()
    setup_s = time.perf_counter() - began
    speed.sample()
    result = Pass(
        streams=fleet.streams,
        setup_s=setup_s,
        setup_at_s=began + setup_s / 2,
        speed=speed,
    )

    scheduler = fleet.scheduler
    step_window = scheduler.step_window

    def timed_step_window(tenant_windows):
        first = next(iter(tenant_windows.values()))
        window = Window(first.start_month, first.cause, 0)
        result.windows.append(window)
        if speed.due(time.perf_counter()):
            window.paused_s = speed.sample()
        degraded = degraded_actions(fleet.chaos)
        begun = time.perf_counter()
        step_window(tenant_windows)
        window.ended_s = time.perf_counter()
        window.latency_s = window.ended_s - begun
        window.failed = degraded_actions(fleet.chaos) > degraded
        # A tenant leaving at this window's start is dropped unsettled, so
        # only the tenants still in the fleet had their events windowed.
        window.events = sum(
            len(w.events)
            for name, w in tenant_windows.items()
            if name in scheduler.engines
        )

    scheduler.step_window = timed_step_window
    handle = obs.enable() if traced else None
    result.began_s = time.perf_counter()
    try:
        result.report = scheduler.run_streams(
            fleet.streams, trigger, horizon_months=fleet_workloads.HORIZON_MONTHS
        )
    except Exception:  # a raising window fails the pass; reported by the checks
        result.error = traceback.format_exc()
    finally:
        result.ended_s = time.perf_counter()
        if handle is not None:
            result.spans = handle.tracer.records()
            result.counters = counter_totals(handle.metrics)
            obs.disable()
    return result


def stream_pass_s(streams: dict, windowed_by=None) -> float:
    """Wall time of one pass over the merged tenant streams, cut into windows
    by ``windowed_by`` when given, with nothing downstream."""
    from repro.engine import windowed
    from repro.workloads import merge_streams

    from fleet_workloads import HORIZON_MONTHS

    gc.collect()
    began = time.perf_counter()
    merged = merge_streams(*streams.values())
    if windowed_by is not None:
        merged = windowed(merged, windowed_by, horizon_months=HORIZON_MONTHS)
    for _ in merged:
        pass
    return time.perf_counter() - began


def generated_events(reference: Pass) -> int:
    """Events the streams generate while their tenant is in the fleet.

    A tenant that leaves mid-run (storm) stops being windowed at the start of
    the first window it misses, which is where its last record ends.
    """
    total = 0
    for name, stream in reference.streams.items():
        records = reference.report.tenant_reports[name].records
        cutoff = records[-1].end_month if records else 0.0
        total += sum(1 for event in stream if event.t < cutoff)
    return total


def records_of(report) -> list:
    return [r for tenant in report.tenant_reports.values() for r in tenant.records]


class Checks:
    """Collects correctness failures; the run is correct when none fired."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)


def check_passes(checks: Checks, passes: list[Pass], golden: dict | None) -> int:
    """Check every pass on its own and against the first good pass; returns
    the number of events generated."""
    for index, result in enumerate(passes):
        checks.expect(result.error is None, f"pass {index} raised:\n{result.error}")
    good = [result for result in passes if result.error is None]
    if not good:
        return 0
    reference = good[0]
    generated = generated_events(reference)
    for index, result in enumerate(good):
        windowed_events = sum(window.events for window in result.windows)
        billed = sum(record.access_count for record in records_of(result.report))
        checks.expect(
            generated == windowed_events == billed,
            f"pass {index}: events generated {generated}, windowed "
            f"{windowed_events} and billed {billed} differ",
        )
        checks.expect(
            result.bill == reference.bill,
            f"pass {index}{' (traced)' if result.spans else ''}: bill "
            f"{result.bill!r} != first pass {reference.bill!r}",
        )
        checks.expect(
            len(result.windows) == len(reference.windows),
            f"pass {index}: {len(result.windows)} windows, first pass "
            f"{len(reference.windows)}",
        )
        for window, usage in zip(result.windows, result.report.pool_usage):
            # A pool shock can shrink a budget below the standing placements;
            # only a window that solved (and did not degrade) must fit.
            if window.failed or not usage.num_reoptimized:
                continue
            for pool, used in usage.used_gb.items():
                budget = usage.capacity_gb[pool]
                checks.expect(
                    used <= budget * (1 + BILL_RTOL),
                    f"pass {index} window {usage.epoch}: pool {pool} holds "
                    f"{used:.3f} GB over its {budget:.3f} GB budget",
                )
    if golden is not None:
        checks.expect(
            abs(reference.bill - golden["bill_cents"])
            <= BILL_RTOL * abs(golden["bill_cents"]),
            f"bill {reference.bill!r} != golden {golden['bill_cents']!r}",
        )
        checks.expect(
            generated == golden["events"],
            f"events generated {generated} != golden {golden['events']}",
        )
        checks.expect(
            len(reference.windows) == golden["windows"],
            f"windows {len(reference.windows)} != golden {golden['windows']}",
        )
    return generated


def rescaled_times(result: Pass):
    """Per window of the pass, rescaled to the nominal machine speed: its
    ``step_window`` latency, and its gap, the wall time from the window
    before it settling (or ``run_streams`` starting) to it settling.  The
    gaps end with the tail of ``run_streams`` after the last window."""
    import numpy as np

    windows = result.windows
    ends = np.array([result.began_s] + [w.ended_s for w in windows] + [result.ended_s])
    latency = np.array([w.latency_s for w in windows])
    gaps = np.diff(ends) - np.array([w.paused_s for w in windows] + [0.0])
    return (
        latency * result.speed.scale(ends[1:-1] - latency / 2),
        gaps * result.speed.scale((ends[:-1] + ends[1:]) / 2),
    )


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """End-to-end metrics: per window, the median over passes of its
    rescaled times.

    Every pass replays the same windows with the same work and the same bill
    (the checks hold it to that), so window ``i`` of one pass is a repeat of
    window ``i`` of every other.  Latency percentiles are over the windows
    after warm-up.  Throughput is their events (or windows) over the sum of
    their gaps, which covers generating, merging and windowing their events
    too, plus the tail of ``run_streams``.  Set-up time is the median of one
    rescaled set-up per pass.
    """
    import numpy as np

    from fleet_workloads import WARMUP_MONTHS

    warm = [
        index
        for index, window in enumerate(passes[0].windows)
        if window.start_month >= WARMUP_MONTHS
    ]
    latency_s, gaps_s = (np.array(times) for times in zip(*map(rescaled_times, passes)))
    latency_ms = 1e3 * np.median(latency_s[:, warm], axis=0)
    post_wall_s = float(np.sum(np.median(gaps_s[:, warm + [-1]], axis=0)))
    p50, p90 = np.percentile(latency_ms, [50, 90])
    metrics = {
        "events_per_s": sum(passes[0].windows[i].events for i in warm) / post_wall_s,
        "windows_per_s": len(warm) / post_wall_s,
        "window_p50_ms": float(p50),
        "window_p90_ms": float(p90),
    }
    metrics["setup_s"] = statistics.median(
        result.setup_s * float(result.speed.scale(result.setup_at_s))
        for result in passes
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(rounds: list[tuple[Pass, float, float, Pass]], workload) -> dict:
    """Median over rounds of each per-layer metric.

    A round is ``(untraced pass, generate s, windowed s, traced pass)``.
    """
    from layer_profile import CLOSE_CAUSES, span_profile

    per_round: dict[str, list[float]] = {}
    for untraced, generate_s, windowed_s, traced in rounds:
        values = span_profile(traced.spans)
        spans_self_s = values.pop("spans.self_s")
        run_streams_self_s = untraced.wall_s - untraced.step_s - windowed_s
        values["streams.generate.self_s"] = generate_s
        values["events.windowed.self_s"] = windowed_s - generate_s
        values["fleet.run_streams.self_s"] = run_streams_self_s
        values["obs.trace_overhead_ratio"] = traced.wall_s / untraced.wall_s
        # Share of the traced wall explained by span self times plus the
        # stream layers timed from outside; the rest is untraced code
        # inside step_window.
        values["obs.accounted_share"] = (
            spans_self_s + windowed_s + run_streams_self_s
        ) / traced.wall_s
        firing = sum(usage.num_reoptimized for usage in traced.report.pool_usage)
        values["fleet.firing_tenants"] = firing
        values["fleet.rows_built"] = firing * workload.partitions
        values["optassign.rows_priced"] = sum(
            span.attrs.get("partitions", 0)
            for span in traced.spans
            if span.name == "optassign.batch_tensors"
        )
        values.update(traced.counters)
        for cause in CLOSE_CAUSES:
            values[f"events.closes.{cause}"] = sum(
                1 for window in traced.windows if window.cause == cause
            )
        for name, value in values.items():
            per_round.setdefault(name, []).append(float(value))
    return {name: statistics.median(values) for name, values in per_round.items()}


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics BENCHMARK.json declares for the mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def parse_args(argv: list[str] | None):
    from fleet_workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="End-to-end fleet streaming benchmark (one workload per run)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=25.0, help="wall clock to keep passing for"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny fleet shapes, no golden check"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"cannot find the program under test: {SRC / 'repro'} is missing; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from fleet_workloads import WARMUP_MONTHS, WORKLOADS, cadence

    args = parse_args(argv)
    workload = WORKLOADS[args.workload].scaled(args.quick)
    deadline = time.perf_counter() + args.seconds

    passes: list[Pass] = []
    rounds: list[tuple[Pass, float, float, Pass]] = []
    cycles_s: list[float] = []
    while True:
        began = time.perf_counter()
        if args.trace:
            untraced = run_pass(workload, args.seed)
            passes.append(untraced)
            if untraced.error is None:
                generate_s = stream_pass_s(untraced.streams)
                windowed_s = stream_pass_s(untraced.streams, cadence(workload))
                traced = run_pass(workload, args.seed, traced=True)
                passes.append(traced)
                if traced.error is None:
                    rounds.append((untraced, generate_s, windowed_s, traced))
        else:
            passes.append(run_pass(workload, args.seed))
        now = time.perf_counter()
        cycles_s.append(now - began)
        if passes[-1].error is not None:
            break
        # Start another cycle only when a typical one still ends in time, so
        # a run lasts --seconds however long a pass takes on this machine.
        if len(passes) >= MIN_PASSES and now + statistics.median(cycles_s) > deadline:
            break

    golden = None
    if not args.quick and GOLDENS.is_file():
        golden = json.loads(GOLDENS.read_text()).get(args.workload, {}).get(str(args.seed))
    checks = Checks()
    generated = check_passes(checks, passes, golden)

    attempted = sum(len(result.windows) for result in passes)
    failed = sum(
        sum(1 for window in result.windows if window.failed) for result in passes
    )
    declared = declared_metrics(bool(args.trace))
    metrics: dict[str, dict] = {}
    if not checks.failures:
        measured = per_layer(rounds, workload) if args.trace else end_to_end(passes)
        missing = sorted(set(declared) - set(measured))
        checks.expect(not missing, f"metrics not measured: {missing}")
        for name, unit in declared.items():
            if name in measured:
                metrics[name] = {"value": measured[name], "unit": unit}
                print(f"{args.workload} {name} {measured[name]:.6g} {unit}")
        reference = passes[0]
        records = records_of(reference.report)
        warm = sum(w.start_month >= WARMUP_MONTHS for w in reference.windows)
        for name, value, unit in (
            ("passes", len(passes), "count"),
            (
                "reference_kernel_ms",
                statistics.median(result.speed.median_ms() for result in passes),
                "ms",
            ),
            ("events", generated, "count"),
            ("windows", len(reference.windows), "count"),
            ("post_warmup_windows", warm, "count"),
            ("bill_cents", reference.bill, "cents"),
            (
                "latency_violation_share",
                sum(r.latency_violations for r in records)
                / max(1, sum(r.access_count for r in records)),
                "fraction",
            ),
            ("failed_window_share", failed / max(1, attempted), "fraction"),
        ):
            print(f"{args.workload} {name} {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
