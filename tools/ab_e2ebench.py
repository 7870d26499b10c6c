#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two revisions of the repository.

Run from anywhere inside the repository:

    python3 tools/ab_e2ebench.py --base HEAD~1 --workload firehose --seed 57 \\
        --pairs 10 --seconds 25 --out ab.json

Each side is checked out with ``git worktree add --detach`` into one
temporary directory, removed with its worktrees afterwards, so each side runs
the committed ``src/`` and ``e2ebench/`` of its own revision.  A pair runs
``e2ebench/run.py`` once per side with the same arguments; the base runs first
in even pairs and the head in odd ones, so a drift in the machine's speed
falls on both sides alike.  A run whose checks fail stops the tool (exit 1).

The JSON (written to ``--out``, else to stdout) holds:

* ``pairs``: which side ran first and, per side, every metric the run
  printed, its ``attempted`` and ``failed`` windows, its ``passes`` and
  ``peak_rss_mb_per_pass`` (peak RSS follows the pass count, which a faster
  loop raises);
* ``sides``: per side and metric, the median and quartiles over the pairs;
* ``metrics``: per metric, the head's wins, losses and ties (ties count for
  neither), the ratio of the head's median to the base's, and two verdicts.
  ``verdict`` is ``"gain"`` when at least :data:`MIN_PAIRS` pairs ran, the
  head won at least nine tenths of them, its median beats the base's by more
  than the base's interquartile range, and no larger share of its windows
  failed; it is ``"no gain"`` otherwise.  ``bound_verdict`` (the end-to-end
  metrics ``BENCHMARK.json`` bounds) is ``"within bound"`` when the head's
  median is no worse than the base's by more than the bound,
  ``"worse than bound"`` when it is, and ``"unresolved"`` when either side's
  interquartile range is wider than the bound, unless every head run beats
  every base run.

``--self-test`` runs ``HEAD`` against itself on e2ebench's ``--quick``
shapes (:data:`SELF_TEST_PAIRS` pairs of ``--seconds 0`` runs) and exits 1
if any metric is called a gain.  Only the self-test runs the quick shapes: a
gain verdict is read on the benchmark's own run length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
MIN_PAIRS = 10
SELF_TEST_PAIRS = 20


def git(*args: str, check: bool = True) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=check, capture_output=True, text=True
    ).stdout.strip()


@contextmanager
def checkouts(commits: Mapping[str, str]) -> Iterator[dict[str, Path]]:
    """One detached worktree per side, removed on exit."""
    root = Path(tempfile.mkdtemp(prefix="ab_e2ebench-"))
    trees: dict[str, Path] = {}
    try:
        for side, commit in commits.items():
            git("worktree", "add", "--detach", str(root / side), commit)
            trees[side] = root / side
        yield trees
    finally:
        for tree in trees.values():
            git("worktree", "remove", "--force", str(tree), check=False)
        shutil.rmtree(root, ignore_errors=True)
        git("worktree", "prune", check=False)


def run_side(tree: Path, argv: Sequence[str], workload: str) -> dict:
    """One ``e2ebench/run.py`` run in ``tree``: its metrics, window counts
    and passes."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", *argv],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"e2ebench/run.py {' '.join(argv)} failed in {tree.name} "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    prefix = f"{workload} passes "
    passes = next(int(line.split()[2]) for line in lines if line.startswith(prefix))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if "peak_rss_mb" in metrics:
        metrics["peak_rss_mb_per_pass"] = metrics["peak_rss_mb"] / passes
    return {
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": passes,
    }


def quartiles(values: Sequence[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(
    pairs: Sequence[Mapping], better: Mapping[str, str], bounds: Mapping[str, float]
) -> tuple[dict, dict]:
    """Per side and metric, the median and quartiles; per metric, the
    head's wins and the two verdicts (see the module docstring).
    ``better[name]`` is ``"lower"`` or ``"higher"`` (``"lower"`` when
    absent)."""
    names = list(pairs[0]["base"]["metrics"])
    values = {
        side: {name: [pair[side]["metrics"][name] for pair in pairs] for name in names}
        for side in SIDES
    }
    sides = {
        side: {name: quartiles(values[side][name]) for name in names} for side in SIDES
    }
    failed_share = {
        side: sum(pair[side]["failed"] for pair in pairs)
        / max(1, sum(pair[side]["attempted"] for pair in pairs))
        for side in SIDES
    }
    metrics = {}
    for name in names:
        # sign * (head - base) < 0 when the head is better.
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        base, head = values["base"][name], values["head"][name]
        deltas = [sign * (h - b) for b, h in zip(base, head)]
        wins = sum(delta < 0 for delta in deltas)
        losses = sum(delta > 0 for delta in deltas)
        b, h = sides["base"][name], sides["head"][name]
        gap = sign * (b["median"] - h["median"])
        base_iqr = b["q3"] - b["q1"]
        gain = (
            len(pairs) >= MIN_PAIRS
            and wins * 10 >= 9 * len(pairs)
            and gap > base_iqr
            and failed_share["head"] <= failed_share["base"]
        )
        entry = {
            "better": better.get(name, "lower"),
            "wins": wins,
            "losses": losses,
            "ties": len(pairs) - wins - losses,
            "ratio": h["median"] / b["median"] if b["median"] else None,
            "base_iqr": base_iqr,
            "verdict": "gain" if gain else "no gain",
        }
        if name in bounds and b["median"]:
            bound = bounds[name]
            scale = abs(b["median"])
            spread = max(base_iqr, h["q3"] - h["q1"]) / scale
            if max(sign * x for x in head) < min(sign * x for x in base):
                entry["bound_verdict"] = "within bound"
            elif spread > bound:
                entry["bound_verdict"] = "unresolved"
            elif -gap / scale > bound:
                entry["bound_verdict"] = "worse than bound"
            else:
                entry["bound_verdict"] = "within bound"
            entry["bound"] = bound
        metrics[name] = entry
    return sides, metrics


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="where to write the JSON")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help=f"HEAD against HEAD, --quick --seconds 0, {SELF_TEST_PAIRS} pairs: "
        "exit 1 if any metric is called a gain",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        args.base, args.head = "HEAD", "HEAD"
        args.seconds, args.pairs = 0.0, SELF_TEST_PAIRS
    elif args.base is None:
        parser.error("--base is required (unless --self-test)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_argv(args: argparse.Namespace) -> list[str]:
    """The ``e2ebench/run.py`` arguments of every run: the self-test's are
    on the quick shapes."""
    return [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *(["--quick"] if args.self_test else []),
    ]  # fmt: skip


def cores_available() -> int:
    """The cores this process may run on (all of the machine's where the
    platform cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    cores = cores_available()
    commits = {
        side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
        for side, rev in (("base", args.base), ("head", args.head))
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    better = {metric["name"]: metric["better"] for metric in section}
    bounds = {metric["name"]: metric["bound"] for metric in section if "bound" in metric}
    pairs = []
    with checkouts(commits) as trees:
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair: dict = {"first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], run_argv(args), args.workload)
            pairs.append(pair)
            print(
                f"pair {index + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr
            )
    sides, metrics = summarise(pairs, better, bounds)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.self_test,
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": args.head, "commit": commits["head"]},
        "python": platform.python_version(),
        "cores_available": cores,
        "pairs": pairs,
        "sides": sides,
        "metrics": metrics,
    }
    text = json.dumps(report, indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    for name, entry in metrics.items():
        print(
            f"{args.workload} {name}: head/base {entry['ratio']}, "
            f"{entry['wins']}/{args.pairs} wins, {entry['verdict']}"
            + (f", {entry['bound_verdict']}" if "bound_verdict" in entry else ""),
            file=sys.stderr,
        )
    gains = [name for name, entry in metrics.items() if entry["verdict"] == "gain"]
    if args.self_test and gains:
        print(
            f"SELF-TEST FAILED: HEAD against HEAD called a gain: {gains}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
