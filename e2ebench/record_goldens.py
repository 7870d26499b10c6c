#!/usr/bin/env python3
"""Re-record ``goldens.json``: bill, generated events and windows per seed.

    python3 e2ebench/record_goldens.py [--workload NAME ...] [--seeds 0-31]

Each (workload, seed) entry is one untraced pass checked exactly as a
benchmark run checks it (event conservation, pool budgets), minus the golden
comparison.  Re-record only when a change is meant to alter bills, and say
so in the change; ``git diff e2ebench/goldens.json`` then lists every seed
whose bill moved.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"{run.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from fleet_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()

    goldens = json.loads(run.GOLDENS.read_text()) if run.GOLDENS.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            result = run.run_pass(WORKLOADS[name], seed)
            checks = run.Checks()
            run.check_passes(checks, [result], golden=None)
            if checks.failures:
                return 1
            entry = {
                "bill_cents": result.bill,
                "events": run.generated_events(result),
                "windows": len(result.windows),
            }
            goldens.setdefault(name, {})[str(seed)] = entry
            print(name, seed, entry, flush=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
