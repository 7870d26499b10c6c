#!/usr/bin/env python
"""Validate a CSV access trace against ``schemas/access_trace.schema.json``.

The CSV trace format is the interchange point between external access logs
and :class:`repro.workloads.TraceStream`: a header line ``t,partition,reads``
followed by time-sorted rows.  This tool parses each row into a JSON object
(cells coerced to the schema's types) and validates it with the stdlib
JSON-Schema subset from :mod:`tools.validate_obs_export` — no third-party
dependency — then checks the cross-row ordering invariant the schema cannot
express (``t`` non-decreasing).

CI runs ``--selftest``, which generates a synthetic stream, writes it with
:func:`repro.workloads.write_trace_csv`, validates the file, and replays it
back through :class:`~repro.workloads.TraceStream` to confirm the round trip
is lossless — so the writer, the schema and the reader cannot drift apart
without the change being deliberate.

Usage::

    python tools/validate_trace_csv.py trace.csv [trace2.csv ...]
    python tools/validate_trace_csv.py --selftest
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT / "tools")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from validate_obs_export import validate  # noqa: E402

DEFAULT_SCHEMA = ROOT / "schemas" / "access_trace.schema.json"
EXPECTED_HEADER = ("t", "partition", "reads")


def row_to_object(row: dict, line: int) -> tuple[dict | None, list[str]]:
    """Coerce one CSV row into the schema's object form.

    Returns ``(object, errors)``; a cell that cannot coerce reports an error
    and yields no object (the schema's type checks assume coercion worked).
    """
    errors: list[str] = []
    obj: dict = {}
    raw_t = row.get("t")
    try:
        obj["t"] = float(raw_t)
    except (TypeError, ValueError):
        errors.append(f"line {line}: t={raw_t!r} is not a number")
    obj["partition"] = row.get("partition") or ""
    raw_reads = row.get("reads")
    if raw_reads not in (None, ""):
        try:
            obj["reads"] = float(raw_reads)
        except ValueError:
            errors.append(f"line {line}: reads={raw_reads!r} is not a number")
    # The schema's "minimum: 0" is a comparison that NaN passes.
    for key in ("t", "reads"):
        if key in obj and not math.isfinite(obj[key]):
            errors.append(f"line {line}: {key}={obj[key]!r} is not finite")
    return (None, errors) if errors else (obj, [])


def validate_trace(path: Path, schema: dict) -> list[str]:
    """All violations in one trace file (empty list means valid)."""
    errors: list[str] = []
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return [f"{path}: empty file (missing header row)"]
        if tuple(reader.fieldnames) != EXPECTED_HEADER:
            errors.append(
                f"{path}: header {reader.fieldnames} != "
                f"{list(EXPECTED_HEADER)}"
            )
            return errors
        last_t = None
        rows = 0
        for row in reader:
            line = reader.line_num
            obj, coerce_errors = row_to_object(row, line)
            if coerce_errors:
                errors.extend(f"{path}: {message}" for message in coerce_errors)
                continue
            for message in validate(obj, schema, path=f"line {line}"):
                errors.append(f"{path}: {message}")
            if last_t is not None and obj["t"] < last_t:
                errors.append(
                    f"{path}: line {line}: t={obj['t']} after {last_t}; "
                    "rows must be sorted by t"
                )
            last_t = obj["t"]
            rows += 1
        if rows == 0:
            errors.append(f"{path}: no data rows")
    return errors


def selftest() -> int:
    """Generate → write → validate → replay; returns a process exit code."""
    import tempfile

    from repro.workloads import PoissonZipfStream, TraceStream, write_trace_csv

    schema = json.loads(DEFAULT_SCHEMA.read_text())
    stream = PoissonZipfStream(
        [f"p{i}" for i in range(8)],
        rate_per_month=500.0,
        horizon_months=2.0,
        seed=99,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "selftest_trace.csv"
        written = write_trace_csv(path, stream)
        errors = validate_trace(path, schema)
        if errors:
            for message in errors:
                print(message, file=sys.stderr)
            print("selftest: generated trace failed validation", file=sys.stderr)
            return 1
        replayed = list(TraceStream(path))
        original = list(stream)
        if len(replayed) != written or [
            (event.t, event.partition, event.reads) for event in replayed
        ] != [(event.t, event.partition, event.reads) for event in original]:
            print("selftest: round trip is not lossless", file=sys.stderr)
            return 1
    print(f"selftest ok: {written} rows written, validated and replayed losslessly")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="*", type=Path, help="CSV trace files")
    parser.add_argument(
        "--schema", type=Path, default=DEFAULT_SCHEMA, help="schema JSON path"
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="generate a stream, write, validate and replay it (CI gate)",
    )
    options = parser.parse_args(argv)
    if options.selftest:
        return selftest()
    if not options.traces:
        parser.error("provide trace files or --selftest")
    schema = json.loads(options.schema.read_text())
    failures = 0
    for path in options.traces:
        errors = validate_trace(path, schema)
        if errors:
            failures += 1
            for message in errors:
                print(message, file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
