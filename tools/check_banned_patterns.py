#!/usr/bin/env python
"""Static lint: ban global-RNG draws, bare clocks inside ``src/repro``, and
test-oracle imports into the library.

**RNG rule** — the repro code must be deterministic per-seed: every random
draw goes through an explicitly seeded ``numpy.random.default_rng(seed)``
(or a ``Generator`` threaded in from one).  Bare module-level calls —
``np.random.uniform(...)``, ``random.shuffle(...)`` — read the
process-global RNG, which makes results depend on import order and test
ordering; the RNG-leak audit fixture in ``tests/conftest.py`` exists to
catch state leaks, and this lint catches the draws themselves before they
land.

Allowed:

* ``default_rng`` / ``Generator`` / ``SeedSequence`` constructors;
* state *inspection* (``get_state`` / ``set_state`` / ``getstate`` /
  ``setstate``) — used only by the conftest leak-audit fixture;
* ``random.Random(seed)`` instances (explicitly seeded).

**Clock rule** — inside ``src/repro/`` (but not ``src/repro/obs/``, which
owns the clock), wall-clock reads must go through the observability layer:
a tracer span, or ``repro.obs.clock.monotonic_s`` for a raw duration.  Bare
``time.time()`` / ``time.perf_counter()`` / ``time.monotonic()`` calls
fragment the time base — phase timings stop matching the span exports that
benchmarks and the CI regression gate compare.  Benchmarks, tests and
examples are exempt (they time *around* the library, through the span API
where it matters).

**Oracle boundary rule** — nothing under ``src/repro/`` may import
``oracles`` or ``tests``.  The scalar and per-row reference implementations
the library replaced live in ``tests/oracles/`` as test oracles; a library
import of them would pull test-only code back into the library and let a
fast path be checked against itself.

The check is AST-based, so mentions in comments and docstrings don't trip it.

Usage::

    python tools/check_banned_patterns.py [paths...]   # default: src tests benchmarks examples tools
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")

# Attribute names that do not draw from (or clobber) the global stream when
# accessed on numpy.random / random.
ALLOWED_NUMPY_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                        "PCG64", "Philox", "get_state", "set_state"}
ALLOWED_STDLIB_RANDOM = {"Random", "SystemRandom", "getstate", "setstate"}

# Wall-clock reads banned in src/repro outside the obs package.
BANNED_CLOCKS = {"time", "perf_counter", "monotonic", "perf_counter_ns",
                 "monotonic_ns", "time_ns"}

# Top-level packages src/repro may not import: the test oracles and tests.
TEST_PACKAGES = {"oracles", "tests"}


def _repo_parts(path: Path) -> tuple[str, ...]:
    """``path``'s parts relative to the repository root (as given when it
    lies outside)."""
    try:
        return path.resolve().relative_to(ROOT).parts
    except ValueError:
        return path.parts


def _clock_rule_applies(path: Path) -> bool:
    """True for files under ``src/repro/`` except ``src/repro/obs/``."""
    parts = _repo_parts(path)
    return parts[:2] == ("src", "repro") and parts[:3] != ("src", "repro", "obs")


def _oracle_imports(node: ast.AST) -> list[str]:
    """The modules of ``TEST_PACKAGES`` an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module]
    else:
        return []
    return [name for name in names if name.split(".")[0] in TEST_PACKAGES]


def _dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything non-trivial."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def scan_file(path: Path) -> list[str]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:  # compileall catches these too; report anyway
        return [f"{path}:{error.lineno}: syntax error: {error.msg}"]

    numpy_aliases = {"numpy"}
    imports_stdlib_random = False
    clock_rule = _clock_rule_applies(path)
    boundary_rule = _repo_parts(path)[:2] == ("src", "repro")
    violations: list[str] = []
    for node in ast.walk(tree):
        if boundary_rule:
            for module in _oracle_imports(node):
                violations.append(
                    f"{path}:{node.lineno}: library import of `{module}` — "
                    f"test oracles stay under tests/, src/repro may not use them"
                )
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "random":
                    imports_stdlib_random = True
        elif clock_rule and isinstance(node, ast.ImportFrom):
            # `from time import perf_counter` dodges the attribute check.
            if node.module == "time":
                for alias in node.names:
                    if alias.name in BANNED_CLOCKS:
                        violations.append(
                            f"{path}:{node.lineno}: bare clock import "
                            f"`from time import {alias.name}` — use a tracer "
                            f"span or repro.obs.clock.monotonic_s"
                        )

    for node in ast.walk(tree):
        dotted = _dotted_name(node) if isinstance(node, ast.Attribute) else None
        if dotted is None:
            continue
        parts = dotted.split(".")
        if len(parts) == 3 and parts[0] in numpy_aliases and parts[1] == "random":
            if parts[2] not in ALLOWED_NUMPY_RANDOM:
                violations.append(
                    f"{path}:{node.lineno}: bare global-RNG call `{dotted}` — "
                    f"use numpy.random.default_rng(seed) instead"
                )
        elif (
            imports_stdlib_random
            and len(parts) == 2
            and parts[0] == "random"
            and parts[1] not in ALLOWED_STDLIB_RANDOM
        ):
            violations.append(
                f"{path}:{node.lineno}: bare global-RNG call `{dotted}` — "
                f"use random.Random(seed) or a numpy Generator instead"
            )
        elif (
            clock_rule
            and len(parts) == 2
            and parts[0] == "time"
            and parts[1] in BANNED_CLOCKS
        ):
            violations.append(
                f"{path}:{node.lineno}: bare clock `{dotted}` in src/repro — "
                f"use a tracer span or repro.obs.clock.monotonic_s"
            )
    return violations


def main(argv: list[str] | None = None) -> None:
    arguments = argv if argv is not None else sys.argv[1:]
    targets = [Path(argument) for argument in arguments] or [
        ROOT / name for name in DEFAULT_PATHS
    ]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
    violations: list[str] = []
    for path in files:
        violations.extend(scan_file(path))
    if violations:
        print(f"banned-pattern lint: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        raise SystemExit(1)
    print(f"banned-pattern lint: {len(files)} files clean")


if __name__ == "__main__":
    main()
