"""The static lint in ``tools/check_banned_patterns.py``.

A clean file passes, and each banned pattern fails where its rule applies:
global-RNG draws anywhere, bare clocks under ``src/repro/`` outside
``src/repro/obs/``, and imports of the test oracles (``oracles``, ``tests``)
anywhere under ``src/repro/``.  The files are written under a temporary
repository root, so each rule sees the path it would see in the repository.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))
import check_banned_patterns as lint  # noqa: E402

CLEAN = """\
import random

import numpy as np

from ..obs.clock import monotonic_s

rng = np.random.default_rng(0)
seeded = random.Random(1)
state = np.random.get_state()
started = monotonic_s()
"""

# (relative path, source): each must yield exactly one violation.
BANNED = {
    "numpy global draw": ("src/repro/a.py", "import numpy as np\nnp.random.uniform()\n"),
    "aliased numpy draw": ("tests/a.py", "import numpy as xp\nxp.random.shuffle([])\n"),
    "stdlib global draw": ("benchmarks/a.py", "import random\nrandom.shuffle([])\n"),
    "bare clock": ("src/repro/a.py", "import time\ntime.perf_counter()\n"),
    "bare clock import": ("src/repro/a.py", "from time import monotonic\n"),
    "oracle import": ("src/repro/a.py", "import oracles.problems\n"),
    "oracle from-import": ("src/repro/fleet/a.py", "from oracles.plan import plan_alone\n"),
    "tests import": ("src/repro/a.py", "from tests.oracles import results\n"),
    "tests package import": ("src/repro/a.py", "import tests\n"),
}

# (relative path, source): allowed where they are.
ALLOWED = {
    "clock in obs": ("src/repro/obs/a.py", "import time\ntime.perf_counter()\n"),
    "clock in a test": ("tests/a.py", "import time\ntime.perf_counter()\n"),
    "oracle import in a test": ("tests/a.py", "from oracles.plan import plan_alone\n"),
    "oracle import in a benchmark": ("benchmarks/a.py", "import oracles.results\n"),
    "relative library import": ("src/repro/fleet/a.py", "from ..engine import windowed\n"),
    "mention in a docstring": ("src/repro/a.py", '"""Not `import oracles`."""\n'),
}


@pytest.fixture
def root(tmp_path, monkeypatch):
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    return tmp_path


def write(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


@pytest.mark.parametrize("relative", ["src/repro/a.py", "tests/a.py", "tools/a.py"])
def test_a_clean_file_passes(root, relative):
    assert lint.scan_file(write(root, relative, CLEAN)) == []


@pytest.mark.parametrize("case", sorted(BANNED))
def test_each_banned_pattern_fails(root, case):
    relative, source = BANNED[case]
    violations = lint.scan_file(write(root, relative, source))
    assert len(violations) == 1, violations
    assert violations[0].startswith(f"{root / relative}:")


@pytest.mark.parametrize("case", sorted(ALLOWED))
def test_each_rule_applies_only_where_it_should(root, case):
    relative, source = ALLOWED[case]
    assert lint.scan_file(write(root, relative, source)) == []


def test_main_exits_nonzero_on_a_violation(root, capsys):
    clean = write(root, "src/repro/clean.py", CLEAN)
    lint.main([str(clean)])
    assert "1 files clean" in capsys.readouterr().out
    write(root, "src/repro/bad.py", "from oracles.problems import stack\n")
    with pytest.raises(SystemExit) as raised:
        lint.main([str(root / "src")])
    assert raised.value.code == 1
    assert "1 violation(s)" in capsys.readouterr().out


def test_the_repository_is_clean():
    lint.main([str(ROOT / "src")])
