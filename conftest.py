"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(useful in offline environments where ``pip install -e .`` cannot resolve
build dependencies; see README "Installation").
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running property/scenario suites; deselect with "
        '-m "not slow" for a fast inner loop',
    )
    # numpy's invalid-value, divide and empty-slice warnings mean NaN or inf
    # reached arithmetic that should never see them: fail the test.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
