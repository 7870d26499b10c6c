"""The one sanctioned monotonic clock in :mod:`repro`.

Every wall-clock measurement inside ``src/repro`` flows through either a
:class:`~repro.obs.Tracer` span or :func:`monotonic_s` — never a bare
``time.perf_counter()`` call.  The banned-pattern lint
(``tools/check_banned_patterns.py``) enforces this: with timing centralized
here, per-phase telemetry and report-level timings (``WindowRecord.
wall_clock_s``, the fleet's ``solve_wall_clock_s``) are guaranteed to share
one time base, and a future switch of clock (e.g. to a coarse clock on
platforms where ``perf_counter`` is expensive) is a one-line change.
"""

from __future__ import annotations

import time

__all__ = ["monotonic_s"]

#: Seconds on a monotonic high-resolution clock; the zero point is arbitrary,
#: only differences are meaningful.
monotonic_s = time.perf_counter
