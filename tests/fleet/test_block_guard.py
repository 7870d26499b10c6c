"""A fleet builds one settle block per roster, never one per window.

Over a pooled delta fleet run under count-triggered windows, with a chaos
``TenantJoin`` and a ``TenantLeave``, the fleet builds its
:class:`~repro.engine.SettleBlock` in the first window and again only in
the windows whose roster changed.  A block that went stale without cause
(``intact()`` failing spuriously) would be rebuilt every window with every
bill unchanged, so only a count shows it.  Calls are counted in a child
interpreter, as in ``test_plan_guard.py``, so the patched class never
leaks into this one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.chaos import ChaosInjector, DisruptionSchedule, TenantJoin, TenantLeave
from repro.cloud import PoolSet, multi_cloud_catalog
from repro.engine import CountTrigger, EngineConfig, PeriodicReoptimize
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import PoissonZipfStream, tenant_rate_skew
from test_columnar_fleet import MONTHS, TENANTS, tenant_partitions

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
JOINER, LEAVER = "hooli", TENANTS[1]


def run_churning_fleet() -> list[list[str]]:
    """A pooled delta fleet over count-triggered windows; a tenant joins in
    month 2 and one leaves in month 4.  Returns the roster after each
    window."""
    catalog = multi_cloud_catalog()
    rates = tenant_rate_skew(2_000.0, list(TENANTS), exponent=1.0)
    streams = {
        tenant: PoissonZipfStream(
            [p.name for p in tenant_partitions(tenant)],
            rate_per_month=rates[tenant],
            horizon_months=MONTHS,
            seed=rank,
            tenant=tenant,
        )
        for rank, tenant in enumerate(TENANTS)
    }
    config = EngineConfig(horizon_months=3.0, window_months=3, reopt_mode="delta")

    def spec(tenant: str) -> TenantSpec:
        return TenantSpec(
            name=tenant,
            partitions=tenant_partitions(tenant),
            policy=PeriodicReoptimize(period_months=1),
            stream=iter(()),
            config=config,
        )

    usage_gb = sum(p.size_gb for t in TENANTS for p in tenant_partitions(t))
    chaos = ChaosInjector(
        DisruptionSchedule(
            [TenantJoin(epoch=2, spec=spec(JOINER)), TenantLeave(epoch=4, tenant=LEAVER)]
        )
    )
    scheduler = FleetScheduler(
        [spec(tenant) for tenant in TENANTS],
        catalog,
        pools=PoolSet.per_tier(catalog, {catalog[0].name: 0.2 * usage_gb}),
        config=FleetConfig(engine=config),
        chaos=chaos,
    )
    rosters = []
    step_window = scheduler.step_window

    def stepped(windows):
        step_window(windows)
        rosters.append(list(scheduler.engines))

    scheduler.step_window = stepped
    scheduler.run_streams(streams, CountTrigger(400), horizon_months=MONTHS)
    return rosters


COUNTING_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
from repro.engine import SettleBlock
from repro.fleet import FleetScheduler

built = [0]
init = SettleBlock.__init__

def counted_init(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)

SettleBlock.__init__ = counted_init
per_window = []
step = FleetScheduler.step_window

def counted_step(self, windows):
    before = built[0]
    step(self, windows)
    per_window.append(built[0] - before)

FleetScheduler.step_window = counted_step

import test_block_guard as guard

rosters = guard.run_churning_fleet()
print(json.dumps([per_window, rosters]))
"""


def test_one_block_per_roster():
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    per_window, rosters = json.loads(completed.stdout.strip().splitlines()[-1])
    assert len(per_window) == len(rosters) > 10
    assert rosters[0] == list(TENANTS)
    assert rosters[-1] == [*(t for t in TENANTS if t != LEAVER), JOINER]
    changed = [0] + [
        index for index in range(1, len(rosters)) if rosters[index] != rosters[index - 1]
    ]
    assert len(changed) == 3  # the first window, the join and the leave
    assert per_window == [int(index in changed) for index in range(len(rosters))]
