"""A calm stacked fleet window moves columns, not per-row objects.

Greedy, pool repair, the delta cache, the stacked split, the executor and
the compiled billing step all read and write tier/scheme columns; a
``CandidateOption`` or ``PlacementDecision`` exists only when somebody reads
one.  Counting constructions over whole fleet runs pins that down.  The
counter overrides ``__new__``, which CPython cannot undo in-process, so the
counted runs happen in a child interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cloud import DataPartition, PoolSet, multi_cloud_catalog
from repro.engine import (
    CountTrigger,
    DriftTriggered,
    EngineConfig,
    PeriodicReoptimize,
    StaticOnce,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import PoissonZipfStream, tenant_rate_skew

TENANTS = ("acme", "globex", "initech", "umbrella")
MONTHS = 6.0
CASES = [(mode, policy) for mode in ("full", "delta") for policy in ("periodic", "drift")]
HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def tenant_partitions(tenant: str, count: int = 6) -> list[DataPartition]:
    return [
        DataPartition(
            name=f"{tenant}_p{i}",
            size_gb=40.0 + 30.0 * i,
            predicted_accesses=10.0 + 5.0 * i,
            latency_threshold_s=7200.0,
            current_tier=-1 if i % 2 else 0,
        )
        for i in range(count)
    ]


def run_fleet(reopt_mode: str, policy: str) -> int:
    """A small pooled fleet over count-triggered windows; returns the number
    of tenant re-optimizations."""
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
    config = EngineConfig(horizon_months=3.0, window_months=3, reopt_mode=reopt_mode)
    specs = [
        TenantSpec(
            name=tenant,
            partitions=tenant_partitions(tenant),
            policy={
                "periodic": lambda: PeriodicReoptimize(period_months=1),
                "drift": lambda: DriftTriggered(threshold=0.05),
                "static": StaticOnce,
            }[policy](),
            stream=iter(()),
            config=config,
        )
        for tenant in TENANTS
    ]
    usage_gb = sum(p.size_gb for t in TENANTS for p in tenant_partitions(t))
    pools = PoolSet.per_tier(catalog, {catalog[0].name: 0.2 * usage_gb})
    scheduler = FleetScheduler(
        specs, catalog, pools=pools, config=FleetConfig(engine=config)
    )
    report = scheduler.run_streams(streams, CountTrigger(400), horizon_months=MONTHS)
    return sum(usage.num_reoptimized for usage in report.pool_usage)


COUNTING_SCRIPT = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
from repro.cloud import PlacementDecision
from repro.core.optassign import CandidateOption

counts = {{"CandidateOption": 0, "PlacementDecision": 0}}

def counting_new(cls, *args, **kwargs):
    counts[cls.__name__] += 1
    return object.__new__(cls)

CandidateOption.__new__ = counting_new
PlacementDecision.__new__ = counting_new

import test_columnar_fleet as fleet

results = {{}}
for mode, policy in fleet.CASES:
    before = dict(counts)
    reoptimized = fleet.run_fleet(mode, policy)
    results[f"{{mode}}/{{policy}}"] = [
        reoptimized, {{key: counts[key] - before[key] for key in counts}}
    ]
before = dict(counts)
CandidateOption("p", 0, "none", 0.0, None, 0.0, True, True)
PlacementDecision(tier_index=0)
results["read"] = [0, {{key: counts[key] - before[key] for key in counts}}]
print(json.dumps(results))
"""


def test_fleet_windows_build_no_per_row_objects():
    completed = subprocess.run(
        [sys.executable, "-c", COUNTING_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    results = json.loads(completed.stdout.strip().splitlines()[-1])
    assert results.pop("read")[1] == {"CandidateOption": 1, "PlacementDecision": 1}
    assert set(results) == {f"{mode}/{policy}" for mode, policy in CASES}
    for case, (reoptimized, counts) in results.items():
        assert reoptimized > len(TENANTS), case
        assert counts == {"CandidateOption": 0, "PlacementDecision": 0}, case

