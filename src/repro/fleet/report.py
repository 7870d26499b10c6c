"""Fleet run reports: per-tenant engine reports plus pool-utilization series.

A :class:`FleetReport` is the multi-tenant counterpart of
:class:`~repro.engine.EngineReport`: one engine report per tenant (the same
true end-to-end bills the single-tenant engine produces) plus, per epoch, a
:class:`PoolUsageRecord` snapshot of every shared capacity pool — how many GB
the fleet holds in it versus its budget, how many tenants re-optimized and
how long the stacked solve took.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EngineReport

__all__ = ["PoolUsageRecord", "FleetReport"]


@dataclass(frozen=True, slots=True)
class PoolUsageRecord:
    """One epoch's shared-capacity snapshot.

    Slotted: a long run keeps one record per window.
    """

    epoch: int
    used_gb: dict[str, float]
    capacity_gb: dict[str, float]
    num_reoptimized: int
    solve_wall_clock_s: float

    def utilization(self) -> dict[str, float]:
        """Per-pool used/capacity fraction."""
        return {
            name: self.used_gb[name] / self.capacity_gb[name]
            for name in self.used_gb
        }


@dataclass
class FleetReport:
    """The outcome of one fleet run."""

    tenant_reports: dict[str, EngineReport]
    pool_usage: list[PoolUsageRecord]

    @property
    def num_tenants(self) -> int:
        return len(self.tenant_reports)

    @property
    def num_epochs(self) -> int:
        if not self.tenant_reports:
            return 0
        return max(report.num_epochs for report in self.tenant_reports.values())

    @property
    def total_bill(self) -> float:
        """Everything every tenant was billed, in cents."""
        return float(
            sum(report.total_bill for report in self.tenant_reports.values())
        )

    @property
    def total_reoptimizations(self) -> int:
        return sum(
            report.num_reoptimizations for report in self.tenant_reports.values()
        )

    @property
    def total_migration_cost(self) -> float:
        return float(
            sum(
                report.total_migration_cost
                for report in self.tenant_reports.values()
            )
        )

    def tenant_bills(self) -> dict[str, float]:
        """Total bill per tenant, in cents."""
        return {
            name: report.total_bill for name, report in self.tenant_reports.items()
        }

    def peak_pool_usage_gb(self) -> dict[str, float]:
        """Highest observed GB usage per pool across the run."""
        peaks: dict[str, float] = {}
        for record in self.pool_usage:
            for name, used in record.used_gb.items():
                peaks[name] = max(peaks.get(name, 0.0), used)
        return peaks

    def peak_pool_utilization(self) -> dict[str, float]:
        """Highest observed used/capacity fraction per pool across the run."""
        peaks: dict[str, float] = {}
        for record in self.pool_usage:
            for name, fraction in record.utilization().items():
                peaks[name] = max(peaks.get(name, 0.0), fraction)
        return peaks

    def summary(self) -> dict[str, object]:
        """Machine-readable totals (used by the benchmark harness)."""
        return {
            "tenants": self.num_tenants,
            "epochs": self.num_epochs,
            "total_bill_cents": self.total_bill,
            "reoptimizations": self.total_reoptimizations,
            "migration_cost_cents": self.total_migration_cost,
            "peak_pool_utilization": self.peak_pool_utilization(),
        }
