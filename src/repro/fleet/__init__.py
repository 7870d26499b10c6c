"""Fleet-scale multi-tenant tiering over shared capacity pools.

The paper's optimizer is deployed per storage account; the provider operates
it as a *fleet* — thousands of tenant accounts drawing from the same reserved
tier capacities.  This subpackage adds that layer on top of the single-tenant
online engine:

* :mod:`repro.fleet.tenants` — :class:`TenantSpec` (one account: partitions,
  policy, event stream, profiles, SLO constraints) and :class:`FleetConfig`;
* :mod:`repro.fleet.scheduler` — :class:`FleetScheduler`, the epoch-locked
  control loop: one stacked, pool-arbitrated OPTASSIGN solve per epoch for
  every tenant whose policy fired, and one settle pass per window over the
  fleet's shared state columns;
* :mod:`repro.fleet.report` — :class:`FleetReport` /
  :class:`PoolUsageRecord`, per-tenant bills plus pool-utilization series.

The shared budgets themselves live in :class:`repro.cloud.CapacityPool` /
:class:`repro.cloud.PoolSet`; the stacking and arbitration primitives in
:class:`repro.core.optassign.StackedProblem` and
:func:`repro.core.optassign.repair_pools`.  With slack pools a fleet run is
bill-exact against independent per-tenant engine runs; under contention the
water-filling arbitration beats static per-tenant pool slices (see
``examples/fleet_tiering.py``).
"""

from .report import FleetReport, PoolUsageRecord
from .scheduler import FleetScheduler
from .tenants import FleetConfig, TenantSpec

__all__ = [
    "FleetConfig",
    "FleetReport",
    "FleetScheduler",
    "PoolUsageRecord",
    "TenantSpec",
]
