"""The per-tenant plan a fleet window ran before the block plan pass.

:func:`reference_reoptimize` is the fleet re-optimization as it was, one
firing tenant at a time: each engine's ``forecast_monthly``, the object build
of its instance (:func:`oracles.problems.object_build_problem`),
``StackedProblem.stack`` over the instances, the same solve, then
``split_placements`` and the per-partition scan (:func:`oracles.results.
scan_apply`) per tenant, with the placement handed back through the
engine's ``placement`` setter.  :func:`plan_each_tenant` installs it on a
fleet in place of its :class:`~repro.engine.WindowPlan`
(``tests/fleet/test_plan_pass.py``).
"""

from __future__ import annotations

import numpy as np

from oracles.problems import object_build_problem
from oracles.results import scan_apply
from repro.cloud import CloudStorageSimulator
from repro.core.optassign import InfeasibleError, StackedProblem
from repro.engine.executor import count_moves
from repro.obs import get_metrics


def reference_tier_usage(scheduler, names) -> np.ndarray:
    """Summed stored GB per tier of the named tenants, each compiled afresh."""
    usage = np.zeros(len(scheduler.tiers), dtype=np.float64)
    for name in names:
        engine = scheduler.engines[name]
        if engine.placement is not None:
            usage += (
                CloudStorageSimulator(engine.tiers)
                .compile_placement(engine._arrays, dict(engine.placement))
                .tier_usage_gb()
            )
    return usage


def reference_reoptimize(scheduler, epoch, firing, order, tracer) -> dict:
    """``FleetScheduler._reoptimize``, one firing tenant at a time."""
    scheduler.last_solve_report = scheduler.last_delta_report = None
    problems = {}
    for name in firing:
        engine = scheduler.engines[name]
        forecast = engine.forecast_monthly(epoch)
        problems[name] = object_build_problem(engine, epoch, forecast)
        engine._pending_forecast = forecast
    stacked = StackedProblem.stack(problems)
    reserved = None
    if scheduler.pools is not None:
        firing_set = set(firing)
        standing = [name for name in order if name not in firing_set]
        reserved = scheduler.pools.usage(reference_tier_usage(scheduler, standing))
    try:
        if scheduler._delta is not None:
            assignment = scheduler._solve_delta(stacked, firing, reserved)
        else:
            assignment = scheduler._solve_arbitrated(stacked, reserved)
    except InfeasibleError as error:
        if scheduler.chaos is None:
            raise
        assignment = scheduler.chaos.degrade_fleet_solve(
            scheduler, stacked, reserved, error
        )
    migrations = {}
    if assignment is None:
        return migrations
    placements = stacked.split_placements(assignment)
    for name in firing:
        engine = scheduler.engines[name]
        names = engine._arrays.names
        months = dict(zip(names, engine.months_in_tier.tolist()))
        report = scan_apply(
            engine.tiers,
            engine._partitions,
            None if engine.placement is None else dict(engine.placement),
            dict(placements[name]),
            months,
            epoch=epoch,
            waive_early_deletion_tiers=engine.banned_tiers or None,
        )
        engine.months_in_tier[:] = [months[partition] for partition in names]
        engine.placement = placements[name]
        count_moves(report)
        engine._notify_applied(epoch)
        get_metrics().counter("engine.reoptimizations").add()
        migrations[name] = report
    if scheduler.chaos is not None:
        for name in firing:
            scheduler.chaos.note_migration(
                epoch, migrations[name], scheduler.engines[name].banned_tiers, tenant=name
            )
        scheduler.chaos.note_relaxation(epoch, scheduler._last_relaxation())
    return migrations


def plan_each_tenant(scheduler) -> None:
    """Make ``scheduler`` re-optimize through :func:`reference_reoptimize`
    and account pools through :func:`reference_tier_usage`."""
    scheduler._reoptimize = lambda epoch, firing, order, tracer: reference_reoptimize(
        scheduler, epoch, firing, order, tracer
    )
    scheduler._fleet_tier_usage = lambda names: reference_tier_usage(scheduler, names)
