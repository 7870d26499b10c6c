"""The per-engine plans a re-optimization ran before the block plan pass.

:func:`reference_forecast` is one engine's forecast over its own feature
store and forecaster (the store's window matrix, then the forecaster's
``forecast_rows`` at ``epoch - 1``).  :func:`reference_reoptimize` is the
fleet re-optimization as it was, one firing tenant at a time: each engine's
reference forecast, the object build of its instance
(:func:`oracles.problems.object_build_problem`), the stack of the instances
(:func:`oracles.problems.stack`), the same solve and degradation calls as
the library's (:func:`~repro.engine.solve_stacked`,
``ChaosInjector.degrade_solve``), then ``split_placements`` and the
per-partition scan (:func:`oracles.results.scan_apply`) per tenant, with the
placement handed back through the engine's ``placement`` setter.
:func:`plan_each_tenant` installs it on a fleet in place of its
:class:`~repro.engine.WindowPlan` (``tests/fleet/test_plan_pass.py``), and
:func:`plan_alone` installs the same steps for one untagged engine in place
of its one-member plan (``tests/engine/test_plan_alone.py``), and
:func:`lone_problem` is the instance that plan assembles, for tests that
compare it with the object build.
"""

from __future__ import annotations

import numpy as np

from oracles.problems import object_build_problem, split_placements, stack
from oracles.results import scan_apply
from repro.cloud import CloudStorageSimulator
from repro.core.optassign import DeltaSolver, InfeasibleError, StackedProblem
from repro.engine import RateColumns, WindowPlan, solve_stacked
from repro.engine.executor import count_moves
from repro.obs import get_metrics


def reference_forecast(engine, epoch: int) -> RateColumns:
    """Projected monthly reads of every partition of ``engine`` for
    ``epoch``, from what was known before it: its store's sliding window and
    its forecaster's EWMA state, as one column over every row."""
    window = engine.feature_store.window_matrix(engine._store_rows)
    rates = engine.forecaster.forecast_rows(
        engine._forecast_rows, window, epoch=epoch - 1
    )
    return RateColumns(engine._arrays.names, rates)


def lone_problem(engine, epoch: int):
    """The instance a lone ``engine`` solves at ``epoch``: the forecast and
    stack of its one-member :class:`~repro.engine.WindowPlan`, which leave
    the forecast pending on the engine."""
    plan = WindowPlan(epoch, [("", engine._lone_block(), 0)])
    plan.forecast()
    return plan.stack().problem


def scan_and_hand_back(engine, placement, epoch: int):
    """Apply ``placement`` to ``engine`` by the per-partition scan, write
    the clocks back, hand the placement back through the ``placement``
    setter and notify the policy; returns the migration report."""
    names = engine._arrays.names
    months = dict(zip(names, engine.months_in_tier.tolist()))
    report = scan_apply(
        engine.tiers,
        engine._partitions,
        None if engine.placement is None else dict(engine.placement),
        dict(placement),
        months,
        epoch=epoch,
        waive_early_deletion_tiers=engine.banned_tiers or None,
    )
    engine.months_in_tier[:] = [months[partition] for partition in names]
    engine.placement = placement
    count_moves(report)
    engine._notify_applied(epoch)
    get_metrics().counter("engine.reoptimizations").add()
    return report


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
    problems = {}
    for name in firing:
        engine = scheduler.engines[name]
        forecast = reference_forecast(engine, epoch)
        problems[name] = object_build_problem(engine, epoch, forecast)
        engine._pending_forecast = forecast
    stacked = stack(problems)
    reserved = None
    if scheduler.pools is not None:
        firing_set = set(firing)
        standing = [name for name in order if name not in firing_set]
        reserved = scheduler.pools.usage(reference_tier_usage(scheduler, standing))
    engines = [scheduler.engines[name] for name in firing]
    try:
        solved = solve_stacked(
            stacked, engines, scheduler._delta, scheduler.pools, reserved
        )
    except InfeasibleError as error:
        if scheduler.chaos is None:
            raise
        solved = scheduler.chaos.degrade_solve(
            epoch, stacked, engines, error, scheduler.pools
        )
    migrations = {}
    if solved is None:
        return migrations
    assignment, relaxation = solved
    placements = split_placements(stacked, assignment)
    for name in firing:
        migrations[name] = scan_and_hand_back(
            scheduler.engines[name], placements[name], epoch
        )
    if scheduler.chaos is not None:
        for name in firing:
            scheduler.chaos.note_migration(
                epoch, migrations[name], scheduler.engines[name].banned_tiers, tenant=name
            )
        scheduler.chaos.note_relaxation(epoch, relaxation)
    return migrations


def plan_each_tenant(scheduler) -> None:
    """Make ``scheduler`` re-optimize through :func:`reference_reoptimize`
    and account pools through :func:`reference_tier_usage`."""
    scheduler._reoptimize = lambda epoch, firing, order, tracer: reference_reoptimize(
        scheduler, epoch, firing, order, tracer
    )
    scheduler._fleet_tier_usage = lambda names: reference_tier_usage(scheduler, names)


def reference_reoptimize_alone(engine, window):
    """``OnlineTieringEngine._reoptimize`` step by step: the reference
    forecast, the object build, the one solve of it as the engine's one
    untagged tenant (:func:`~repro.engine.solve_stacked`, with the engine's
    delta solver in delta mode; a chaos run degrades through
    ``ChaosInjector.degrade_solve``), the per-partition scan, the
    ``placement`` setter and the policy notification."""
    epoch = window.index
    forecast = reference_forecast(engine, epoch)
    problem = object_build_problem(engine, epoch, forecast)
    engine._pending_forecast = forecast
    stacked = StackedProblem(problem, ("",), ((0, len(engine._arrays)),))
    config = engine.config
    if config.reopt_mode == "delta" and engine._delta is None:
        engine._delta = DeltaSolver(drift_threshold=config.delta_drift_threshold)
    try:
        solved = solve_stacked(stacked, [engine], engine._delta)
    except InfeasibleError as error:
        if engine.chaos is None:
            raise
        solved = engine.chaos.degrade_solve(epoch, stacked, [engine], error)
    if solved is None:
        return None
    assignment, relaxation = solved
    report = scan_and_hand_back(engine, assignment.to_placement(), epoch)
    if engine.chaos is not None:
        engine.chaos.note_migration(epoch, report, engine.banned_tiers)
        engine.chaos.note_relaxation(epoch, relaxation)
    return report


def plan_alone(engine) -> None:
    """Make a lone ``engine`` re-optimize through
    :func:`reference_reoptimize_alone` instead of its one-member
    :class:`~repro.engine.WindowPlan`."""
    engine._reoptimize = lambda window: reference_reoptimize_alone(engine, window)
