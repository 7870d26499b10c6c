"""Unit and property tests for the incremental :class:`DeltaSolver`.

The fast tests pin the delta layer's contract on small seeded instances:
bootstrap runs a full solve, a bit-unchanged epoch pins every row, drifted /
structurally-edited / hinted rows are re-solved while the rest stay pinned,
budget violations trigger the repair pass, and the feature baseline never
ratchets under sub-threshold drift.

The slow hypothesis suite drives random instances and random drift masks
through the two headline guarantees:

* ``drift_threshold=0.0`` makes the delta epoch **bit-exact** against the
  full vectorized solve (only bit-unchanged rows are pinned, and an
  unchanged row's argmin cannot move);
* for ``drift_threshold=tau < 1/3`` on uncapacitated instances, the delta
  objective stays within the documented bounded-regret factor
  ``(1 - tau) / (1 - 3 tau)`` of the full solve's objective.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CompressionProfile,
    CostModel,
    DataPartition,
    PoolSet,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    DeltaSolveReport,
    DeltaSolver,
    InfeasibleError,
    OptAssignProblem,
    solve_optassign,
)


def build_partitions(count: int, seed: int = 91) -> list[DataPartition]:
    rng = np.random.default_rng(seed)
    return [
        DataPartition(
            f"dataset_{index}",
            size_gb=float(rng.lognormal(3.0, 1.5)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice([60.0, 7200.0, float("inf")])),
            current_tier=0,
        )
        for index in range(count)
    ]


def build_profiles(partitions, seed: int = 17):
    rng = np.random.default_rng(seed)
    return {
        partition.name: {
            "gzip": CompressionProfile(
                "gzip",
                ratio=float(rng.uniform(2.0, 6.0)),
                decompression_s_per_gb=float(rng.uniform(0.5, 2.0)),
            ),
            "snappy": CompressionProfile(
                "snappy",
                ratio=float(rng.uniform(1.2, 3.0)),
                decompression_s_per_gb=float(rng.uniform(0.02, 0.3)),
            ),
        }
        for partition in partitions
    }


def build_problem(
    partitions,
    profiles,
    catalog=None,
    duration_months: float = 6.0,
    latency_slo_s=None,
    provider_affinity=None,
):
    catalog = catalog if catalog is not None else azure_tier_catalog()
    model = CostModel(catalog, duration_months=duration_months)
    return OptAssignProblem(
        partitions,
        model,
        profiles,
        latency_slo_s=latency_slo_s or {},
        provider_affinity=provider_affinity or {},
    )


def assert_same_assignment(left, right) -> None:
    assert set(left.choices) == set(right.choices)
    for name, option in left.choices.items():
        other = right.choices[name]
        assert option.tier_index == other.tier_index, name
        assert option.scheme == other.scheme, name
        # Per-row pricing is bit-identical; only the *sum* over rows may
        # differ in the last ulp because the choice dicts order rows
        # differently (pinned-then-changed vs instance order).
        assert option.objective == other.objective, name
    assert left.total_cost == pytest.approx(right.total_cost, rel=1e-12)


def stabilize(solver: DeltaSolver, partitions, profiles, catalog=None, epochs: int = 6):
    """Apply the chosen placement back until an epoch changes nothing.

    The delta detector treats ``current_tier != chosen tier`` as structural
    (the migration term re-prices), so a warm cache only fully pins once the
    placement has been applied and re-solved to a fixed point — exactly what
    the online engine's executor does between epochs.

    The caller must pass the same ``catalog`` object it later prices against:
    the solver's pricing signature keys on catalog identity, and a fresh
    catalog per epoch reads as a pricing change that flushes the cache.
    """
    catalog = catalog if catalog is not None else azure_tier_catalog()
    problem = build_problem(partitions, profiles, catalog)
    report = solver.solve(problem)
    for _ in range(epochs):
        placed = [
            replace(p, current_tier=report.assignment.choices[p.name].tier_index)
            for p in partitions
        ]
        problem = build_problem(placed, profiles, catalog)
        report = solver.solve(problem)
        if report.mode == "delta" and report.num_changed == 0:
            return placed, report
        partitions = placed
    raise AssertionError("delta cache failed to stabilise")


class TestDeltaBasics:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DeltaSolver(drift_threshold=-0.1)
        with pytest.raises(ValueError):
            DeltaSolver(drift_threshold=1.0 / 3.0)
        DeltaSolver(drift_threshold=0.0)  # boundary below is fine

    def test_bootstrap_is_a_full_solve(self):
        partitions = build_partitions(24)
        profiles = build_profiles(partitions)
        problem = build_problem(partitions, profiles)
        report = DeltaSolver().solve(problem)
        assert report.mode == "full"
        assert report.reason == "bootstrap"
        assert report.full_report is not None
        assert_same_assignment(
            report.assignment, solve_optassign(problem, prefer="greedy").assignment
        )

    def test_unchanged_epoch_pins_every_row(self):
        partitions = build_partitions(24)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        placed, report = stabilize(solver, partitions, profiles)
        assert report.mode == "delta"
        assert report.num_changed == 0
        assert report.num_pinned == len(placed)
        assert report.pinned_fraction == 1.0
        full = solve_optassign(build_problem(placed, profiles), prefer="greedy")
        assert_same_assignment(report.assignment, full.assignment)

    def test_unknown_changed_name_rejected(self):
        # Hints are rows of the instance: one past its six rows (or before
        # them) is unknown to it.
        partitions = build_partitions(6)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        solver.solve(build_problem(partitions, profiles))
        with pytest.raises(ValueError, match="unknown"):
            solver.solve(build_problem(partitions, profiles), changed=[6])
        with pytest.raises(ValueError, match="unknown"):
            solver.solve(build_problem(partitions, profiles), changed=[-1])

    def test_pricing_change_flushes_the_cache(self):
        partitions = build_partitions(12)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        solver.solve(build_problem(partitions, profiles, duration_months=6.0))
        report = solver.solve(build_problem(partitions, profiles, duration_months=12.0))
        assert report.mode == "full"
        assert report.reason == "pricing changed"


class TestChangeDetection:
    def test_drifted_row_is_resolved_others_pinned(self):
        partitions = build_partitions(30)
        profiles = build_profiles(partitions)
        solver = DeltaSolver(drift_threshold=0.1)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        drifted = [
            replace(p, predicted_accesses=p.predicted_accesses * 5.0)
            if index == 7
            else p
            for index, p in enumerate(placed)
        ]
        problem = build_problem(drifted, profiles, catalog)
        report = solver.solve(problem)
        assert report.mode == "delta"
        assert report.num_changed == 1
        assert report.num_pinned == len(placed) - 1
        # Undrifted rows are bit-unchanged, so pinning reproduces the full
        # argmin exactly — identical, not merely within the regret bound.
        full = solve_optassign(problem, prefer="greedy")
        assert_same_assignment(report.assignment, full.assignment)

    def test_sub_threshold_drift_stays_pinned(self):
        partitions = build_partitions(20)
        profiles = build_profiles(partitions)
        solver = DeltaSolver(drift_threshold=0.2)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        nudged = [
            replace(p, predicted_accesses=p.predicted_accesses * 1.05)
            for p in placed
        ]
        report = solver.solve(build_problem(nudged, profiles, catalog))
        assert report.mode == "delta"
        assert report.num_changed == 0

    def test_baseline_does_not_ratchet_under_repeated_small_drift(self):
        """Five 5% nudges compound past a 20% threshold and must re-solve.

        The cache keeps the *at-solve* forecast as the drift baseline for
        pinned rows; remembering each epoch's forecast instead would let the
        workload walk arbitrarily far in sub-threshold steps without ever
        re-solving.
        """
        partitions = build_partitions(20)
        profiles = build_profiles(partitions)
        solver = DeltaSolver(drift_threshold=0.2)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        current = placed
        saw_resolve = False
        for _ in range(5):
            current = [
                replace(p, predicted_accesses=p.predicted_accesses * 1.05)
                for p in current
            ]
            report = solver.solve(build_problem(current, profiles, catalog))
            if report.num_changed:
                saw_resolve = True
        # 1.05^5 - 1 = 27.6% cumulative drift > 20% threshold.
        assert saw_resolve

    def test_structural_size_change_forces_resolve(self):
        partitions = build_partitions(20)
        profiles = build_profiles(partitions)
        solver = DeltaSolver(drift_threshold=0.1)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        edited = [
            replace(p, size_gb=p.size_gb * 1.01) if index == 3 else p
            for index, p in enumerate(placed)
        ]
        report = solver.solve(build_problem(edited, profiles, catalog))
        assert report.num_changed == 1

    def test_caller_hint_widens_the_changed_set(self):
        partitions = build_partitions(20)
        profiles = build_profiles(partitions)
        solver = DeltaSolver(drift_threshold=0.1)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        report = solver.solve(build_problem(placed, profiles, catalog), changed=[4])
        assert report.mode == "delta"
        assert report.num_changed == 1

    def test_every_row_changed_falls_back_to_full(self):
        partitions = build_partitions(12)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        problem = build_problem(placed, profiles, catalog)
        report = solver.solve(problem, changed=np.arange(len(placed)))
        assert report.mode == "full"
        assert report.reason == "every row changed"
        assert_same_assignment(
            report.assignment, solve_optassign(problem, prefer="greedy").assignment
        )


class TestBudgetRepairs:
    def test_capacity_violation_triggers_repair(self):
        partitions = build_partitions(40, seed=5)
        profiles = build_profiles(partitions, seed=5)
        catalog = azure_tier_catalog()
        total_gb = sum(p.size_gb for p in partitions)
        # Squeeze both fast tiers far below even the compressed footprint of
        # the soon-to-be-hot rows so the drifted epoch must overflow them.
        caps = [0.01 * total_gb, 0.01 * total_gb] + [float("inf")] * (len(catalog) - 2)
        tight = catalog.with_capacities(caps)
        solver = DeltaSolver(drift_threshold=0.1)
        placed, _ = stabilize(solver, partitions, profiles, catalog=tight)
        # Heat a third of the fleet far past the threshold: the re-solved
        # rows all want the hot tier, overflowing its squeezed capacity.
        drifted = [
            replace(p, predicted_accesses=1e6) if index % 3 == 0 else p
            for index, p in enumerate(placed)
        ]
        problem = build_problem(drifted, profiles, catalog=tight)
        report = solver.solve(problem)
        assert report.mode == "delta"
        assert report.repaired
        assert report.assignment.solver == "delta+repair"
        assert report.assignment.is_capacity_feasible()

    def test_no_repair_when_budgets_hold(self):
        partitions = build_partitions(20)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        _, report = stabilize(solver, partitions, profiles)
        assert not report.repaired
        assert report.assignment.solver == "delta"

    def test_pool_violation_triggers_pool_repair(self):
        catalog = multi_cloud_catalog()
        partitions = build_partitions(30, seed=11)
        profiles = build_profiles(partitions, seed=11)
        solver = DeltaSolver(drift_threshold=0.1)
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        problem = build_problem(placed, profiles, catalog=catalog)
        baseline = solver.solve(problem)
        usage = baseline.assignment.tier_usage_gb()
        by_provider: dict[str, float] = {}
        for index, used in enumerate(usage):
            provider = catalog.provider_of(index)
            by_provider[provider] = by_provider.get(provider, 0.0) + used
        busiest = max(by_provider, key=by_provider.get)
        capacities = {name: 1e12 for name in catalog.provider_names}
        capacities[busiest] = 0.5 * by_provider[busiest]
        pools = PoolSet.per_provider(catalog, capacities)
        solver.reset()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        # Re-prime without pools, then hand the squeezed pool in: the standing
        # placement violates it, so the delta epoch must repair.
        report = solver.solve(
            build_problem(placed, profiles, catalog=catalog),
            pool_set=pools,
            reserved_gb=np.full(len(pools.capacities), 1.0),
        )
        assert report.repaired or report.mode == "full"
        final_usage = report.assignment.tier_usage_gb()
        spent = sum(
            used
            for index, used in enumerate(final_usage)
            if catalog.provider_of(index) == busiest
        )
        assert spent <= capacities[busiest] + 1e-6


class TestConstraintEdits:
    def test_slo_cap_edit_resolves_only_that_row(self):
        partitions = build_partitions(16)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        # A loose cap cannot invalidate the standing placement, but the edit
        # itself must re-solve the row (a tighter future edit could).
        slo = {placed[2].name: 3600.0}
        report = solver.solve(
            build_problem(placed, profiles, catalog, latency_slo_s=slo)
        )
        assert report.mode == "delta"
        assert report.num_changed == 1

    def test_affinity_edit_resolves_only_that_row(self):
        catalog = multi_cloud_catalog()
        partitions = build_partitions(16)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        affinity = {placed[5].name: frozenset(catalog.provider_names)}
        report = solver.solve(
            build_problem(placed, profiles, catalog, provider_affinity=affinity)
        )
        assert report.mode == "delta"
        assert report.num_changed == 1


class TestNameSubsets:
    """Fleet instances stack only the tenants whose policies fired, so the
    cache must survive name subsets and novel names between epochs."""

    def test_subset_epoch_pins_all_cached_rows(self):
        partitions = build_partitions(12)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        subset = placed[:8]
        report = solver.solve(build_problem(subset, profiles, catalog))
        assert report.mode == "delta"
        assert report.num_changed == 0
        assert report.num_pinned == 8

    def test_subset_epoch_merges_codec_and_constraint_edits(self):
        partitions = build_partitions(12)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        subset = list(placed[:8])
        subset[0] = replace(subset[0], current_codec="gzip")
        slo = {subset[1].name: 3600.0}
        affinity = {subset[2].name: frozenset(catalog.provider_names)}
        report = solver.solve(
            build_problem(
                subset,
                profiles,
                catalog,
                latency_slo_s=slo,
                provider_affinity=affinity,
            )
        )
        # Codec pin, SLO edit and affinity edit each re-solve exactly their
        # row; the other five stay pinned through the merge-path cache write.
        assert report.mode == "delta"
        assert report.num_changed == 3
        assert report.num_pinned == 5
        assert report.assignment.choices[subset[0].name].scheme == "gzip"

    def test_novel_names_are_resolved_and_cached(self):
        partitions = build_partitions(12)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        extras = build_partitions(15, seed=77)[12:]
        extra_profiles = build_profiles(extras, seed=77)
        merged_profiles = {**profiles, **extra_profiles}
        grown = placed + extras
        report = solver.solve(build_problem(grown, profiles | extra_profiles, catalog))
        assert report.mode == "delta"
        assert report.num_changed == len(extras)
        assert report.num_pinned == len(placed)
        # Apply the new rows' placement and re-settle: a freshly migrated row
        # is structural for one more epoch (its current_tier feature moved),
        # after which the grown fleet fully pins.
        again = report
        for _ in range(3):
            settled = [
                replace(p, current_tier=again.assignment.choices[p.name].tier_index)
                for p in grown
            ]
            again = solver.solve(build_problem(settled, merged_profiles, catalog))
            grown = settled
            if again.num_changed == 0:
                break
        assert again.num_changed == 0
        assert again.num_pinned == len(settled)


class TestInfeasibleFallbacks:
    def test_infeasible_changed_row_surfaces_through_full_fallback(self):
        partitions = build_partitions(10)
        profiles = build_profiles(partitions)
        solver = DeltaSolver()
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        # An impossible latency SLA is a structural edit: the delta path
        # re-solves the row, finds it infeasible, falls back to the full
        # solve — which is just as infeasible and must say so.
        broken = [
            replace(p, latency_threshold_s=1e-9) if index == 0 else p
            for index, p in enumerate(placed)
        ]
        with pytest.raises(InfeasibleError):
            solver.solve(build_problem(broken, profiles, catalog))

    def test_unrepairable_pool_budget_surfaces_through_full_fallback(self):
        catalog = multi_cloud_catalog()
        partitions = build_partitions(10, seed=3)
        profiles = build_profiles(partitions, seed=3)
        solver = DeltaSolver()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        pools = PoolSet.per_provider(
            catalog, {name: 1e-6 for name in catalog.provider_names}
        )
        with pytest.raises(InfeasibleError):
            solver.solve(build_problem(placed, profiles, catalog), pool_set=pools)


@pytest.mark.slow
class TestDeltaProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=4, max_value=40),
    )
    def test_zero_threshold_is_bit_exact(self, seed, count):
        """tau = 0: every moved forecast re-solves, so delta == full exactly."""
        rng = np.random.default_rng(seed)
        partitions = build_partitions(count, seed=seed)
        profiles = build_profiles(partitions, seed=seed + 1)
        solver = DeltaSolver(drift_threshold=0.0)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        mask = rng.random(count) < rng.uniform(0.1, 0.9)
        factors = rng.uniform(0.2, 5.0, size=count)
        drifted = [
            replace(p, predicted_accesses=p.predicted_accesses * factors[i])
            if mask[i]
            else p
            for i, p in enumerate(placed)
        ]
        problem = build_problem(drifted, profiles, catalog)
        report = solver.solve(problem)
        full = solve_optassign(problem, prefer="greedy")
        assert_same_assignment(report.assignment, full.assignment)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=4, max_value=40),
        threshold=st.floats(min_value=0.0, max_value=0.30),
    )
    def test_bounded_regret_under_random_drift(self, seed, count, threshold):
        """Delta objective <= full objective * (1 - tau) / (1 - 3 tau)."""
        rng = np.random.default_rng(seed)
        partitions = build_partitions(count, seed=seed)
        profiles = build_profiles(partitions, seed=seed + 1)
        solver = DeltaSolver(drift_threshold=threshold)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        mask = rng.random(count) < rng.uniform(0.1, 0.9)
        factors = rng.uniform(0.5, 2.0, size=count)
        drifted = [
            replace(p, predicted_accesses=p.predicted_accesses * factors[i])
            if mask[i]
            else p
            for i, p in enumerate(placed)
        ]
        problem = build_problem(drifted, profiles, catalog)
        report = solver.solve(problem)
        full = solve_optassign(problem, prefer="greedy")
        bound = (1.0 - threshold) / (1.0 - 3.0 * threshold)
        assert report.assignment.objective <= full.assignment.objective * bound + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=4, max_value=30),
    )
    def test_changed_all_matches_full_bit_exact(self, seed, count):
        rng = np.random.default_rng(seed)
        partitions = build_partitions(count, seed=seed)
        profiles = build_profiles(partitions, seed=seed + 1)
        solver = DeltaSolver(drift_threshold=0.1)
        catalog = azure_tier_catalog()
        placed, _ = stabilize(solver, partitions, profiles, catalog=catalog)
        factors = rng.uniform(0.2, 5.0, size=count)
        drifted = [
            replace(p, predicted_accesses=p.predicted_accesses * factors[i])
            for i, p in enumerate(placed)
        ]
        problem = build_problem(drifted, profiles, catalog)
        report = solver.solve(problem, changed=np.arange(count))
        full = solve_optassign(problem, prefer="greedy")
        assert_same_assignment(report.assignment, full.assignment)
