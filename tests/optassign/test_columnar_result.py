"""Columnar solve results against their per-row oracles.

Greedy gathers, capacity/pool repair, the stacked split and the delta
solver's column cache must reproduce the object-at-a-time implementations in
``tests/oracles/results.py`` bit for bit: every ``CandidateOption`` field the
lazy ``choices`` view builds, every aggregate, every repaired row and every
split decision.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CapacityPool,
    CompressionProfile,
    CostModel,
    DataPartition,
    PoolSet,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    Assignment,
    DeltaSolver,
    InfeasibleError,
    OptAssignProblem,
    repair_pools,
    solve_greedy,
)
from repro.core.optassign.capacity import _repair_groups_impl
from repro.core.optassign.delta import _restricted_differences
from oracles.problems import carve, split_choices, split_placements, stack, tenant_names
from oracles.results import (
    dict_aggregates,
    dict_repair_groups,
    eager_greedy_choices,
    per_name_constraint_changes,
    row_split_placements,
    scalar_greedy,
)

SCHEMES = ("gzip", "snappy", "zstd")


def bits(value) -> bytes:
    return struct.pack("<d", value)


def option_bits(option) -> tuple:
    """Every field of an option, floats compared by their bit pattern."""
    return (
        option.partition,
        type(option.tier_index),
        option.tier_index,
        option.scheme,
        bits(option.objective),
        tuple(bits(value) for value in astuple(option.breakdown)),
        bits(option.latency_s),
        option.latency_feasible,
        option.codec_allowed,
        option.slo_feasible,
        option.provider_allowed,
    )


def random_problem(seed: int, count: int, catalog=None, prefix: str = "p"):
    """Random rows with per-row scheme subsets (so unions differ) and pins."""
    rng = np.random.default_rng(seed)
    catalog = catalog if catalog is not None else azure_tier_catalog()
    partitions = []
    profiles = {}
    for i in range(count):
        name = f"{prefix}{i:03d}"
        own = [s for s in SCHEMES if rng.uniform() < 0.5]
        profiles[name] = {
            scheme: CompressionProfile(
                scheme,
                ratio=float(rng.uniform(1.2, 6.0)),
                decompression_s_per_gb=float(rng.uniform(0.02, 2.0)),
            )
            for scheme in own
        }
        pinned = own[0] if own and rng.uniform() < 0.2 else None
        partitions.append(
            DataPartition(
                name=name,
                size_gb=float(rng.lognormal(2.0, 1.5)),
                predicted_accesses=float(rng.lognormal(1.0, 2.0)),
                # A pinned row may only use its codec, so it gets no SLA.
                latency_threshold_s=(
                    float("inf")
                    if pinned
                    else float(rng.choice([60.0, 7200.0, float("inf")]))
                ),
                current_tier=int(rng.integers(-1, len(catalog))),
                read_fraction=float(rng.uniform(0.05, 1.0)),
                pushdown_fraction=float(rng.uniform(0.0, 0.6)),
                current_codec=pinned,
            )
        )
    return OptAssignProblem(partitions, CostModel(catalog, duration_months=6.0), profiles)


class TestGreedyView:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 40))
    def test_every_view_field_equals_the_eager_compose(self, seed, count):
        problem = random_problem(seed, count)
        assignment = solve_greedy(problem)
        eager = eager_greedy_choices(problem)
        assert list(assignment.choices) == list(eager)  # row order
        for name, option in eager.items():
            assert option_bits(assignment.choices[name]) == option_bits(option)
        assert assignment.choices[problem.partition_names[0]] is (
            assignment.choices[problem.partition_names[0]]
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 40))
    def test_aggregates_equal_the_per_option_sums(self, seed, count):
        problem = random_problem(seed, count)
        assignment = solve_greedy(problem)
        want = dict_aggregates(problem, eager_greedy_choices(problem))
        assert bits(assignment.objective) == bits(want["objective"])
        assert astuple(assignment.breakdown) == astuple(want["breakdown"])
        assert assignment.tier_counts() == want["tier_counts"]
        assert list(assignment.scheme_counts().items()) == list(
            want["scheme_counts"].items()
        )
        assert assignment.tier_usage_gb() == want["tier_usage_gb"]
        assert assignment.max_read_latency_s() == want["max_read_latency_s"]
        assert assignment.latency_violations() == []

    def test_aggregates_keep_the_per_option_rounding(self):
        # 1e16 + 1.0 - 1e16 is 0.0 with plain adds but 1.0 with the built-in
        # sum on Python 3.12+, which compensates: the objective must round
        # like sum() and the breakdown like its += loop on every interpreter.
        problem = random_problem(3, 3)
        greedy = solve_greedy(problem)
        priced = np.empty_like(greedy.priced)
        priced[:] = [1e16, 1.0, -1e16]
        crafted = Assignment(
            problem, greedy.tier, greedy.scheme, greedy.schemes, priced, "crafted"
        )
        want = dict_aggregates(problem, crafted.choices)
        assert bits(crafted.objective) == bits(want["objective"])
        assert bits(crafted.objective) == bits(sum([1e16, 1.0, -1e16]))
        assert [bits(v) for v in astuple(crafted.breakdown)] == [
            bits(v) for v in astuple(want["breakdown"])
        ]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 25))
    def test_from_choices_round_trips_the_scalar_oracle(self, seed, count):
        problem = random_problem(seed, count)
        scalar = {
            partition.name: min(
                problem.options_for(partition), key=lambda option: option.objective
            )
            for partition in problem.partitions
        }
        assignment = scalar_greedy(problem)
        for name, option in scalar.items():
            assert option_bits(assignment.choices[name]) == option_bits(option)

    def test_choices_view_is_read_only(self):
        assignment = solve_greedy(random_problem(3, 5))
        with pytest.raises(TypeError):
            assignment.choices["p000"] = None
        assert "p000" in assignment.choices and "nope" not in assignment.choices
        assert len(assignment.choices) == 5


def squeezed_groups(problem, assignment, kind: str, fraction: float):
    """(group_of_tier, capacities) squeezing the greedy solution's hottest
    tier (capacity) or its two hottest tiers as one pool (pools)."""
    usage = np.asarray(assignment.tier_usage_gb())
    order = np.argsort(-usage, kind="stable")
    tiers = problem.tier_count
    if kind == "capacity":
        capacities = np.full(tiers, np.inf)
        capacities[order[0]] = usage[order[0]] * fraction
        return np.arange(tiers, dtype=np.int64), capacities
    group_of_tier = np.full(tiers, -1, dtype=np.int64)
    group_of_tier[order[:2]] = 0
    return group_of_tier, np.array([usage[order[:2]].sum() * fraction])


class TestRepairColumns:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(2, 40),
        kind=st.sampled_from(["capacity", "pools"]),
        fraction=st.floats(0.2, 1.1),
    )
    def test_repair_equals_the_dict_repair(self, seed, count, kind, fraction):
        problem = random_problem(seed, count)
        assignment = solve_greedy(problem)
        group_of_tier, capacities = squeezed_groups(problem, assignment, kind, fraction)
        try:
            want, want_rounds, want_evictions = dict_repair_groups(
                problem, eager_greedy_choices(problem), group_of_tier, capacities
            )
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                _repair_groups_impl(
                    assignment, group_of_tier, capacities, lambda *a: "", "+x", 1e-9
                )
            return
        got, rounds, evictions = _repair_groups_impl(
            assignment, group_of_tier, capacities, lambda *a: "", "+x", 1e-9
        )
        assert (rounds, evictions) == (want_rounds, want_evictions)
        assert (got is assignment) == (evictions == 0)
        for name, option in want.items():
            assert option_bits(got.choices[name]) == option_bits(option)

    def test_pool_repair_with_evictions_through_the_public_pass(self):
        catalog = azure_tier_catalog()
        problem = OptAssignProblem(
            [
                DataPartition(f"p{i}", size_gb=10.0, predicted_accesses=20_000.0 - i,
                              latency_threshold_s=60.0)
                for i in range(4)
            ],
            CostModel(catalog, duration_months=6.0),
        )
        pools = PoolSet.per_tier(catalog, {catalog[0].name: 15.0})
        assignment = solve_greedy(problem)
        repaired = repair_pools(assignment, pools)
        want, _, evictions = dict_repair_groups(
            problem, eager_greedy_choices(problem), pools.pool_of_tier, pools.capacities
        )
        assert evictions == 3
        assert repaired.solver == "greedy+pools"
        for name, option in want.items():
            assert option_bits(repaired.choices[name]) == option_bits(option)


class TestSplitColumns:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), tenants=st.integers(1, 4))
    def test_split_equals_the_per_row_split(self, seed, tenants):
        catalog = azure_tier_catalog()
        problems = {
            f"t{k}": random_problem(seed + k, 1 + (seed + k) % 9, catalog)
            for k in range(tenants)
        }
        stacked = stack(problems)
        assignment = solve_greedy(stacked.problem)
        want = row_split_placements(stacked, eager_greedy_choices(stacked.problem))
        got = split_placements(stacked, assignment)
        assert got == want
        for tenant, decisions in want.items():
            columns = got[tenant]
            assert list(columns) == list(decisions)
            assert columns.tier.tolist() == [d.tier_index for d in decisions.values()]
            assert columns.ratio.tolist() == [d.profile.ratio for d in decisions.values()]
            assert columns.decompression_s_per_gb.tolist() == [
                d.profile.decompression_s_per_gb for d in decisions.values()
            ]
            for name, decision in decisions.items():
                assert columns[name].profile is decision.profile

    def test_split_choices_carry_untagged_names(self):
        catalog = azure_tier_catalog()
        stacked = stack(
            {"a": random_problem(1, 3, catalog), "b": random_problem(2, 2, catalog)}
        )
        assignment = solve_greedy(stacked.problem)
        eager = eager_greedy_choices(stacked.problem)
        split = split_choices(stacked, assignment)
        for tenant, names in zip(stacked.tenants, tenant_names(stacked)):
            for name in names:
                want = replace(eager[f"{tenant}::{name}"], partition=name)
                assert option_bits(split[tenant][name]) == option_bits(want)


class TestCarveSlicesProfileColumns:
    @staticmethod
    def per_row_columns(carved: OptAssignProblem):
        uncached = OptAssignProblem._assemble(
            carved.cost_model,
            carved.partition_arrays(),
            carved._profiles,
            carved._latency_slo,
            carved._provider_affinity,
            carved.banned_tiers,
        )
        return uncached._profile_columns()

    @staticmethod
    def assert_columns_equal(got, want):
        assert got[0] == want[0]
        for left, right in zip(got[1:], want[1:]):
            assert left.dtype == right.dtype and left.shape == right.shape
            assert left.tobytes() == right.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 30), data=st.data())
    def test_slice_equals_the_per_row_build(self, seed, count, data):
        problem = random_problem(seed, count)
        problem._profile_columns()
        rows = data.draw(
            st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True)
        )
        carved = carve(problem, np.asarray(rows))
        assert carved._profile_columns_cache is not None
        self.assert_columns_equal(carved._profile_columns(), self.per_row_columns(carved))
        assert carved.batch_tensors().objective.tobytes() == (
            problem.batch_tensors().objective
            [:, [problem.scheme_union().index(s) for s in carved.scheme_union()]]
            [:, :, np.asarray(rows)]
        ).tobytes()

    def test_a_scheme_no_carved_row_has_drops_out(self):
        model = CostModel(azure_tier_catalog(), duration_months=6.0)
        partitions = [DataPartition(f"p{i}", size_gb=5.0 + i, predicted_accesses=3.0)
                      for i in range(3)]
        profiles = {"p0": {"gzip": CompressionProfile("gzip", 3.0, 0.5)},
                    "p2": {"zstd": CompressionProfile("zstd", 4.0, 0.25)}}
        problem = OptAssignProblem(partitions, model, profiles)
        assert problem.scheme_union() == ("gzip", "none", "zstd")
        carved = carve(problem, np.array([2, 1]))
        assert carved.scheme_union() == ("none", "zstd")
        self.assert_columns_equal(carved._profile_columns(), self.per_row_columns(carved))

    def test_uncached_parent_keeps_the_per_row_build(self):
        problem = random_problem(5, 6)
        carved = carve(problem, np.array([0, 3]))
        assert carved._profile_columns_cache is None
        self.assert_columns_equal(carved._profile_columns(), self.per_row_columns(carved))


def with_accesses(problem: OptAssignProblem, scale: np.ndarray) -> OptAssignProblem:
    arrays = problem.partition_arrays()
    return OptAssignProblem._assemble(
        problem.cost_model,
        replace(arrays, predicted_accesses=arrays.predicted_accesses * scale),
        problem._profiles,
        problem._latency_slo,
        problem._provider_affinity,
        problem.banned_tiers,
    )


def settled(problem: OptAssignProblem, assignment: Assignment) -> OptAssignProblem:
    """The instance warm-started where ``assignment`` put the data."""
    arrays = problem.partition_arrays()
    return OptAssignProblem._assemble(
        problem.cost_model,
        replace(arrays, current_tier=assignment.tier.copy()),
        problem._profiles,
        problem._latency_slo,
        problem._provider_affinity,
        problem.banned_tiers,
    )


class TestDeltaColumns:
    def test_pinned_rows_keep_the_cents_they_were_solved_at(self):
        solver = DeltaSolver(drift_threshold=0.2)
        problem = random_problem(11, 30)
        first = solver.solve(problem).assignment
        problem = settled(problem, first)
        base = solver.solve(problem)
        scale = np.ones(30)
        scale[::3] = 5.0  # re-solved
        scale[1::3] = 1.05  # pinned, but re-pricing would move their cents
        report = solver.solve(with_accesses(problem, scale))
        assert report.mode == "delta" and report.num_pinned > 0
        changed = set(np.asarray(problem.partition_names)[::3])
        for name in problem.partition_names:
            if name not in changed:
                assert option_bits(report.assignment.choices[name]) == option_bits(
                    base.assignment.choices[name]
                )

    def test_choices_iterate_in_row_order(self):
        solver = DeltaSolver(drift_threshold=0.1)
        problem = random_problem(12, 12)
        problem = settled(problem, solver.solve(problem).assignment)
        solver.solve(problem)
        scale = np.ones(12)
        scale[-3:] = 4.0
        report = solver.solve(with_accesses(problem, scale))
        assert report.mode == "delta" and report.num_changed == 3
        assert list(report.assignment.choices) == problem.partition_names

    def test_repair_rebase_matches_the_identity_test(self):
        # Four read-hot rows want premium, whose pool holds two.  Boosting
        # one evicted row re-solves it into premium; the pool repair then
        # evicts the cheapest-regret premium row, which may be pinned.
        catalog = azure_tier_catalog()
        model = CostModel(catalog, duration_months=6.0)
        reads = np.array([10_000.0, 12_000.0, 14_000.0, 16_000.0])
        problem = OptAssignProblem(
            [DataPartition(f"p{i}", size_gb=10.0, predicted_accesses=float(r),
                           latency_threshold_s=60.0) for i, r in enumerate(reads)],
            model,
        )
        pools = PoolSet(catalog, [CapacityPool("premium", (catalog[0].name,), 25.0)])
        solver = DeltaSolver(drift_threshold=0.1)
        first = solver.solve(problem, pool_set=pools).assignment
        problem = settled(problem, first)
        solver.solve(problem, pool_set=pools)
        evicted = [i for i in range(4) if first.tier[i] != 0]
        scale = np.full(4, 1.05)  # drift under the threshold everywhere
        scale[evicted[0]] = 10.0
        drifted = with_accesses(problem, scale)
        cached = Assignment(
            problem, solver._tier, solver._scheme, solver._schemes, solver._priced, "cache"
        )
        previous = {
            name: cached.option_at(row) for row, name in enumerate(problem.partition_names)
        }
        old_features = solver._features["predicted_accesses"].copy()
        report = solver.solve(drifted, pool_set=pools)
        assert report.mode == "delta" and report.repaired
        # The identity test on dicts: compose (pinned objects + re-solved
        # rows), repair, and see which pinned objects were replaced.
        changed = {problem.partition_names[evicted[0]]}
        composed = dict(previous)
        sub = carve(drifted, np.array(sorted(evicted[:1])))
        composed.update(eager_greedy_choices(sub))
        composed = {name: composed[name] for name in problem.partition_names}
        repaired, _, evictions = dict_repair_groups(
            drifted, composed, pools.pool_of_tier, pools.capacities
        )
        assert evictions >= 1
        updated = [
            name in changed or repaired[name] is not composed[name]
            for name in problem.partition_names
        ]
        assert any(u and n not in changed for u, n in zip(updated, problem.partition_names))
        fresh = drifted.partition_arrays().predicted_accesses
        want = np.where(updated, fresh, old_features)
        assert solver._features["predicted_accesses"].tobytes() == want.tobytes()
        for name, option in repaired.items():
            assert option_bits(report.assignment.choices[name]) == option_bits(option)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_cache_columns_stay_aligned(self, seed, data):
        catalog = azure_tier_catalog()
        tenants = {f"t{k}": random_problem(seed + k, 4 + k, catalog, prefix=f"t{k}_")
                   for k in range(3)}
        solver = DeltaSolver(drift_threshold=0.1)
        expected: dict[str, tuple] = {}
        rng = np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(["solve", "solve", "forget", "invalidate", "reprice"]))
            if op == "solve":
                chosen = [t for t in tenants if rng.uniform() < 0.7] or ["t0"]
                stacked = stack(
                    {t: with_accesses(tenants[t], rng.choice([1.0, 1.05, 3.0],
                                                              size=4 + int(t[1])))
                     for t in chosen}
                )
                assignment = solver.solve(stacked.problem).assignment
                stored = assignment.stored_gb()
                for row, name in enumerate(stacked.problem.partition_names):
                    expected[name] = (
                        int(assignment.tier[row]),
                        assignment.schemes[assignment.scheme[row]],
                        assignment.priced[:, row].tobytes(),
                        bits(stored[row]),
                    )
            elif op == "forget" and solver._names:
                gone = set(rng.choice(solver._names, size=2))
                solver.forget(gone)
                for name in gone:
                    expected.pop(name, None)
            elif op == "invalidate" and solver._names:
                solver.invalidate(set(rng.choice(solver._names, size=2)))
            elif op == "reprice":
                solver.note_repricing(catalog, {int(rng.integers(0, len(catalog)))},
                                      decreased=bool(rng.uniform() < 0.3))
            if solver._names is None:
                assert not expected
                continue
            count = len(solver._names)
            assert set(solver._names) == set(expected)
            assert solver._tier.shape == solver._scheme.shape == solver._stored.shape == (count,)
            assert solver._priced.shape == (6, count)
            assert len(solver._codec) == count
            assert all(column.shape == (count,) for column in solver._features.values())
            for i, name in enumerate(solver._names):
                assert expected[name] == (
                    int(solver._tier[i]),
                    solver._schemes[solver._scheme[i]],
                    solver._priced[:, i].tobytes(),
                    bits(solver._stored[i]),
                )


class TestDeltaChangeDetection:
    """The gates compare against the cache restricted to the instance."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_changed_mask_equals_the_per_name_scan(self, seed, data):
        catalog = multi_cloud_catalog()
        providers = list(catalog.provider_names)
        tenants = {f"t{k}": random_problem(seed + k, 5, catalog, prefix=f"t{k}_")
                   for k in range(3)}
        solver = DeltaSolver(drift_threshold=0.1)
        solver.solve(stack(tenants).problem)
        subset = stack({"t0": tenants["t0"], "t2": tenants["t2"]}).problem
        baseline = solver._detect_changes(subset, subset.partition_arrays(), None)[0]

        names = subset.partition_names
        draw_names = lambda: data.draw(st.sets(st.sampled_from(names), max_size=4))
        slo = dict(subset._latency_slo)
        for name in draw_names():
            slo[name] = data.draw(st.sampled_from([0.1, 1.0, 3600.0]))
        for name in draw_names():
            slo.pop(name, None)
        affinity = dict(subset._provider_affinity)
        for name in draw_names():
            affinity[name] = frozenset([data.draw(st.sampled_from(providers))])
        profiles = dict(subset._profiles)
        for name in draw_names():
            profiles[name] = {
                scheme: CompressionProfile(scheme, p.ratio * 1.5, p.decompression_s_per_gb)
                for scheme, p in profiles[name].items()
            }
        edited = OptAssignProblem._assemble(
            subset.cost_model, subset.partition_arrays(), profiles, slo, affinity,
            subset.banned_tiers,
        )
        outside = [n for n in solver._names if n.startswith("t1::")]
        solver.invalidate(draw_names() | set(outside[:2]))
        flagged = draw_names() or None
        row_index = edited.partition_arrays().row_index()
        hint = (
            None
            if flagged is None
            else np.array([row_index[name] for name in sorted(flagged)])
        )
        got = solver._detect_changes(edited, edited.partition_arrays(), hint)[0]
        want = baseline | per_name_constraint_changes(solver, edited, flagged)
        assert got.tolist() == want.tolist()

    def test_an_unedited_subset_passes_every_gate(self):
        catalog = multi_cloud_catalog()
        tenants = {f"t{k}": random_problem(30 + k, 5, catalog, prefix=f"t{k}_")
                   for k in range(3)}
        stacked = stack(tenants).problem
        slo = {name: 3600.0 for name in stacked.partition_names[::2]}
        affinity = {name: frozenset(["aws_s3"]) for name in stacked.partition_names[1::3]}
        solver = DeltaSolver()
        solver.solve(OptAssignProblem._assemble(
            stacked.cost_model, stacked.partition_arrays(), stacked._profiles, slo,
            affinity, frozenset(),
        ))
        subset = stack({"t1": tenants["t1"]}).problem
        names = subset.partition_names
        row_index = subset.partition_arrays().row_index()
        sub_slo = {n: c for n, c in slo.items() if n in row_index}
        sub_affinity = {n: a for n, a in affinity.items() if n in row_index}
        assert sub_slo and sub_affinity
        assert _restricted_differences(sub_slo, solver._slo, row_index) == []
        assert _restricted_differences(sub_affinity, solver._affinity, row_index) == []
        assert subset._profiles.items() <= solver._profiles.items()
        edited = dict(sub_slo)
        edited[names[-1]] = 0.5
        assert _restricted_differences(edited, solver._slo, row_index) == [names[-1]]

    def test_constraint_removal_on_a_subset_is_detected(self):
        catalog = multi_cloud_catalog()
        tenants = {f"t{k}": random_problem(40 + k, 4, catalog, prefix=f"t{k}_")
                   for k in range(2)}
        stacked = stack(tenants).problem
        slo = {name: 3600.0 for name in stacked.partition_names}
        with_slo = OptAssignProblem._assemble(
            stacked.cost_model, stacked.partition_arrays(), stacked._profiles, slo,
            {}, frozenset(),
        )
        solver = DeltaSolver()
        solver.solve(with_slo)
        one = stack({"t0": tenants["t0"]}).problem  # no SLO caps
        got = solver._detect_changes(one, one.partition_arrays(), None)[0]
        assert got.all()
        assert per_name_constraint_changes(solver, one).all()
