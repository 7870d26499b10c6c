"""The vectorized fast paths must agree with the scalar reference oracles.

The columnar pipeline (PartitionArrays -> CostModel.batch_tensors -> masked
argmin) re-implements arithmetic the scalar code already defines; these tests
pin the contract from the ISSUE: assignments bit-for-bit identical, costs to
1e-9 (relative), on seeded randomized instances that exercise codec pinning,
pushdown, partial reads, new data and latency-infeasible corners.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cloud import (
    CompressionProfile,
    CostModel,
    CostWeights,
    DataPartition,
    PartitionArrays,
    azure_tier_catalog,
)
from repro.core.optassign import (
    OptAssignProblem,
    repair_capacity,
    solve_greedy,
    solve_ilp,
    solve_optassign,
)
from oracles.results import scalar_greedy


def random_instance(seed, count=200, pin_codecs=True, tight_latency=False):
    rng = np.random.default_rng(seed)
    thresholds = [0.05, 1.0, 60.0, 7200.0] if tight_latency else [1.0, 60.0, 7200.0]
    partitions = [
        DataPartition(
            name=f"p{i:04d}",
            size_gb=float(rng.lognormal(3.0, 2.0)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice(thresholds)),
            current_tier=int(rng.integers(-1, 3)),
            read_fraction=float(rng.uniform(0.05, 1.0)),
            pushdown_fraction=float(rng.uniform(0.0, 0.6)),
        )
        for i in range(count)
    ]
    profiles = {
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
    # A few partitions with no compression profiles at all (tier-only).
    for i in range(3, count, 31):
        profiles.pop(partitions[i].name)
    if pin_codecs:
        # Pinned partitions drop their latency SLA: a pinned slow codec can
        # make every option infeasible, which is the (separately tested)
        # raise path rather than an assignable instance.
        for i in range(0, count, 17):
            if partitions[i].name in profiles:
                partitions[i] = replace(
                    partitions[i],
                    current_codec="gzip",
                    latency_threshold_s=float("inf"),
                )
        for i in range(5, count, 23):
            if partitions[i].name in profiles:
                partitions[i] = replace(
                    partitions[i],
                    current_codec="snappy",
                    latency_threshold_s=float("inf"),
                )
    return partitions, profiles


class TestPartitionArraysRoundTrip:
    def test_round_trip_is_lossless(self):
        partitions, _ = random_instance(seed=11, count=64)
        partitions[7] = replace(
            partitions[7], file_ids=frozenset({"f1", "f2"}), current_codec="gzip"
        )
        arrays = PartitionArrays.from_partitions(partitions)
        assert arrays.to_partitions() == partitions

    def test_derived_columns_match_properties(self):
        partitions, _ = random_instance(seed=13, count=50)
        arrays = PartitionArrays.from_partitions(partitions)
        for i, partition in enumerate(partitions):
            assert arrays.effective_accesses[i] == partition.effective_accesses
            assert arrays.read_gb_per_access[i] == partition.read_gb_per_access
        assert arrays.index_of(partitions[31].name) == 31


class TestBatchTensorsAgainstScalar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_cell_bit_identical_to_options_for(self, seed):
        partitions, profiles = random_instance(seed=seed, count=40)
        model = CostModel(
            azure_tier_catalog(),
            duration_months=6.0,
            weights=CostWeights(alpha=1.0, beta=2.5, gamma=0.7),
        )
        problem = OptAssignProblem(partitions, model, profiles)
        tensors = problem.batch_tensors()
        scheme_index = {scheme: k for k, scheme in enumerate(tensors.schemes)}
        for n, partition in enumerate(problem.partitions):
            options = problem.options_for(partition, include_infeasible=True)
            seen = set()
            for option in options:
                t, k = option.tier_index, scheme_index[option.scheme]
                seen.add((t, k))
                assert tensors.objective[t, k, n] == option.objective
                assert tensors.storage[t, k, n] == option.breakdown.storage
                assert tensors.read[t, k, n] == option.breakdown.read
                assert tensors.write[t, k, n] == option.breakdown.write
                assert tensors.decompression[k, n] == option.breakdown.decompression
                assert tensors.latency_s[t, k, n] == option.latency_s
                assert bool(tensors.feasible[t, k, n]) == option.feasible
                profile = problem.profile_for(partition.name, option.scheme)
                assert tensors.stored_gb[k, n] == profile.compressed_gb(partition.size_gb)
                assert tensors.decompression_s[k, n] == profile.decompression_seconds(
                    partition.read_gb_per_access
                )
            # Cells for schemes this partition has no profile for are masked.
            for t in range(tensors.num_tiers):
                for k in range(tensors.num_schemes):
                    if (t, k) not in seen:
                        assert not tensors.feasible[t, k, n]


class TestVectorizedGreedyEqualsScalar:
    @pytest.mark.parametrize("seed", [3, 7, 42, 91])
    def test_assignments_bit_for_bit(self, seed):
        partitions, profiles = random_instance(seed=seed, count=250)
        model = CostModel(azure_tier_catalog(), duration_months=6.0)
        problem = OptAssignProblem(partitions, model, profiles)
        fast = solve_greedy(problem)
        reference = scalar_greedy(problem)
        for name in problem.partition_names:
            chosen, expected = fast.choices[name], reference.choices[name]
            assert chosen.tier_index == expected.tier_index
            assert chosen.scheme == expected.scheme
            assert chosen.objective == expected.objective  # bit-identical
            assert chosen.breakdown.as_dict() == expected.breakdown.as_dict()
        assert fast.objective == pytest.approx(reference.objective, rel=1e-9)
        assert fast.total_cost == pytest.approx(reference.total_cost, rel=1e-9)

    def test_tier_only_instances_agree(self):
        partitions, _ = random_instance(seed=5, count=150, pin_codecs=False)
        model = CostModel(azure_tier_catalog(include_premium=False), duration_months=3.0)
        problem = OptAssignProblem(partitions, model)
        fast = solve_greedy(problem)
        reference = scalar_greedy(problem)
        assert {n: (c.tier_index, c.scheme) for n, c in fast.choices.items()} == {
            n: (c.tier_index, c.scheme) for n, c in reference.choices.items()
        }

    def test_infeasible_partitions_raise_identically(self):
        partitions, profiles = random_instance(seed=9, count=30)
        partitions[4] = replace(partitions[4], latency_threshold_s=1e-9)
        model = CostModel(azure_tier_catalog(), duration_months=6.0)
        problem = OptAssignProblem(partitions, model, profiles)
        with pytest.raises(ValueError) as fast_error:
            solve_greedy(problem)
        with pytest.raises(ValueError) as reference_error:
            scalar_greedy(problem)
        assert str(fast_error.value) == str(reference_error.value)

    def test_accepts_partition_arrays_input(self):
        partitions, profiles = random_instance(seed=21, count=60)
        model = CostModel(azure_tier_catalog(), duration_months=6.0)
        arrays = PartitionArrays.from_partitions(partitions)
        from_arrays = solve_greedy(OptAssignProblem(arrays, model, profiles))
        from_list = solve_greedy(OptAssignProblem(partitions, model, profiles))
        assert {n: (c.tier_index, c.scheme) for n, c in from_arrays.choices.items()} == {
            n: (c.tier_index, c.scheme) for n, c in from_list.choices.items()
        }


class TestCapacityRepair:
    def build_bounded(self, seed=17, count=80):
        rng = np.random.default_rng(seed)
        partitions = [
            DataPartition(
                name=f"p{i:03d}",
                size_gb=float(rng.uniform(10.0, 100.0)),
                predicted_accesses=float(rng.lognormal(1.0, 1.5)),
                latency_threshold_s=7200.0,
                current_tier=0,
            )
            for i in range(count)
        ]
        total = sum(partition.size_gb for partition in partitions)
        tiers = azure_tier_catalog(include_premium=False).with_capacities(
            [total * 0.3, total * 0.5, float("inf")]
        )
        model = CostModel(tiers, duration_months=6.0)
        return OptAssignProblem(partitions, model)

    def test_repair_restores_capacity_feasibility(self):
        problem = self.build_bounded()
        greedy = solve_greedy(problem, enforce_unbounded=False)
        assert not greedy.is_capacity_feasible()
        repaired = repair_capacity(greedy)
        assert repaired.is_capacity_feasible()
        assert repaired.solver == "greedy+repair"
        assert repaired.is_latency_feasible()

    def test_repair_is_noop_when_already_feasible(self):
        partitions, profiles = random_instance(seed=2, count=40)
        model = CostModel(azure_tier_catalog(), duration_months=6.0)
        problem = OptAssignProblem(partitions, model, profiles)
        assignment = solve_greedy(problem)
        assert repair_capacity(assignment) is assignment

    def test_repaired_objective_bounded_by_ilp_optimum(self):
        problem = self.build_bounded()
        repaired = repair_capacity(solve_greedy(problem, enforce_unbounded=False))
        exact = solve_ilp(problem)
        assert repaired.objective >= exact.objective - 1e-6

    def test_facade_prefers_repair_for_greedy_on_bounded_instances(self):
        problem = self.build_bounded()
        report = solve_optassign(problem, prefer="greedy")
        assert report.assignment.solver == "greedy+repair"
        assert report.assignment.is_capacity_feasible()
