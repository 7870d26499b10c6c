"""Tests for the OPTASSIGN problem definition and assignment results."""

import pytest

from repro.cloud import (
    CompressionProfile,
    CostModel,
    CostWeights,
    DataPartition,
    azure_tier_catalog,
)
from repro.core.optassign import OptAssignProblem, solve_greedy


def make_profiles(names, ratio=3.0, speed=2.0):
    return {
        name: {
            "gzip": CompressionProfile("gzip", ratio=ratio, decompression_s_per_gb=speed),
            "snappy": CompressionProfile("snappy", ratio=ratio / 2, decompression_s_per_gb=speed / 4),
        }
        for name in names
    }


@pytest.fixture
def problem(sample_partitions, full_cost_model):
    names = [p.name for p in sample_partitions]
    return OptAssignProblem(sample_partitions, full_cost_model, make_profiles(names))


class TestProblem:
    def test_none_scheme_always_available(self, problem, sample_partitions):
        for partition in sample_partitions:
            assert "none" in problem.schemes_for(partition)

    def test_tier_and_partition_counts(self, problem):
        assert problem.tier_count == 4
        assert len(problem.partition_names) == 5

    def test_duplicate_partition_names_rejected(self, full_cost_model):
        partition = DataPartition("p", size_gb=1.0, predicted_accesses=1.0)
        with pytest.raises(ValueError):
            OptAssignProblem([partition, partition], full_cost_model)

    def test_empty_partition_list_rejected(self, full_cost_model):
        with pytest.raises(ValueError):
            OptAssignProblem([], full_cost_model)

    def test_profile_scheme_key_mismatch_rejected(self, full_cost_model):
        partition = DataPartition("p", size_gb=1.0, predicted_accesses=1.0)
        bad = {"p": {"gzip": CompressionProfile("snappy", 2.0, 0.1)}}
        with pytest.raises(ValueError):
            OptAssignProblem([partition], full_cost_model, bad)

    def test_pinned_codec_requires_profile(self, full_cost_model):
        partition = DataPartition(
            "p", size_gb=1.0, predicted_accesses=1.0, current_tier=0, current_codec="zstd"
        )
        with pytest.raises(ValueError):
            OptAssignProblem([partition], full_cost_model)

    def test_options_respect_latency(self, problem, sample_partitions):
        strict = next(p for p in sample_partitions if p.name == "hot_small")
        options = problem.options_for(strict)
        archive_index = problem.cost_model.tiers.index_of("archive")
        assert options
        assert all(option.tier_index != archive_index for option in options)

    def test_include_infeasible_keeps_all_combinations(self, problem, sample_partitions):
        partition = sample_partitions[0]
        all_options = problem.options_for(partition, include_infeasible=True)
        assert len(all_options) == problem.tier_count * len(problem.schemes_for(partition))

    def test_options_respect_codec_pinning(self, full_cost_model):
        pinned = DataPartition(
            "p", size_gb=1.0, predicted_accesses=1.0, current_tier=0, current_codec="gzip"
        )
        problem = OptAssignProblem([pinned], full_cost_model, make_profiles(["p"]))
        schemes = {option.scheme for option in problem.options_for(pinned)}
        assert schemes == {"gzip"}

    def test_stored_gb_divides_by_ratio(self, problem, sample_partitions):
        partition = sample_partitions[1]
        assert problem.stored_gb(partition, "gzip") == pytest.approx(partition.size_gb / 3.0)
        assert problem.stored_gb(partition, "none") == pytest.approx(partition.size_gb)

    def test_has_finite_capacity(self, sample_partitions, full_cost_model):
        unbounded = OptAssignProblem(sample_partitions, full_cost_model)
        assert not unbounded.has_finite_capacity()
        bounded_catalog = azure_tier_catalog(capacities=[10.0, float("inf"), float("inf"), float("inf")])
        bounded_model = CostModel(bounded_catalog, duration_months=1.0)
        bounded = OptAssignProblem(sample_partitions, bounded_model)
        assert bounded.has_finite_capacity()

    def test_relaxed_multiplies_thresholds(self, problem):
        relaxed = problem.relaxed(10.0)
        original = {p.name: p.latency_threshold_s for p in problem.partitions}
        for partition in relaxed.partitions:
            if original[partition.name] != float("inf"):
                assert partition.latency_threshold_s == pytest.approx(
                    original[partition.name] * 10.0
                )

    def test_relaxed_rejects_shrinking(self, problem):
        with pytest.raises(ValueError):
            problem.relaxed(0.5)


class TestAssignment:
    def test_summary_and_counts(self, problem):
        assignment = solve_greedy(problem)
        summary = assignment.summary()
        assert summary["total_cost"] == pytest.approx(assignment.breakdown.total)
        assert sum(assignment.tier_counts()) == len(problem.partitions)
        assert sum(assignment.scheme_counts().values()) == len(problem.partitions)
        assert assignment.is_latency_feasible()
        assert assignment.is_capacity_feasible()

    def test_objective_matches_sum_of_choices(self, problem):
        assignment = solve_greedy(problem)
        assert assignment.objective == pytest.approx(
            sum(option.objective for option in assignment.choices.values())
        )

    def test_to_placement_round_trips_through_simulator_format(self, problem):
        assignment = solve_greedy(problem)
        placement = assignment.to_placement()
        assert set(placement) == set(problem.partition_names)
        for name, decision in placement.items():
            assert decision.tier_index == assignment.choices[name].tier_index

    def test_tier_usage_accounts_for_compression(self, problem):
        assignment = solve_greedy(problem)
        usage = assignment.tier_usage_gb()
        assert sum(usage) <= sum(p.size_gb for p in problem.partitions) + 1e-9

    def test_missing_partition_rejected(self, problem):
        assignment = solve_greedy(problem)
        incomplete = dict(list(assignment.choices.items())[:-1])
        from repro.core.optassign import Assignment

        with pytest.raises(ValueError):
            Assignment.from_choices(problem, incomplete, solver="manual")
