"""Stacked (tenant-tagged) OPTASSIGN problems: the fleet's one-solve path.

The stacked greedy solve must reproduce every tenant's independent solve
choice for choice — the per-tenant path is the oracle.
"""

import numpy as np
import pytest

from oracles.problems import split_choices, split_placements, stack, untag
from repro.cloud import (
    CompressionProfile,
    CostModel,
    DataPartition,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    OptAssignProblem,
    TENANT_SEPARATOR,
    solve_greedy,
)


def tenant_problem(model, seed, count=6, with_profiles=True):
    rng = np.random.default_rng(seed)
    partitions = [
        DataPartition(
            name=f"p{i:02d}",
            size_gb=float(rng.uniform(1.0, 500.0)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0])),
            current_tier=int(rng.integers(-1, 3)),
        )
        for i in range(count)
    ]
    profiles = None
    if with_profiles:
        profiles = {
            partition.name: {
                "gzip": CompressionProfile(
                    "gzip",
                    ratio=float(rng.uniform(2.0, 6.0)),
                    decompression_s_per_gb=float(rng.uniform(0.5, 2.0)),
                ),
            }
            for partition in partitions
        }
    return OptAssignProblem(partitions, model, profiles)


@pytest.fixture
def model():
    return CostModel(azure_tier_catalog(), duration_months=6.0)


class TestStacking:
    def test_tagged_names_and_order(self, model):
        problems = {"acme": tenant_problem(model, 1), "globex": tenant_problem(model, 2)}
        stacked = stack(problems)
        assert stacked.tenants == ("acme", "globex")
        names = stacked.problem.partition_names
        assert names[0] == f"acme{TENANT_SEPARATOR}p00"
        assert names[6] == f"globex{TENANT_SEPARATOR}p00"
        assert len(names) == 12

    def test_untag_round_trip(self):
        tenant, name = untag("acme::partition::odd")
        assert tenant == "acme"
        assert name == "partition::odd"  # split once, from the left

    def test_untag_requires_tag(self):
        with pytest.raises(ValueError, match="no tenant tag"):
            untag("plain_name")

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            stack({})

    def test_tenant_name_with_separator_rejected(self, model):
        with pytest.raises(ValueError, match="may not contain"):
            stack({"a::b": tenant_problem(model, 1)})

    def test_different_catalog_objects_rejected(self):
        model_a = CostModel(azure_tier_catalog(), duration_months=6.0)
        model_b = CostModel(azure_tier_catalog(), duration_months=6.0)
        with pytest.raises(ValueError, match="different tier catalogs"):
            stack(
                {"a": tenant_problem(model_a, 1), "b": tenant_problem(model_b, 2)}
            )

    def test_different_pricing_rejected(self, model):
        other = CostModel(model.tiers, duration_months=12.0)
        with pytest.raises(ValueError, match="identical pricing"):
            stack(
                {"a": tenant_problem(model, 1), "b": tenant_problem(other, 2)}
            )

    def test_slo_and_affinity_carried_through(self):
        catalog = multi_cloud_catalog()
        model = CostModel(catalog, duration_months=6.0)
        partitions = [
            DataPartition("x", size_gb=10.0, predicted_accesses=5.0,
                          latency_threshold_s=60.0),
        ]
        problem = OptAssignProblem(
            partitions,
            model,
            latency_slo_s={"x": 0.05},
            provider_affinity={"x": "aws_s3"},
        )
        stacked = stack({"t": problem})
        tagged = f"t{TENANT_SEPARATOR}x"
        assert stacked.problem.slo_cap_for(tagged) == 0.05
        assert stacked.problem.providers_allowed_for(tagged) == frozenset({"aws_s3"})


class TestStackedSolveIsPerTenantSolve:
    def test_choices_match_independent_solves(self, model):
        problems = {
            f"tenant_{i}": tenant_problem(model, seed=10 + i, count=8)
            for i in range(3)
        }
        stacked = stack(problems)
        split = split_choices(stacked, solve_greedy(stacked.problem))
        for tenant, problem in problems.items():
            independent = solve_greedy(problem)
            assert set(split[tenant]) == set(independent.choices)
            for name, choice in independent.choices.items():
                stacked_choice = split[tenant][name]
                assert stacked_choice.tier_index == choice.tier_index
                assert stacked_choice.scheme == choice.scheme
                assert stacked_choice.objective == choice.objective  # bit-exact
                assert stacked_choice.partition == name  # untagged

    def test_heterogeneous_scheme_unions_keep_tie_breaks(self, model):
        # Tenant A offers gzip, tenant B none: the stacked scheme union is a
        # superset of each tenant's, which must not disturb per-tenant
        # enumeration order (sorted schemes restricted per partition).
        problems = {
            "with": tenant_problem(model, 5, with_profiles=True),
            "without": tenant_problem(model, 6, with_profiles=False),
        }
        stacked = stack(problems)
        split = split_choices(stacked, solve_greedy(stacked.problem))
        for tenant, problem in problems.items():
            independent = solve_greedy(problem)
            for name, choice in independent.choices.items():
                assert split[tenant][name].tier_index == choice.tier_index
                assert split[tenant][name].scheme == choice.scheme

    def test_split_placements_mirror_choices(self, model):
        problems = {"a": tenant_problem(model, 3), "b": tenant_problem(model, 4)}
        stacked = stack(problems)
        assignment = solve_greedy(stacked.problem)
        choices = split_choices(stacked, assignment)
        placements = split_placements(stacked, assignment)
        for tenant in problems:
            for name, choice in choices[tenant].items():
                decision = placements[tenant][name]
                assert decision.tier_index == choice.tier_index
                assert decision.profile.scheme == choice.scheme
