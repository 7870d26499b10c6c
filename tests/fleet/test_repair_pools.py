"""Pool-level capacity arbitration: repair_pools behaviour and edge cases."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.problems import stack
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
    InfeasibleError,
    OptAssignProblem,
    repair_pools,
    solve_greedy,
    solve_optassign,
)

# Table XII prices: premium storage 15, hot 2.08; premium read 0.004659,
# hot 0.01331 — read-heavy partitions prefer premium, and the regret of
# evicting one to hot grows with its read rate.
HORIZON = 6.0


def read_heavy_problem(reads, sizes=None, latency_s=60.0):
    catalog = azure_tier_catalog()
    model = CostModel(catalog, duration_months=HORIZON)
    sizes = sizes or [10.0] * len(reads)
    partitions = [
        DataPartition(
            name=f"p{i}",
            size_gb=float(size),
            predicted_accesses=float(rate),
            latency_threshold_s=latency_s,
        )
        for i, (rate, size) in enumerate(zip(reads, sizes))
    ]
    return OptAssignProblem(partitions, model)


class TestRepairPools:
    def test_slack_pool_returns_same_object(self):
        problem = read_heavy_problem([20_000.0, 20_000.0])
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 1000.0})
        assignment = solve_greedy(problem)
        assert repair_pools(assignment, pools) is assignment

    def test_overfull_pool_is_water_filled_to_budget(self):
        problem = read_heavy_problem([20_000.0, 20_000.0, 20_000.0])
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 15.0})
        assignment = solve_greedy(problem)
        assert assignment.tier_usage_gb()[0] == 30.0  # all three want premium
        repaired = repair_pools(assignment, pools)
        usage = repaired.tier_usage_gb()
        assert usage[0] <= 15.0 + 1e-9
        assert repaired.solver.endswith("+pools")
        # exactly one eviction was needed (10 GB each, 30 -> 20... still over,
        # two evictions: 30 -> 10)
        assert usage[0] == 10.0

    def test_minimum_regret_partition_moves_first(self):
        # p0 is less read-hot: its regret per freed GB of leaving premium is
        # the smallest, so it is the one evicted.
        problem = read_heavy_problem([10_000.0, 20_000.0])
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 10.0})
        repaired = repair_pools(solve_greedy(problem), pools)
        assert repaired.choices["p0"].tier_index != 0
        assert repaired.choices["p1"].tier_index == 0

    def test_moved_choice_costs_come_from_the_tensors(self):
        problem = read_heavy_problem([10_000.0, 20_000.0])
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 10.0})
        repaired = repair_pools(solve_greedy(problem), pools)
        moved = repaired.choices["p0"]
        tensors = problem.batch_tensors()
        index = problem.partition_names.index("p0")
        scheme = tensors.schemes.index(moved.scheme)
        assert moved.objective == float(
            tensors.objective[moved.tier_index, scheme, index]
        )
        assert moved.latency_s == float(
            tensors.latency_s[moved.tier_index, scheme, index]
        )

    def test_eviction_cascade_across_pools_terminates(self):
        # premium pool fits one partition, hot pool fits one more: the third
        # read-heavy partition is pushed premium -> hot -> cool in successive
        # rounds, and every pool ends within budget.
        problem = read_heavy_problem([20_000.0, 19_000.0, 18_000.0])
        pools = PoolSet.per_tier(
            problem.cost_model.tiers, {"premium": 10.0, "hot": 10.0}
        )
        repaired = repair_pools(solve_greedy(problem), pools)
        usage = repaired.tier_usage_gb()
        assert usage[0] <= 10.0 + 1e-9
        assert usage[1] <= 10.0 + 1e-9
        assert usage[2] >= 10.0  # someone landed in the unpooled cool tier

    def test_reserved_gb_shrinks_the_budget(self):
        problem = read_heavy_problem([20_000.0])
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 100.0})
        assignment = solve_greedy(problem)
        # Slack without reservations...
        assert repair_pools(assignment, pools) is assignment
        # ...but standing tenants already hold 95 of the 100 GB.
        repaired = repair_pools(assignment, pools, reserved_gb=np.array([95.0]))
        assert repaired.choices["p0"].tier_index != 0

    @pytest.mark.parametrize(
        "reserved", [np.zeros(2), np.array([-1.0])], ids=["shape", "negative"]
    )
    def test_reserved_gb_validation(self, reserved):
        problem = read_heavy_problem([10.0])
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 1.0})
        assignment = solve_greedy(problem)
        with pytest.raises(ValueError):
            repair_pools(assignment, pools, reserved_gb=reserved)

    def test_foreign_catalog_rejected(self):
        problem = read_heavy_problem([10.0])
        other_catalog = azure_tier_catalog()
        pools = PoolSet.per_tier(other_catalog, {"premium": 1.0})
        with pytest.raises(ValueError, match="different tier catalog"):
            repair_pools(solve_greedy(problem), pools)

    def test_unfixable_pool_raises_infeasible(self):
        # SLAs admit only the premium tier (hot's 61.4 ms latency exceeds the
        # 10 ms SLA), so nothing can leave the over-budget pool.
        problem = read_heavy_problem([100.0, 100.0], latency_s=0.01)
        pools = PoolSet.per_tier(problem.cost_model.tiers, {"premium": 10.0})
        with pytest.raises(InfeasibleError, match="pool arbitration failed"):
            repair_pools(solve_greedy(problem), pools)


MULTI_CLOUD = multi_cloud_catalog()
MULTI_CLOUD_MODEL = CostModel(MULTI_CLOUD, duration_months=HORIZON)


def random_stacked(num_tenants, rows_per_tenant, seed):
    rng = np.random.default_rng(seed)
    problems = {}
    for j in range(num_tenants):
        partitions = [
            DataPartition(
                name=f"p{i:03d}",
                size_gb=float(rng.uniform(1.0, 400.0)),
                predicted_accesses=float(rng.lognormal(1.0, 2.0)),
                latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0])),
                current_tier=int(rng.integers(-1, 3)),
            )
            for i in range(rows_per_tenant)
        ]
        profiles = {
            partition.name: {
                "gzip": CompressionProfile(
                    "gzip",
                    ratio=float(rng.uniform(2.0, 6.0)),
                    decompression_s_per_gb=float(rng.uniform(0.5, 2.0)),
                )
            }
            for partition in partitions
        }
        problems[f"t{j}"] = OptAssignProblem(partitions, MULTI_CLOUD_MODEL, profiles)
    return stack(problems)


def pool_usage_of(problem, assignment, pools):
    """Per-pool stored GB, summed row by row from the chosen options."""
    usage = np.zeros(len(MULTI_CLOUD))
    arrays = problem.partition_arrays()
    sizes = dict(zip(arrays.names, arrays.size_gb.tolist()))
    for name, option in assignment.choices.items():
        ratio = problem._profiles[name][option.scheme].ratio
        usage[option.tier_index] += sizes[name] / ratio
    return pools.usage(usage)


@given(
    num_tenants=st.integers(1, 4),
    rows=st.integers(2, 12),
    seed=st.integers(0, 1000),
    budget_factor=st.floats(0.5, 1.5),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pool_budgets_hold_after_arbitrated_solve(
    num_tenants, rows, seed, budget_factor
):
    # Per-provider budgets at 0.5-1.5x of what the unpooled solve stores:
    # the arbitrated solve (repair_pools inside the facade's relaxation
    # loop) either fits every pool or raises.
    stacked = random_stacked(num_tenants, rows, seed)
    unpooled = solve_optassign(stacked.problem, prefer="greedy")
    slack = PoolSet.per_provider(
        MULTI_CLOUD, {name: 1e12 for name in MULTI_CLOUD.provider_names}
    )
    per_pool = pool_usage_of(stacked.problem, unpooled.assignment, slack)
    budgets = {
        provider: float(max(used * budget_factor, 1.0))
        for provider, used in zip(MULTI_CLOUD.provider_names, per_pool)
    }
    pools = PoolSet.per_provider(MULTI_CLOUD, budgets)
    try:
        report = solve_optassign(
            stacked.problem,
            prefer="greedy",
            post_repair=lambda assignment: repair_pools(assignment, pools),
        )
    except InfeasibleError:
        return  # nothing fit even after the full relaxation ladder
    usage = pool_usage_of(stacked.problem, report.assignment, pools)
    assert (usage <= pools.capacities + 1e-6).all(), (usage, pools.capacities)
