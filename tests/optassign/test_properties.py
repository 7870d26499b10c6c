"""Property-based invariants for the cost model and the OPTASSIGN solvers.

The example-based equivalence suite pins specific seeds; this suite lets
hypothesis drive randomized instances — including random tier-SLO caps and
provider-affinity masks over the multi-cloud catalog — through four
invariants:

1. the billed total is monotone in partition size and in access/event counts;
2. every ``solve_greedy`` choice satisfies the feasibility masks (latency
   SLA, tier SLO, provider affinity, codec pinning), and when greedy raises
   the instance really has an all-infeasible partition;
3. ``repair_capacity`` never increases the capacity violation and never
   breaks per-partition feasibility;
4. the vectorized and scalar greedy paths return *identical* assignments
   (same tiers, same schemes, bit-identical objectives) under random
   SLO/affinity masks — or fail with identical errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Hypothesis-driven randomized sweeps dominate the suite's runtime; keep the
# inner loop fast with `-m "not slow"`.
pytestmark = pytest.mark.slow

from repro.cloud import (
    AccessEvent,
    CloudStorageSimulator,
    CompressionProfile,
    CostModel,
    DataPartition,
    PlacementDecision,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    InfeasibleError,
    OptAssignProblem,
    repair_capacity,
    solve_greedy,
)
from oracles.results import scalar_greedy

SLO_CAP_CHOICES = (0.05, 0.1, 0.2, 1.0, 3600.0)
PROVIDER_NAMES = ("aws_s3", "azure_blob", "gcp_gcs")


def random_masked_instance(seed: int, count: int, duration_months: float = 6.0):
    """A randomized multi-cloud instance with random SLO caps and affinities."""
    rng = np.random.default_rng(seed)
    partitions = [
        DataPartition(
            name=f"p{i:03d}",
            size_gb=float(rng.lognormal(2.0, 1.5)),
            predicted_accesses=float(rng.lognormal(1.0, 2.0)),
            latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0, float("inf")])),
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
    latency_slo_s = {
        partition.name: float(rng.choice(SLO_CAP_CHOICES))
        for partition in partitions
        if rng.random() < 0.4
    }
    provider_affinity = {}
    for partition in partitions:
        if rng.random() < 0.3:
            size = int(rng.integers(1, len(PROVIDER_NAMES) + 1))
            chosen = rng.choice(len(PROVIDER_NAMES), size=size, replace=False)
            provider_affinity[partition.name] = frozenset(
                PROVIDER_NAMES[i] for i in chosen
            )
    model = CostModel(multi_cloud_catalog(), duration_months=duration_months)
    problem = OptAssignProblem(
        partitions,
        model,
        profiles,
        latency_slo_s=latency_slo_s,
        provider_affinity=provider_affinity,
    )
    return problem


def assert_choice_feasible(problem: OptAssignProblem, name: str, option) -> None:
    """Re-derive every feasibility mask from first principles for one choice."""
    partition = next(p for p in problem.partitions if p.name == name)
    tiers = problem.cost_model.tiers
    tier = tiers[option.tier_index]
    profile = problem.profile_for(name, option.scheme)
    latency = problem.cost_model.access_latency_s(partition, option.tier_index, profile)
    assert latency <= partition.latency_threshold_s
    cap = problem.slo_cap_for(name)
    if cap is not None:
        assert tier.effective_slo_s <= cap
    allowed = problem.providers_allowed_for(name)
    if allowed is not None:
        assert tiers.provider_of(option.tier_index) in allowed
    if partition.current_codec is not None:
        assert option.scheme == partition.current_codec


class TestBillMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size_gb=st.floats(min_value=0.01, max_value=1000.0),
        accesses=st.floats(min_value=0.0, max_value=10_000.0),
        growth=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_total_monotone_in_size_and_accesses(self, seed, size_gb, accesses, growth):
        rng = np.random.default_rng(seed)
        catalog = multi_cloud_catalog()
        model = CostModel(catalog, duration_months=float(rng.uniform(0.5, 24.0)))
        tier_index = int(rng.integers(0, len(catalog)))
        profile = CompressionProfile(
            "gzip",
            ratio=float(rng.uniform(1.0, 6.0)),
            decompression_s_per_gb=float(rng.uniform(0.0, 2.0)),
        )
        base = DataPartition(
            "p", size_gb=size_gb, predicted_accesses=accesses,
            current_tier=int(rng.integers(-1, len(catalog))),
        )
        bigger = DataPartition(
            "p", size_gb=size_gb * growth, predicted_accesses=accesses,
            current_tier=base.current_tier,
        )
        hotter = DataPartition(
            "p", size_gb=size_gb, predicted_accesses=accesses * growth,
            current_tier=base.current_tier,
        )
        total = model.placement_breakdown(base, tier_index, profile).total
        assert model.placement_breakdown(bigger, tier_index, profile).total >= total
        assert model.placement_breakdown(hotter, tier_index, profile).total >= total

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        growth=st.floats(min_value=1.0, max_value=50.0),
    )
    def test_simulated_bill_monotone_in_event_counts(self, seed, growth):
        rng = np.random.default_rng(seed)
        catalog = azure_tier_catalog()
        simulator = CloudStorageSimulator(catalog)
        partitions = [
            DataPartition(f"p{i}", size_gb=float(rng.uniform(1.0, 100.0)),
                          predicted_accesses=1.0)
            for i in range(4)
        ]
        placement = {
            partition.name: PlacementDecision(tier_index=int(rng.integers(0, len(catalog))))
            for partition in partitions
        }
        events = [
            AccessEvent(month=0, partition=f"p{int(rng.integers(0, 4))}",
                        reads=float(rng.uniform(0.0, 20.0)))
            for _ in range(6)
        ]
        scaled = [
            AccessEvent(month=event.month, partition=event.partition,
                        reads=event.reads * growth)
            for event in events
        ]
        base = simulator.step_month(partitions, placement, events)
        more = simulator.step_month(partitions, placement, scaled)
        assert more.bill.total >= base.bill.total


class TestGreedyFeasibility:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=60),
    )
    def test_choices_satisfy_every_mask_or_raise_is_justified(self, seed, count):
        problem = random_masked_instance(seed, count)
        try:
            assignment = solve_greedy(problem)
        except InfeasibleError:
            # The raise must be justified: some partition has no feasible cell.
            feasible_any = problem.batch_tensors().feasible.any(axis=(0, 1))
            assert not feasible_any.all()
            return
        for name, option in assignment.choices.items():
            assert_choice_feasible(problem, name, option)


class TestRepairCapacity:
    def bounded_instance(self, seed: int, count: int, fractions):
        rng = np.random.default_rng(seed)
        partitions = [
            DataPartition(
                name=f"p{i:03d}",
                size_gb=float(rng.uniform(5.0, 100.0)),
                predicted_accesses=float(rng.lognormal(1.0, 1.5)),
                latency_threshold_s=float(rng.choice([60.0, 7200.0])),
                current_tier=0,
            )
            for i in range(count)
        ]
        total = sum(partition.size_gb for partition in partitions)
        capacities = [max(fraction * total, 1.0) for fraction in fractions]
        capacities.append(float("inf"))
        catalog = azure_tier_catalog().with_capacities(capacities)
        model = CostModel(catalog, duration_months=6.0)
        return OptAssignProblem(partitions, model)

    @staticmethod
    def capacity_violation(assignment) -> float:
        usage = assignment.tier_usage_gb()
        tiers = assignment.problem.cost_model.tiers
        return float(
            sum(max(0.0, used - tier.capacity_gb) for used, tier in zip(usage, tiers))
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=2, max_value=50),
        f0=st.floats(min_value=0.05, max_value=0.6),
        f1=st.floats(min_value=0.05, max_value=0.6),
        f2=st.floats(min_value=0.05, max_value=0.6),
    )
    def test_repair_never_increases_violation(self, seed, count, f0, f1, f2):
        problem = self.bounded_instance(seed, count, (f0, f1, f2))
        greedy = solve_greedy(problem, enforce_unbounded=False)
        before = self.capacity_violation(greedy)
        try:
            repaired = repair_capacity(greedy)
        except InfeasibleError:
            # Give-up is only legal when there was a violation to begin with.
            assert before > 0.0
            return
        after = self.capacity_violation(repaired)
        assert after <= before + 1e-9
        assert repaired.is_capacity_feasible()
        # Evictions may only land on feasible cells.
        for name, option in repaired.choices.items():
            assert_choice_feasible(problem, name, option)


class TestVectorizedScalarEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=80),
    )
    def test_identical_under_random_slo_affinity_masks(self, seed, count):
        problem = random_masked_instance(seed, count)
        fast_error = reference_error = None
        fast = reference = None
        try:
            fast = solve_greedy(problem)
        except InfeasibleError as error:
            fast_error = str(error)
        try:
            reference = scalar_greedy(problem)
        except InfeasibleError as error:
            reference_error = str(error)
        assert fast_error == reference_error
        if fast is None:
            return
        for name in problem.partition_names:
            chosen, expected = fast.choices[name], reference.choices[name]
            assert chosen.tier_index == expected.tier_index
            assert chosen.scheme == expected.scheme
            assert chosen.objective == expected.objective  # bit-identical
            assert chosen.breakdown.as_dict() == expected.breakdown.as_dict()
        assert fast.objective == pytest.approx(reference.objective, rel=1e-12)
