"""The cost tensors' layout and the candidate order the solvers read it in.

``CostModel.batch_tensors`` lays every full tensor out C-contiguous
``(T, K, N)`` (tiers, schemes, partitions) and every per-scheme column
``(K, N)``.  The greedy argmin runs down the flattened ``(T * K, N)``
candidate axis, so among exactly tied cells it must keep the scalar loop's
pick: the first feasible (tier, scheme) with tiers outer and sorted schemes
inner, skipping a cheaper cell its masks rule out.  Capacity repair re-picks
among the same tied cells the same way.
"""

from __future__ import annotations

import struct
from dataclasses import astuple

import numpy as np

from repro.cloud import (
    CompressionProfile,
    CostModel,
    DataPartition,
    StorageTier,
    TierCatalog,
)
from repro.core.optassign import OptAssignProblem, repair_capacity, solve_greedy
from oracles.results import dict_repair_groups, scalar_greedy

FULL_TENSORS = ("storage", "read", "write", "objective", "latency_s", "feasible")
SCHEME_COLUMNS = ("stored_gb", "decompression_s", "decompression")


def tiers(twin_capacity_gb: float = float("inf")) -> TierCatalog:
    """A cheap tier whose published SLO no partition accepts, two tiers with
    the same prices (so they tie exactly), and a dear one."""
    return TierCatalog(
        [
            StorageTier("cheap", 0.5, 0.25, 0.5, latency_s=0.01, slo_latency_s=100.0),
            StorageTier("twin_a", 1.0, 0.25, 0.5, latency_s=0.01,
                        capacity_gb=twin_capacity_gb),
            StorageTier("twin_b", 1.0, 0.25, 0.5, latency_s=0.02),
            StorageTier("dear", 4.0, 0.25, 0.5, latency_s=0.02),
        ]
    )


def tied_problem(twin_capacity_gb: float = float("inf")) -> OptAssignProblem:
    """Two partitions whose two codecs have the same profile, so the
    cheapest feasible cells tie across tiers twin_a/twin_b and schemes
    lz_a/lz_b; the cheap tier is cheaper still but masked by each
    partition's SLO cap."""
    partitions = [
        DataPartition(name, size_gb=size, predicted_accesses=2.0, latency_threshold_s=60.0)
        for name, size in (("p0", 8.0), ("p1", 16.0))
    ]
    profiles = {
        partition.name: {
            scheme: CompressionProfile(scheme, ratio=2.0, decompression_s_per_gb=0.125)
            for scheme in ("lz_a", "lz_b")
        }
        for partition in partitions
    }
    return OptAssignProblem(
        partitions,
        CostModel(tiers(twin_capacity_gb), duration_months=6.0),
        profiles,
        latency_slo_s={partition.name: 10.0 for partition in partitions},
    )


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def choice_bits(option) -> tuple:
    return (
        option.tier_index,
        option.scheme,
        bits(option.objective),
        tuple(bits(value) for value in astuple(option.breakdown)),
        bits(option.latency_s),
    )


class TestLayout:
    def test_tensors_are_c_contiguous_tiers_schemes_partitions(self):
        tensors = tied_problem().batch_tensors()
        assert tensors.schemes == ("lz_a", "lz_b", "none")
        shape = (tensors.num_tiers, tensors.num_schemes, tensors.num_partitions)
        assert shape == (4, 3, 2)
        for name in FULL_TENSORS:
            array = getattr(tensors, name)
            assert array.shape == (4, 3, 2), name
            assert array.flags.c_contiguous, name
        for name in SCHEME_COLUMNS:
            array = getattr(tensors, name)
            assert array.shape == (3, 2), name
            assert array.flags.c_contiguous, name


class TestTieBreak:
    def test_the_instance_ties_behind_a_masked_cheaper_cell(self):
        tensors = tied_problem().batch_tensors()
        for n in range(2):
            objective = tensors.objective[:, :, n]
            tied = objective[1:3, 0:2]
            assert (tied == tied[0, 0]).all()
            assert objective[0, 0] < tied[0, 0]
            assert not tensors.feasible[0, :, n].any()
            assert tensors.feasible[1:3, 0:2, n].all()

    def test_greedy_takes_the_first_feasible_tied_cell(self):
        problem = tied_problem()
        got = solve_greedy(problem)
        want = scalar_greedy(problem)
        for name in ("p0", "p1"):
            choice = got.choices[name]
            assert (choice.tier_index, choice.scheme) == (1, "lz_a")
            assert choice_bits(choice) == choice_bits(want.choices[name])

    def test_capacity_repair_repicks_the_first_tied_cell_elsewhere(self):
        # twin_a holds p1's 8 GB but not p0's 4 GB as well; both evictions
        # cost nothing (the twin_b cells tie), so p0 leaves first and takes
        # twin_b with the first tied scheme.
        problem = tied_problem(twin_capacity_gb=9.0)
        greedy = solve_greedy(problem, enforce_unbounded=False)
        got = repair_capacity(greedy)
        capacities = problem.cost_model.tiers.cost_arrays()["capacity_gb"]
        want, rounds, evictions = dict_repair_groups(
            problem,
            scalar_greedy(problem).choices,
            np.arange(len(capacities)),
            capacities,
        )
        assert (rounds, evictions) == (1, 1)
        assert (got.choices["p0"].tier_index, got.choices["p0"].scheme) == (2, "lz_a")
        assert (got.choices["p1"].tier_index, got.choices["p1"].scheme) == (1, "lz_a")
        for name in ("p0", "p1"):
            assert choice_bits(got.choices[name]) == choice_bits(want[name])
