"""Columnar OPTASSIGN assembly: one private assembler, stacked profile
columns, span-sliced splits, the one-pass profile columns, their placement
on a wider scheme axis and the vectorized codec-pinning mask (from names and
from codes) — each checked against its per-row oracle
(``tests/oracles/problems.py``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    CompressionProfile,
    CostModel,
    DataPartition,
    PartitionArrays,
    azure_tier_catalog,
    codec_mask,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    Assignment,
    OptAssignProblem,
    solve_greedy,
)
from repro.core.optassign.problem import profile_columns
from repro.core.optassign.stacked import default_profile_columns, place_profile_columns
from repro.engine import OnlineTieringEngine, PeriodicReoptimize, SeriesStream
from oracles.plan import lone_problem
from oracles.problems import (
    carve,
    codec_allowed_loop,
    profile_columns_loop,
    split_choices,
    split_placements,
    stack,
    tenant_names,
    untag_split_placements,
)

#: Scheme sets per tenant: tenants differ, and so do rows within a tenant.
TENANT_SCHEMES = {
    "gz": ("gzip",),
    "plain": (),
    "fast": ("lz4", "snappy"),
    "mixed": ("gzip", "zstd"),
}


def profile(scheme: str, seed: int) -> CompressionProfile:
    return CompressionProfile(
        scheme, ratio=1.5 + 0.37 * seed, decompression_s_per_gb=0.2 + 0.05 * seed
    )


def tenant_problem(model: CostModel, schemes: tuple[str, ...], seed: int):
    rng = np.random.default_rng(seed)
    partitions = []
    profiles = {}
    for i in range(7):
        name = f"p{i}"
        # Every other row of a multi-scheme tenant lacks its last scheme.
        own = schemes if i % 2 == 0 else schemes[:-1]
        codec = own[0] if own and i == 3 else None
        partitions.append(
            DataPartition(
                name=name,
                size_gb=float(rng.uniform(1.0, 400.0)),
                predicted_accesses=float(rng.lognormal(1.0, 2.0)),
                latency_threshold_s=float(rng.choice([1.0, 60.0, 7200.0])),
                current_tier=int(rng.integers(-1, 3)),
                current_codec=codec,
            )
        )
        profiles[name] = {s: profile(s, seed + i + k) for k, s in enumerate(own)}
    return OptAssignProblem(partitions, model, profiles)


@pytest.fixture
def model():
    return CostModel(azure_tier_catalog(), duration_months=6.0)


@pytest.fixture
def stacked(model):
    return stack(
        {
            tenant: tenant_problem(model, schemes, seed=3 * index)
            for index, (tenant, schemes) in enumerate(TENANT_SCHEMES.items())
        }
    )


def fresh_columns(problem: OptAssignProblem):
    """The per-row ``_profile_columns`` loop on an uncached copy."""
    copy = OptAssignProblem._assemble(
        problem.cost_model,
        problem.partition_arrays(),
        problem._profiles,
        problem._latency_slo,
        problem._provider_affinity,
        problem.banned_tiers,
    )
    assert copy._profile_columns_cache is None
    return copy._profile_columns()


class TestStackedProfileColumns:
    def test_equal_the_per_row_loop_for_differing_scheme_sets(self, stacked):
        cached = stacked.problem._profile_columns_cache
        assert cached is not None  # seeded by stack(), no per-row loop at solve
        expected = fresh_columns(stacked.problem)
        assert cached[0] == expected[0] == ("gzip", "lz4", "none", "snappy", "zstd")
        for got, want in zip(cached[1:], expected[1:]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_stacked_tensors_equal_an_uncached_stack(self, stacked):
        uncached = OptAssignProblem._assemble(
            stacked.problem.cost_model,
            stacked.problem.partition_arrays(),
            stacked.problem._profiles,
            stacked.problem._latency_slo,
            stacked.problem._provider_affinity,
            stacked.problem.banned_tiers,
        )
        got, want = stacked.problem.batch_tensors(), uncached.batch_tensors()
        assert got.objective.tobytes() == want.objective.tobytes()
        assert got.feasible.tobytes() == want.feasible.tobytes()


def constrained_problem(model, seed, slo=None, affinity=None, banned=None):
    """A tenant problem with SLO caps, residency pins and banned tiers."""
    base = tenant_problem(model, ("gzip", "lz4"), seed)
    return OptAssignProblem(
        base.partition_arrays(),
        model,
        base._profiles,
        latency_slo_s=slo,
        provider_affinity=affinity,
        banned_tiers=banned,
    )


def uncached(problem: OptAssignProblem) -> OptAssignProblem:
    """The same instance with every cache empty: masks rebuilt from the
    name-keyed constraint maps."""
    return OptAssignProblem._assemble(
        problem.cost_model,
        problem.partition_arrays(),
        problem._profiles,
        problem._latency_slo,
        problem._provider_affinity,
        problem.banned_tiers,
    )


class TestTierMasks:
    @pytest.fixture
    def multi_model(self):
        return CostModel(multi_cloud_catalog(), duration_months=6.0)

    @pytest.fixture
    def constrained(self, multi_model):
        tiers = multi_model.tiers
        slo = sorted(tier.effective_slo_s for tier in tiers)[len(tiers) // 2]
        return {
            "capped": constrained_problem(multi_model, 1, slo={"p0": slo, "p4": 0.0}),
            "plain": constrained_problem(multi_model, 2),
            "pinned": constrained_problem(
                multi_model, 3, affinity={"p1": "aws_s3", "p2": ["gcp_gcs", "aws_s3"]}
            ),
            # Only this tenant sees the ban; the stack applies it to every row.
            "banned": constrained_problem(multi_model, 4, banned=[1]),
        }

    def test_stack_concatenates_the_tenant_masks(self, constrained):
        stacked = stack(constrained).problem
        want = uncached(stacked)
        assert stacked._tier_mask().tobytes() == want._tier_mask().tobytes()
        assert not stacked._tier_mask()[:, 1].any()
        got_tensors, want_tensors = stacked.batch_tensors(), want.batch_tensors()
        assert got_tensors.feasible.tobytes() == want_tensors.feasible.tobytes()
        assert got_tensors.objective.tobytes() == want_tensors.objective.tobytes()
        assert stacked.hard_mask_empty_partitions() == want.hard_mask_empty_partitions()
        assert "capped::p4" in stacked.hard_mask_empty_partitions()

    def test_unconstrained_stack_has_no_mask(self, multi_model):
        stacked = stack(
            {"a": constrained_problem(multi_model, 5), "b": constrained_problem(multi_model, 6)}
        ).problem
        assert stacked._tier_mask() is None
        assert uncached(stacked)._tier_mask() is None

    def test_carve_slices_and_relaxed_carries_the_masks(self, constrained):
        stacked = stack(constrained).problem
        rows = [0, 4, 9, 15, 16, 27]
        carved = carve(stacked, rows)
        assert carved._tier_mask().tobytes() == uncached(carved)._tier_mask().tobytes()
        assert carved.batch_tensors().feasible.tobytes() == (
            uncached(carved).batch_tensors().feasible.tobytes()
        )
        stacked.batch_tensors()
        relaxed = stacked.relaxed(2.0)
        assert relaxed._tier_mask() is stacked._tier_mask()
        assert relaxed._codec_mask() is stacked._codec_mask()
        assert relaxed.batch_tensors().feasible.tobytes() == (
            uncached(relaxed).batch_tensors().feasible.tobytes()
        )


class TestSplitBySpans:
    def test_placements_equal_the_untagging_split(self, stacked):
        assignment = solve_greedy(stacked.problem)
        assert split_placements(stacked, assignment) == untag_split_placements(
            stacked, assignment
        )

    def test_choice_order_does_not_matter(self, stacked):
        solved = solve_greedy(stacked.problem)
        assignment = Assignment.from_choices(
            stacked.problem,
            dict(reversed(list(solved.choices.items()))),
            solver="manual",
        )
        split = split_placements(stacked, assignment)
        assert split == untag_split_placements(stacked, assignment)
        for tenant, names in zip(stacked.tenants, tenant_names(stacked)):
            assert tuple(split[tenant]) == names  # row order, per tenant

    def test_partition_names_containing_the_separator(self, model):
        partitions = [
            DataPartition("a::b", size_gb=5.0, predicted_accesses=3.0),
            DataPartition("c", size_gb=7.0, predicted_accesses=0.0),
        ]
        stacked = stack({"t": OptAssignProblem(partitions, model)})
        assignment = solve_greedy(stacked.problem)
        assert set(split_placements(stacked, assignment)["t"]) == {"a::b", "c"}
        assert set(split_choices(stacked, assignment)["t"]) == {"a::b", "c"}


class TestOneAssembler:
    def test_every_construction_sets_the_init_attributes(self, model, stacked):
        base = tenant_problem(model, ("gzip", "zstd"), seed=1)
        reference = set(vars(base))
        partitions = [
            DataPartition(f"d{i}", size_gb=10.0 + i, predicted_accesses=5.0 * i)
            for i in range(5)
        ]
        engine = OnlineTieringEngine(
            partitions, model.tiers, PeriodicReoptimize(1)
        )
        validated = lone_problem(engine, 0)
        engine.step(next(iter(SeriesStream({p.name: [1.0] for p in partitions}))))
        reused = lone_problem(engine, 1)
        built = {
            "carve": carve(base, [0, 2, 5]),
            "relaxed": base.relaxed(2.0),
            "stack": stacked.problem,
            "engine (validated)": validated,
            "engine (reused)": reused,
        }
        for how, problem in built.items():
            assert set(vars(problem)) == reference, how


def arrays_with_codecs(codecs) -> PartitionArrays:
    return PartitionArrays.from_partitions(
        [
            DataPartition(f"p{i}", size_gb=1.0, predicted_accesses=1.0, current_codec=c)
            for i, c in enumerate(codecs)
        ]
    )


SCHEME_NAMES = ("gzip", "lz4", "none", "snappy", "zstd", "brotli")


class TestVectorizedCodecMask:
    @settings(max_examples=200, deadline=None)
    @given(
        axis=st.lists(st.sampled_from(SCHEME_NAMES), unique=True, max_size=5),
        codecs=st.lists(
            st.one_of(st.none(), st.sampled_from(SCHEME_NAMES)), min_size=1, max_size=12
        ),
    )
    def test_matches_the_per_row_loop(self, axis, codecs):
        arrays = arrays_with_codecs(codecs)
        got = CostModel._batch_codec_allowed(arrays, axis)
        want = codec_allowed_loop(arrays, axis)
        assert got.dtype == want.dtype == bool
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_unpinned_on_axis_and_off_axis_rows(self):
        arrays = arrays_with_codecs([None, "lz4", "brotli"])
        mask = CostModel._batch_codec_allowed(arrays, ("gzip", "lz4", "none"))
        assert mask.tolist() == [
            [True, True, True],  # unpinned: anything
            [False, True, False],  # pinned on the axis: only its codec
            [False, False, False],  # pinned off the axis: nothing
        ]


def column_bits(columns) -> tuple:
    schemes, ratio, decompression, available = columns
    return (
        schemes,
        ratio.shape,
        ratio.tobytes(),
        decompression.tobytes(),
        available.tobytes(),
    )


#: Per row, a subset of the schemes with its ratio and decompression draws.
profile_tables = st.lists(
    st.dictionaries(
        st.sampled_from(SCHEME_NAMES),
        st.tuples(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        ),
        max_size=4,
    ),
    max_size=12,
)


def as_profiles(tables) -> dict:
    return {
        f"p{n}": {
            scheme: CompressionProfile(scheme, ratio=ratio, decompression_s_per_gb=dec)
            for scheme, (ratio, dec) in table.items()
        }
        for n, table in enumerate(tables)
    }


class TestProfileColumnsInOnePass:
    @settings(max_examples=200, deadline=None)
    @given(tables=profile_tables, extra=st.lists(st.sampled_from(SCHEME_NAMES)))
    def test_matches_the_per_row_loop(self, tables, extra):
        profiles = as_profiles(tables)
        names = list(profiles)
        schemes = tuple(
            sorted({*extra, *(scheme for table in tables for scheme in table)})
        )
        got = profile_columns(names, profiles, schemes)
        want = profile_columns_loop(names, profiles, schemes)
        assert got[1].dtype == want[1].dtype == np.float64
        assert got[3].dtype == want[3].dtype == bool
        assert column_bits(got) == column_bits(want)

    def test_rows_in_a_different_order_and_repeated(self):
        profiles = as_profiles(
            [{"gzip": (2.0, 1.0)}, {}, {"lz4": (3.0, 0.5), "gzip": (4.0, 2.0)}]
        )
        names = ["p2", "p0", "p2", "p1"]
        schemes = ("gzip", "lz4", "none")
        assert column_bits(profile_columns(names, profiles, schemes)) == column_bits(
            profile_columns_loop(names, profiles, schemes)
        )


class TestCodecMaskFromCodes:
    @settings(max_examples=200, deadline=None)
    @given(
        axis=st.lists(st.sampled_from(SCHEME_NAMES), unique=True, max_size=5),
        codecs=st.lists(
            st.one_of(st.none(), st.sampled_from(SCHEME_NAMES)), min_size=1, max_size=12
        ),
    )
    def test_codes_give_the_per_row_mask(self, axis, codecs):
        position = {scheme: k for k, scheme in enumerate(axis)}
        codes = np.array(
            [-1 if codec is None else position.get(codec, len(axis)) for codec in codecs],
            dtype=np.intp,
        )
        got = codec_mask(codes, len(axis))
        want = codec_allowed_loop(arrays_with_codecs(codecs), axis)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestPlaceProfileColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        tables=profile_tables.filter(bool),
        extra=st.lists(st.sampled_from(SCHEME_NAMES)),
        data=st.data(),
    )
    def test_laying_rows_onto_a_wider_axis_equals_the_per_row_loop(
        self, tables, extra, data
    ):
        """Any rows, in any order and repeated, laid onto an axis holding
        more schemes read as the per-row build over that axis."""
        profiles = as_profiles(tables)
        names = list(profiles)
        own = tuple(sorted({scheme for table in tables for scheme in table}))
        axis = tuple(sorted({*own, *extra}))
        rows = data.draw(st.lists(st.integers(0, len(names) - 1), max_size=15))
        placed = place_profile_columns(
            profile_columns(names, profiles, own), np.array(rows, dtype=np.intp), axis
        )
        assert column_bits(placed) == column_bits(
            profile_columns_loop([names[row] for row in rows], profiles, axis)
        )

    def test_a_scheme_no_row_has_is_dropped(self):
        profiles = as_profiles([{"gzip": (2.0, 1.0)}, {"gzip": (3.0, 0.5)}])
        names = list(profiles)
        columns = profile_columns(names, profiles, ("gzip", "lz4", "zstd"))
        placed = place_profile_columns(columns, np.arange(2), ("gzip", "zstd"))
        assert column_bits(placed) == column_bits(
            profile_columns_loop(names, profiles, ("gzip", "zstd"))
        )

    def test_an_empty_axis_lays_the_defaults(self):
        placed = place_profile_columns(
            default_profile_columns((), 3), np.arange(3), ("gzip", "none")
        )
        assert column_bits(placed) == column_bits(
            profile_columns_loop(["a", "b", "c"], dict.fromkeys("abc", {}), ("gzip", "none"))
        )


class TestBlockPlacedProfileColumns:
    """A settle block keeps every written engine's profile columns on one
    sorted block-wide scheme axis; an engine that brings a new scheme grows
    the axis, and every engine is placed again on it."""

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)])
    def test_each_engine_reads_its_per_row_columns_on_the_block_axis(self, order):
        from repro.engine import SettleBlock

        catalog = multi_cloud_catalog()
        engines = []
        for index, schemes in enumerate(TENANT_SCHEMES.values()):
            problem = tenant_problem(
                CostModel(multi_cloud_catalog(), duration_months=6.0), schemes, 3 * index
            )
            engines.append(
                OnlineTieringEngine(
                    problem.partitions,
                    catalog,
                    PeriodicReoptimize(1),
                    profiles=problem._profiles,
                )
            )
        block = SettleBlock(engines)
        written = []
        for k in order:
            block._prepare(0, [k])
            written.append(k)
            axis = block._profile[0]
            assert axis == tuple(
                sorted({s for j in written for s in block._parts[j][4][0]})
            )
            for j in written:
                rows = slice(block._starts[j], block._starts[j + 1])
                placed = (axis, *(column[rows] for column in block._profile[1:]))
                engine = engines[j]
                want = profile_columns_loop(
                    engine._arrays.names, block._parts[j][0], axis
                )
                assert column_bits(placed) == column_bits(want), (order, j)
