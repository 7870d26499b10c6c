"""MigrationExecutor: billing moves, residency clocks, early-deletion penalties.

Placements are handed to the executor's move rule keyed by partition name
(``mapping_apply`` in ``tests/oracles/results.py``).
"""

import numpy as np
import pytest

from repro.cloud import (
    CompressionProfile,
    DataPartition,
    PlacementDecision,
    azure_tier_catalog,
)
from repro.cloud.tiers import NEW_DATA_TIER
from repro.engine import MigrationExecutor
from oracles.results import mapping_apply


@pytest.fixture
def tiers():
    return azure_tier_catalog(include_premium=False, include_archive=True)


def make_partition(name="p", tier=0, size_gb=100.0):
    return DataPartition(
        name=name, size_gb=size_gb, predicted_accesses=1.0, current_tier=tier
    )


def clocks(*months: float) -> np.ndarray:
    """A residency clock column, one entry per partition."""
    return np.array(months, dtype=np.float64)


INF = float("inf")


class TestApply:
    def test_new_data_pays_destination_write_only(self, tiers):
        partition = make_partition(tier=NEW_DATA_TIER)
        executor = MigrationExecutor(tiers)
        months = clocks(INF)
        report = mapping_apply(
            executor,
            [partition], None, {"p": PlacementDecision(tier_index=1)}, months
        )
        assert report.num_moved == 1
        assert report.migration_cost == pytest.approx(
            tiers[1].write_cost_for(100.0)
        )
        assert report.early_deletion_penalty == 0.0
        assert partition.current_tier == 1
        assert months[0] == 0.0

    def test_staying_put_is_free(self, tiers):
        partition = make_partition(tier=0)
        executor = MigrationExecutor(tiers)
        months = clocks(7.0)
        placement = {"p": PlacementDecision(tier_index=0)}
        report = mapping_apply(executor, [partition], placement, placement, months)
        assert report.num_moved == 0
        assert report.total_cost == 0.0
        assert months[0] == 7.0  # residency clock untouched

    def test_tier_move_pays_source_read_plus_destination_write(self, tiers):
        partition = make_partition(tier=0)
        executor = MigrationExecutor(tiers)
        old = {"p": PlacementDecision(tier_index=0)}
        new = {"p": PlacementDecision(tier_index=1)}
        report = mapping_apply(executor, [partition], old, new, clocks(INF))
        assert report.migration_cost == pytest.approx(
            tiers[0].read_cost_for(100.0) + tiers[1].write_cost_for(100.0)
        )
        assert partition.current_tier == 1

    def test_recompression_within_a_tier_is_billed(self, tiers):
        partition = make_partition(tier=0)
        executor = MigrationExecutor(tiers)
        gzip = CompressionProfile(scheme="gzip", ratio=4.0, decompression_s_per_gb=1.0)
        old = {"p": PlacementDecision(tier_index=0)}
        new = {"p": PlacementDecision(tier_index=0, profile=gzip)}
        report = mapping_apply(executor, [partition], old, new, clocks(INF))
        assert report.num_moved == 1
        # read 100 GB uncompressed out, write 25 GB compressed back
        assert report.migration_cost == pytest.approx(
            tiers[0].read_cost_for(100.0) + tiers[0].write_cost_for(25.0)
        )

    def test_early_exit_from_archive_is_penalised(self, tiers):
        archive = tiers.index_of("archive")
        partition = make_partition(tier=archive)
        executor = MigrationExecutor(tiers)
        months = clocks(2.0)  # archive demands 6 months residency
        report = mapping_apply(
            executor,
            [partition],
            {"p": PlacementDecision(tier_index=archive)},
            {"p": PlacementDecision(tier_index=0)},
            months,
        )
        assert report.early_deletion_penalty == pytest.approx(
            tiers[archive].storage_cost_for(100.0, 4.0)
        )

    def test_long_resident_data_exits_penalty_free(self, tiers):
        archive = tiers.index_of("archive")
        partition = make_partition(tier=archive)
        executor = MigrationExecutor(tiers)
        report = mapping_apply(
            executor,
            [partition],
            {"p": PlacementDecision(tier_index=archive)},
            {"p": PlacementDecision(tier_index=0)},
            clocks(12.0),
        )
        assert report.early_deletion_penalty == 0.0

    def test_applied_scheme_is_pinned_as_current_codec(self, tiers):
        partition = make_partition(tier=NEW_DATA_TIER)
        executor = MigrationExecutor(tiers)
        gzip = CompressionProfile(scheme="gzip", ratio=4.0, decompression_s_per_gb=1.0)
        mapping_apply(
            executor,
            [partition],
            None,
            {"p": PlacementDecision(tier_index=0, profile=gzip)},
            clocks(INF),
        )
        assert partition.current_codec == "gzip"

    def test_uncompressed_placement_leaves_codec_unpinned(self, tiers):
        partition = make_partition(tier=NEW_DATA_TIER)
        executor = MigrationExecutor(tiers)
        mapping_apply(
            executor,
            [partition], None, {"p": PlacementDecision(tier_index=0)}, clocks(INF)
        )
        assert partition.current_codec is None

    def test_precompressed_partition_staying_put_without_old_placement_is_free(
        self, tiers
    ):
        """Bootstrapping over data already stored compressed must not bill a
        phantom re-encode when tier and scheme both stay the same."""
        gzip = CompressionProfile(scheme="gzip", ratio=4.0, decompression_s_per_gb=1.0)
        partition = DataPartition(
            name="p",
            size_gb=100.0,
            predicted_accesses=1.0,
            current_tier=0,
            current_codec="gzip",
        )
        executor = MigrationExecutor(tiers)
        months = clocks(9.0)
        report = mapping_apply(
            executor,
            [partition], None, {"p": PlacementDecision(tier_index=0, profile=gzip)}, months
        )
        assert report.num_moved == 0
        assert report.total_cost == 0.0
        assert months[0] == 9.0  # residency clock untouched

    def test_bootstrap_tier_move_of_precompressed_data_reads_compressed_size(
        self, tiers
    ):
        gzip = CompressionProfile(scheme="gzip", ratio=4.0, decompression_s_per_gb=1.0)
        partition = DataPartition(
            name="p",
            size_gb=100.0,
            predicted_accesses=1.0,
            current_tier=0,
            current_codec="gzip",
        )
        executor = MigrationExecutor(tiers)
        report = mapping_apply(
            executor,
            [partition],
            None,
            {"p": PlacementDecision(tier_index=1, profile=gzip)},
            clocks(INF),
        )
        # the data moves tiers at its stored (compressed) 25 GB, not 100 GB
        assert report.moved_gb == pytest.approx(25.0)
        assert report.migration_cost == pytest.approx(
            tiers[0].read_cost_for(25.0) + tiers[1].write_cost_for(25.0)
        )

    def test_missing_partition_in_new_placement_raises(self, tiers):
        executor = MigrationExecutor(tiers)
        with pytest.raises(KeyError):
            mapping_apply(executor, [make_partition()], None, {}, clocks(INF))

    def test_incomplete_placement_raises_before_mutating_anything(self, tiers):
        """Validation must precede mutation — a partial apply would leave
        moves un-billed and residency clocks half-reset."""
        first = make_partition("a", tier=0)
        second = make_partition("b", tier=0)
        executor = MigrationExecutor(tiers)
        months = clocks(5.0, 5.0)
        with pytest.raises(KeyError):
            mapping_apply(
                executor,
                [first, second], None, {"a": PlacementDecision(tier_index=1)}, months
            )
        assert first.current_tier == 0
        assert months.tolist() == [5.0, 5.0]


def test_tick_advances_all_clocks():
    months = clocks(1.0, 0.0, INF)
    MigrationExecutor.tick(months)
    assert months.tolist() == [2.0, 1.0, INF]
    MigrationExecutor.tick(months, months=0.25)
    assert months.tolist() == [2.25, 1.25, INF]
    with pytest.raises(ValueError, match="non-negative"):
        MigrationExecutor.tick(months, months=-1.0)
