"""Tests for multi-cloud provider catalogs, egress pricing and SLO metadata.

The load-bearing contracts: a :class:`MultiProviderCatalog` is a valid
``TierCatalog`` (so every existing consumer works unchanged), its scalar
``tier_change_cost`` and vectorized ``change_cost_matrix`` agree cell for
cell including egress, and the executor/simulator bill cross-provider egress
on exactly the moves that cross a provider boundary.
"""

import math

import numpy as np
import pytest

from repro.cloud import (
    CloudProvider,
    CloudStorageSimulator,
    CompressionProfile,
    CostModel,
    DataPartition,
    MultiProviderCatalog,
    NEW_DATA_TIER,
    PlacementDecision,
    ProviderBuilder,
    StorageTier,
    TierCatalog,
    aws_s3,
    azure_blob,
    gcp_gcs,
    multi_cloud_catalog,
)
from repro.engine import MigrationExecutor
from oracles.results import mapping_apply


@pytest.fixture
def combined() -> MultiProviderCatalog:
    return multi_cloud_catalog()


class TestStorageTierSlo:
    def test_effective_slo_defaults_to_latency(self):
        tier = StorageTier("hot", 2.0, 0.01, 0.01, latency_s=0.05)
        assert tier.slo_latency_s is None
        assert tier.effective_slo_s == 0.05

    def test_published_slo_wins(self):
        tier = StorageTier("hot", 2.0, 0.01, 0.01, latency_s=0.05, slo_latency_s=0.2)
        assert tier.effective_slo_s == 0.2

    def test_negative_slo_rejected(self):
        with pytest.raises(ValueError):
            StorageTier("hot", 2.0, 0.01, 0.01, latency_s=0.05, slo_latency_s=-1.0)

    def test_cost_arrays_carry_effective_slo(self):
        catalog = TierCatalog(
            [
                StorageTier("a", 1.0, 0.1, 0.1, latency_s=0.01, slo_latency_s=0.5),
                StorageTier("b", 1.0, 0.1, 0.1, latency_s=0.02),
            ]
        )
        np.testing.assert_array_equal(
            catalog.cost_arrays()["effective_slo_s"], [0.5, 0.02]
        )


class TestSingleProviderDefaults:
    def test_plain_catalog_has_default_provider(self):
        catalog = TierCatalog([StorageTier("only", 1.0, 0.1, 0.1, latency_s=0.01)])
        assert catalog.provider_names == ("default",)
        assert catalog.provider_of(0) == "default"
        assert catalog.egress_cost_per_gb(0, 0) == 0.0
        with pytest.raises(IndexError):
            catalog.provider_of(5)


class TestCloudProvider:
    def test_presets_are_valid(self):
        for preset in (aws_s3(), azure_blob(), gcp_gcs()):
            catalog = preset.catalog()
            assert len(catalog) == 4
            assert preset.egress_cost_per_gb > 0
            # Every preset publishes an SLO on every tier.
            assert all(tier.slo_latency_s is not None for tier in catalog)

    def test_name_validation(self):
        tier = StorageTier("t", 1.0, 0.1, 0.1, latency_s=0.01)
        with pytest.raises(ValueError):
            CloudProvider(name="", tiers=(tier,))
        with pytest.raises(ValueError):
            CloudProvider(name="a/b", tiers=(tier,))
        with pytest.raises(ValueError):
            CloudProvider(name="x", tiers=(tier,), egress_cost_per_gb=-1.0)

    def test_tier_ordering_enforced(self):
        fast = StorageTier("fast", 1.0, 0.1, 0.1, latency_s=0.01)
        slow = StorageTier("slow", 0.5, 0.5, 0.1, latency_s=1.0)
        with pytest.raises(ValueError):
            CloudProvider(name="x", tiers=(slow, fast))

    def test_builder_round_trip(self):
        provider = (
            ProviderBuilder("onprem", egress_cost_per_gb=0.5)
            .tier("ssd", 5.0, 0.001, 0.001, latency_s=0.001, slo_latency_s=0.005)
            .tier("hdd", 1.0, 0.01, 0.01, latency_s=0.02)
            .build()
        )
        assert provider.name == "onprem"
        assert provider.egress_cost_per_gb == 0.5
        assert provider.catalog().names == ("ssd", "hdd")

    def test_builder_requires_tiers(self):
        with pytest.raises(ValueError):
            ProviderBuilder("empty").build()


class TestMultiProviderCatalog:
    def test_is_a_tier_catalog_sorted_by_latency(self, combined):
        assert isinstance(combined, TierCatalog)
        latencies = [tier.latency_s for tier in combined]
        assert latencies == sorted(latencies)
        assert len(combined) == 12

    def test_names_are_prefixed_and_resolvable(self, combined):
        assert "aws_s3/standard" in combined.names
        index = combined.global_index("gcp_gcs", "archive")
        assert combined[index].storage_cost == pytest.approx(0.12)
        assert combined.provider_of(index) == "gcp_gcs"

    def test_provider_bookkeeping(self, combined):
        assert combined.provider_names == ("aws_s3", "azure_blob", "gcp_gcs")
        for provider in combined.provider_names:
            indices = combined.tier_indices_of(provider)
            assert len(indices) == 4
            assert all(combined.provider_of(i) == provider for i in indices)
        with pytest.raises(ValueError):
            combined.tier_indices_of("nonexistent")

    def test_single_provider_view(self, combined):
        azure = combined.single_provider("azure_blob")
        assert azure.names == ("premium", "hot", "cool", "archive")
        with pytest.raises(KeyError):
            combined.single_provider("nope")

    def test_duplicate_provider_names_rejected(self):
        with pytest.raises(ValueError):
            MultiProviderCatalog([aws_s3(), aws_s3()])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiProviderCatalog([])

    def test_subset_refuses(self, combined):
        with pytest.raises(NotImplementedError):
            combined.subset(["aws_s3/standard"])

    def test_with_capacities_keeps_provider_structure(self, combined):
        capacities = [float(i + 1) for i in range(len(combined))]
        bounded = combined.with_capacities(capacities)
        assert isinstance(bounded, MultiProviderCatalog)
        assert bounded.names == combined.names
        assert [tier.capacity_gb for tier in bounded] == capacities
        # Egress semantics survive the rebuild.
        i = bounded.global_index("aws_s3", "standard")
        j = bounded.global_index("gcp_gcs", "standard")
        assert bounded.egress_cost_per_gb(i, j) == 9.0


class TestEgressPricing:
    def test_intra_provider_moves_pay_no_egress(self, combined):
        i = combined.global_index("aws_s3", "standard")
        j = combined.global_index("aws_s3", "deep_archive")
        assert combined.egress_cost_per_gb(i, j) == 0.0
        assert combined.tier_change_cost(i, j) == pytest.approx(
            combined[i].read_cost + combined[j].write_cost
        )

    def test_cross_provider_moves_pay_source_egress(self, combined):
        i = combined.global_index("azure_blob", "hot")
        j = combined.global_index("gcp_gcs", "nearline")
        assert combined.egress_cost_per_gb(i, j) == 8.7
        assert combined.egress_cost_per_gb(j, i) == 12.0
        assert combined.tier_change_cost(i, j) == pytest.approx(
            combined[i].read_cost + combined[j].write_cost + 8.7
        )

    def test_new_data_pays_no_egress(self, combined):
        j = combined.global_index("aws_s3", "standard")
        assert combined.egress_cost_per_gb(NEW_DATA_TIER, j) == 0.0
        assert combined.tier_change_cost(NEW_DATA_TIER, j) == combined[j].write_cost

    def test_matrix_agrees_with_scalar_exactly(self, combined):
        matrix = combined.change_cost_matrix()
        size = len(combined)
        assert matrix.shape == (size + 1, size)
        for u in range(size):
            for v in range(size):
                assert matrix[u, v] == combined.tier_change_cost(u, v)
        for v in range(size):
            assert matrix[size, v] == combined.tier_change_cost(NEW_DATA_TIER, v)

    def test_same_tier_is_free(self, combined):
        for index in range(len(combined)):
            assert combined.tier_change_cost(index, index) == 0.0


class TestEgressBilling:
    def tiny_multi(self) -> MultiProviderCatalog:
        a = (
            ProviderBuilder("a", egress_cost_per_gb=5.0)
            .tier("fast", 2.0, 0.1, 0.1, latency_s=0.01)
            .build()
        )
        b = (
            ProviderBuilder("b", egress_cost_per_gb=3.0)
            .tier("cheap", 0.5, 0.2, 0.1, latency_s=0.02)
            .build()
        )
        return MultiProviderCatalog([a, b])

    def test_executor_bills_egress_on_cross_provider_moves(self):
        catalog = self.tiny_multi()
        partition = DataPartition("p", size_gb=10.0, predicted_accesses=1.0, current_tier=0)
        executor = MigrationExecutor(catalog)
        old = {"p": PlacementDecision(tier_index=0)}
        new = {"p": PlacementDecision(tier_index=1)}
        report = mapping_apply(
            executor, [partition], old, new, months_in_tier=np.array([99.0])
        )
        (move,) = report.moves
        assert move.egress_cost == pytest.approx(5.0 * 10.0)
        assert move.cost == pytest.approx(0.1 * 10.0 + 0.1 * 10.0)
        assert report.egress_cost == pytest.approx(50.0)
        assert report.migration_cost == pytest.approx(50.0 + 2.0)

    def test_executor_bills_no_egress_within_provider(self):
        catalog = multi_cloud_catalog()
        i = catalog.global_index("aws_s3", "standard")
        j = catalog.global_index("aws_s3", "glacier_instant")
        partition = DataPartition("p", size_gb=10.0, predicted_accesses=1.0, current_tier=i)
        executor = MigrationExecutor(catalog)
        report = mapping_apply(
            executor,
            [partition],
            {"p": PlacementDecision(tier_index=i)},
            {"p": PlacementDecision(tier_index=j)},
            months_in_tier=np.array([99.0]),
        )
        assert report.egress_cost == 0.0
        assert report.num_moved == 1

    def test_executor_compressed_egress_uses_stored_size(self):
        catalog = self.tiny_multi()
        gzip = CompressionProfile("gzip", ratio=4.0, decompression_s_per_gb=1.0)
        partition = DataPartition(
            "p", size_gb=10.0, predicted_accesses=1.0, current_tier=0,
            current_codec="gzip",
        )
        executor = MigrationExecutor(catalog)
        report = mapping_apply(
            executor,
            [partition],
            {"p": PlacementDecision(tier_index=0, profile=gzip)},
            {"p": PlacementDecision(tier_index=1, profile=gzip)},
            months_in_tier=np.array([99.0]),
        )
        (move,) = report.moves
        # Egress is charged on the 2.5 GB actually read out, not the 10 GB span.
        assert move.egress_cost == pytest.approx(5.0 * 2.5)

    def test_simulator_write_charge_includes_egress(self):
        catalog = self.tiny_multi()
        simulator = CloudStorageSimulator(catalog)
        partition = DataPartition("p", size_gb=10.0, predicted_accesses=0.0, current_tier=0)
        result = simulator.simulate(
            [partition],
            {"p": PlacementDecision(tier_index=1)},
            access_trace=[],
            duration_months=1.0,
        )
        # write charge = Delta_{0,1} * stored = (0.1 + 0.1 + 5.0) * 10
        assert result.bill.write == pytest.approx(52.0)

    def test_cost_model_objective_prices_egress(self):
        catalog = self.tiny_multi()
        model = CostModel(catalog, duration_months=1.0)
        stay = DataPartition("p", size_gb=10.0, predicted_accesses=0.0, current_tier=1)
        move = DataPartition("p", size_gb=10.0, predicted_accesses=0.0, current_tier=0)
        cheap_tier = 1
        assert model.placement_breakdown(move, cheap_tier).write == pytest.approx(52.0)
        assert model.placement_breakdown(stay, cheap_tier).write == 0.0
