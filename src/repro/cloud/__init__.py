"""Cloud storage substrate: tiers, price sheets, data objects, billing and simulation.

This subpackage replaces the paper's live Azure ADLS Gen2 environment with an
explicit, deterministic cost model parameterised by the published price sheet
(Tables I and XII of the paper).  Every other module — the OPTASSIGN
optimizer, the SCOPe pipeline, the benchmarks — computes costs exclusively
through :class:`repro.cloud.CostModel` and :class:`repro.cloud.CloudStorageSimulator`
so predicted and billed costs can never disagree on the arithmetic.
"""

from .arrays import PartitionArrays
from .billing import (
    BatchCostTensors,
    CompressionProfile,
    CostBreakdown,
    CostModel,
    CostWeights,
    NO_COMPRESSION_PROFILE,
)
from .events import CHUNK_SIZE, EventBatch, TimedEvent, iter_batches, merge_batches
from .objects import (
    DataPartition,
    Dataset,
    DatasetCatalog,
    FileBlock,
    PartitionCatalog,
)
from .pools import CapacityPool, PoolSet
from .providers import (
    CloudProvider,
    MultiProviderCatalog,
    PROVIDER_SEPARATOR,
    ProviderBuilder,
    aws_s3,
    azure_blob,
    gcp_gcs,
    multi_cloud_catalog,
)
from .simulator import (
    AccessEvent,
    CloudStorageSimulator,
    CompiledPlacement,
    PlacementColumns,
    PlacementDecision,
    SimulationResult,
    percent_cost_benefit,
)
from .tiers import (
    NEW_DATA_TIER,
    StorageTier,
    TierCatalog,
    azure_table1_tiers,
    azure_table12_tiers,
    azure_tier_catalog,
)

__all__ = [
    "PartitionArrays",
    "BatchCostTensors",
    "CompressionProfile",
    "CostBreakdown",
    "CostModel",
    "CostWeights",
    "NO_COMPRESSION_PROFILE",
    "DataPartition",
    "Dataset",
    "DatasetCatalog",
    "FileBlock",
    "PartitionCatalog",
    "CapacityPool",
    "PoolSet",
    "CloudProvider",
    "MultiProviderCatalog",
    "PROVIDER_SEPARATOR",
    "ProviderBuilder",
    "aws_s3",
    "azure_blob",
    "gcp_gcs",
    "multi_cloud_catalog",
    "AccessEvent",
    "CloudStorageSimulator",
    "CompiledPlacement",
    "PlacementDecision",
    "PlacementColumns",
    "SimulationResult",
    "TimedEvent",
    "EventBatch",
    "CHUNK_SIZE",
    "iter_batches",
    "merge_batches",
    "percent_cost_benefit",
    "NEW_DATA_TIER",
    "StorageTier",
    "TierCatalog",
    "azure_table1_tiers",
    "azure_table12_tiers",
    "azure_tier_catalog",
]
