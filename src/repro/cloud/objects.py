"""Data objects that live in the simulated data lake.

The paper works at two granularities:

* **Datasets** (Enterprise Data I experiments): large objects, TB-PB in size,
  with monthly read/write access counts from historical logs.  The tiering
  optimizer and the access-pattern predictor operate on these.
* **Data partitions** (OPTASSIGN / DATAPART / pipeline experiments): groups of
  files produced either by ingestion batches or by the access-aware
  partitioner G-PART.  Each partition carries a predicted number of accesses
  for the projected billing period, a latency SLA and (optionally) the file
  ids it contains.

Both are plain dataclasses so they serialise trivially and are cheap to
construct in the millions.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .tiers import NEW_DATA_TIER

__all__ = [
    "FileBlock",
    "DataPartition",
    "Dataset",
    "PartitionCatalog",
    "DatasetCatalog",
]

#: Name of the "identity" compression scheme: data is stored uncompressed.
NO_COMPRESSION = "none"


@dataclass(frozen=True)
class FileBlock:
    """A contiguous block of records (a file) inside a dataset.

    ``num_records`` is used by DATAPART when computing spans and overlaps;
    ``size_gb`` is used by the cost model.
    """

    file_id: str
    num_records: int
    size_gb: float

    def __post_init__(self) -> None:
        if self.num_records < 0:
            raise ValueError("num_records must be non-negative")
        if self.size_gb < 0:
            raise ValueError("size_gb must be non-negative")


@dataclass
class DataPartition:
    """A unit of placement for OPTASSIGN.

    Parameters
    ----------
    name:
        Unique identifier for the partition.
    size_gb:
        Uncompressed span ``Sp(P_i)`` in GB.
    predicted_accesses:
        Projected number of read accesses ``rho(P_i)`` over the billing
        horizon under optimisation.
    latency_threshold_s:
        Latency SLA ``T(P_i)`` in seconds: decompression time plus time to
        first byte must not exceed this.
    current_tier:
        Index of the tier the partition currently occupies, or
        ``NEW_DATA_TIER`` (-1) for newly ingested data.
    current_codec:
        Name of the compression scheme already applied, or ``None`` if data
        has not been compressed yet.  The paper's last ILP constraint pins
        already-compressed partitions to their scheme.
    file_ids:
        Optional set of member file ids (used when the partition came out of
        G-PART and we want to trace provenance).
    read_fraction:
        Fraction of the partition read per access (1.0 = full scan).
    pushdown_fraction:
        Fraction ``f`` of accesses that can be served directly on compressed
        data (computation pushdown); those accesses incur neither read nor
        decompression cost.
    """

    name: str
    size_gb: float
    predicted_accesses: float
    latency_threshold_s: float = float("inf")
    current_tier: int = NEW_DATA_TIER
    current_codec: str | None = None
    file_ids: frozenset[str] = field(default_factory=frozenset)
    read_fraction: float = 1.0
    pushdown_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("partition name must be non-empty")
        # Comparisons that NaN fails: a NaN or infinite size or prior would
        # surface much later as an infeasible solve that names the wrong
        # cause.  An infinite latency threshold is the "no SLA" default.
        if not 0 <= self.size_gb < math.inf:
            raise ValueError("size_gb must be non-negative and finite")
        # Float, like the engine's columns, so a move's stored size has one
        # type however the partition was built.
        self.size_gb = float(self.size_gb)
        if not 0 <= self.predicted_accesses < math.inf:
            raise ValueError("predicted_accesses must be non-negative and finite")
        if not 0 <= self.latency_threshold_s:
            raise ValueError("latency_threshold_s must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.pushdown_fraction <= 1.0:
            raise ValueError("pushdown_fraction must be in [0, 1]")
        if not isinstance(self.file_ids, frozenset):
            object.__setattr__(self, "file_ids", frozenset(self.file_ids))

    @property
    def is_new(self) -> bool:
        """True if the partition has not been placed in any tier yet."""
        return self.current_tier == NEW_DATA_TIER

    @property
    def effective_accesses(self) -> float:
        """Accesses that actually hit the read/decompression path.

        Pushdown-eligible accesses are served on compressed data and do not
        contribute to read or decompression cost.
        """
        return self.predicted_accesses * (1.0 - self.pushdown_fraction)

    @property
    def read_gb_per_access(self) -> float:
        """GB of (uncompressed) data touched by a single access."""
        return self.size_gb * self.read_fraction


@dataclass
class Dataset:
    """A dataset in the enterprise data lake with its historical access log.

    ``monthly_reads[i]`` / ``monthly_writes[i]`` are counts of read / write
    accesses during the i-th month after ``created_month``; index 0 is the
    creation month.  The most recent month is the last element.
    """

    name: str
    size_gb: float
    created_month: int
    monthly_reads: list[float] = field(default_factory=list)
    monthly_writes: list[float] = field(default_factory=list)
    current_tier: int = NEW_DATA_TIER
    latency_threshold_s: float = float("inf")

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        if self.size_gb < 0:
            raise ValueError("size_gb must be non-negative")
        if len(self.monthly_reads) != len(self.monthly_writes):
            raise ValueError(
                "monthly_reads and monthly_writes must have the same length"
            )
        if any(r < 0 for r in self.monthly_reads):
            raise ValueError("monthly read counts must be non-negative")
        if any(w < 0 for w in self.monthly_writes):
            raise ValueError("monthly write counts must be non-negative")

    @property
    def age_months(self) -> int:
        """Number of months of history recorded for this dataset."""
        return len(self.monthly_reads)

    def reads_in_window(self, months: int) -> float:
        """Total read accesses during the most recent ``months`` months."""
        if months <= 0:
            return 0.0
        return float(sum(self.monthly_reads[-months:]))

    def writes_in_window(self, months: int) -> float:
        """Total write accesses during the most recent ``months`` months."""
        if months <= 0:
            return 0.0
        return float(sum(self.monthly_writes[-months:]))

    def accessed_within(self, months: int) -> bool:
        """True if the dataset saw any read access in the last ``months`` months."""
        return self.reads_in_window(months) > 0

    def to_partition(
        self,
        predicted_accesses: float,
        latency_threshold_s: float | None = None,
    ) -> DataPartition:
        """View this dataset as a placement unit for OPTASSIGN."""
        return DataPartition(
            name=self.name,
            size_gb=self.size_gb,
            predicted_accesses=predicted_accesses,
            latency_threshold_s=(
                self.latency_threshold_s
                if latency_threshold_s is None
                else latency_threshold_s
            ),
            current_tier=self.current_tier,
        )


class _Catalog:
    """Shared implementation for keyed, ordered object collections."""

    def __init__(self, items: Iterable, kind: str):
        self._items = list(items)
        self._kind = kind
        self._by_name = {}
        for item in self._items:
            if item.name in self._by_name:
                raise ValueError(f"duplicate {kind} name: {item.name!r}")
            self._by_name[item.name] = item

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __getitem__(self, name: str):
        return self._by_name[name]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(item.name for item in self._items)

    @property
    def total_size_gb(self) -> float:
        return float(sum(item.size_gb for item in self._items))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._items)} {self._kind}s, "
            f"{self.total_size_gb:.3f} GB)"
        )


class PartitionCatalog(_Catalog):
    """An ordered, name-indexed collection of :class:`DataPartition`."""

    def __init__(self, partitions: Iterable[DataPartition]):
        super().__init__(partitions, kind="partition")

    @property
    def partitions(self) -> list[DataPartition]:
        return list(self._items)


class DatasetCatalog(_Catalog):
    """An ordered, name-indexed collection of :class:`Dataset`."""

    def __init__(self, datasets: Iterable[Dataset]):
        super().__init__(datasets, kind="dataset")

    @property
    def datasets(self) -> list[Dataset]:
        return list(self._items)

    def to_partitions(
        self,
        predicted_accesses: Mapping[str, float],
        default_accesses: float = 0.0,
    ) -> PartitionCatalog:
        """Convert every dataset to a :class:`DataPartition`.

        ``predicted_accesses`` maps dataset name to the projected number of
        accesses for the optimisation horizon; datasets without an entry use
        ``default_accesses``.
        """
        return PartitionCatalog(
            dataset.to_partition(
                predicted_accesses.get(dataset.name, default_accesses)
            )
            for dataset in self._items
        )
