"""SLO-annotated placement workloads for the multi-cloud OPTASSIGN scenarios.

The paper's workloads carry a single latency SLA per partition.  Production
tiering requests are richer: a partition belongs to a *service class*
("interactive" dashboards, "analytics" scans, "batch" pipelines, "archive"
retention) that fixes both its expected-latency SLA and — for the classes
that demand one — a cap on the *tier's published read-latency SLO*
(:attr:`repro.cloud.StorageTier.effective_slo_s`), plus possibly a
data-residency pin to a subset of cloud providers.

:func:`generate_slo_workload` samples such a mixed account deterministically
from a seed, returning the partitions together with the ``latency_slo_s`` and
``provider_affinity`` mappings :class:`~repro.core.optassign.OptAssignProblem`
and :class:`~repro.engine.OnlineTieringEngine` accept directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cloud import DataPartition

__all__ = ["SloClass", "SloWorkload", "DEFAULT_SLO_CLASSES", "generate_slo_workload"]


@dataclass(frozen=True)
class SloClass:
    """One service class: sampling weight, SLA/SLO bounds, size and heat ranges.

    ``slo_cap_s`` is the cap on the destination tier's published read-latency
    SLO (``None`` = the class does not constrain tier SLOs), while
    ``latency_threshold_s`` is the usual expected-access-latency SLA that also
    accounts for decompression.  Sizes are GB, reads are monthly.
    """

    name: str
    weight: float
    latency_threshold_s: float
    slo_cap_s: float | None
    size_gb_range: tuple[float, float]
    monthly_reads_range: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("class name must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.latency_threshold_s <= 0:
            raise ValueError("latency_threshold_s must be positive")
        if self.slo_cap_s is not None and self.slo_cap_s <= 0:
            raise ValueError("slo_cap_s must be positive when set")
        for label, (low, high) in (
            ("size_gb_range", self.size_gb_range),
            ("monthly_reads_range", self.monthly_reads_range),
        ):
            if low < 0 or high < low:
                raise ValueError(f"{label} must satisfy 0 <= low <= high")


#: A realistic mixed account: a hot interactive sliver, warm analytics, big
#: batch datasets and a cold archival tail.  The interactive/analytics caps
#: are chosen so that only genuinely fast tiers qualify (e.g. the 50 ms cap
#: admits S3 standard and Azure premium but not Azure hot's 100 ms SLO).
DEFAULT_SLO_CLASSES: tuple[SloClass, ...] = (
    SloClass(
        name="interactive",
        weight=0.2,
        latency_threshold_s=1.0,
        slo_cap_s=0.05,
        size_gb_range=(1.0, 50.0),
        monthly_reads_range=(200.0, 2000.0),
    ),
    SloClass(
        name="analytics",
        weight=0.3,
        latency_threshold_s=300.0,
        slo_cap_s=0.2,
        size_gb_range=(50.0, 500.0),
        monthly_reads_range=(5.0, 100.0),
    ),
    SloClass(
        name="batch",
        weight=0.3,
        latency_threshold_s=7200.0,
        slo_cap_s=None,
        size_gb_range=(100.0, 1000.0),
        monthly_reads_range=(0.2, 5.0),
    ),
    SloClass(
        name="archive",
        weight=0.2,
        latency_threshold_s=math.inf,
        slo_cap_s=None,
        size_gb_range=(500.0, 5000.0),
        monthly_reads_range=(0.0, 0.2),
    ),
)


@dataclass
class SloWorkload:
    """The generated account, in the exact shape the solvers consume."""

    partitions: list[DataPartition]
    latency_slo_s: dict[str, float]
    provider_affinity: dict[str, frozenset[str]]
    class_of: dict[str, str] = field(default_factory=dict)

    @property
    def total_gb(self) -> float:
        return float(sum(partition.size_gb for partition in self.partitions))

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name in self.class_of.values():
            counts[name] = counts.get(name, 0) + 1
        return counts


def generate_slo_workload(
    num_partitions: int,
    seed: int = 0,
    classes: Sequence[SloClass] = DEFAULT_SLO_CLASSES,
    residency_providers: Sequence[str] | None = None,
    residency_fraction: float = 0.0,
) -> SloWorkload:
    """Sample a mixed SLO-annotated account.

    Parameters
    ----------
    num_partitions:
        How many placement units to generate.
    seed:
        Deterministic RNG seed.
    classes:
        The service-class mix (weights are normalised).
    residency_providers, residency_fraction:
        When both are given, roughly ``residency_fraction`` of the partitions
        are pinned to one provider drawn uniformly from
        ``residency_providers`` (data-residency / compliance pinning).  Leave
        the defaults for an affinity-free workload that any single-provider
        baseline can also serve.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if not classes:
        raise ValueError("at least one SLO class is required")
    if not 0.0 <= residency_fraction <= 1.0:
        raise ValueError("residency_fraction must be in [0, 1]")
    if residency_fraction > 0.0 and not residency_providers:
        raise ValueError(
            "residency_fraction > 0 requires residency_providers to draw from"
        )

    rng = np.random.default_rng(seed)
    weights = np.array([cls.weight for cls in classes], dtype=np.float64)
    weights = weights / weights.sum()

    partitions: list[DataPartition] = []
    latency_slo_s: dict[str, float] = {}
    provider_affinity: dict[str, frozenset[str]] = {}
    class_of: dict[str, str] = {}
    for index in range(num_partitions):
        cls = classes[int(rng.choice(len(classes), p=weights))]
        # Accounts generated alike reuse names; interned, each is one string.
        name = sys.intern(f"{cls.name}_{index:04d}")
        low, high = cls.size_gb_range
        size_gb = float(rng.uniform(low, high))
        low, high = cls.monthly_reads_range
        monthly_reads = float(rng.uniform(low, high))
        partitions.append(
            DataPartition(
                name=name,
                size_gb=size_gb,
                predicted_accesses=monthly_reads,
                latency_threshold_s=cls.latency_threshold_s,
            )
        )
        class_of[name] = cls.name
        if cls.slo_cap_s is not None:
            latency_slo_s[name] = cls.slo_cap_s
        if residency_providers and rng.random() < residency_fraction:
            pinned = str(residency_providers[int(rng.integers(len(residency_providers)))])
            provider_affinity[name] = frozenset({pinned})
    return SloWorkload(
        partitions=partitions,
        latency_slo_s=latency_slo_s,
        provider_affinity=provider_affinity,
        class_of=class_of,
    )
