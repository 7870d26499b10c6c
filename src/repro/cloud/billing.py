"""Cost accounting shared by the optimizer objective and the storage simulator.

The OPTASSIGN objective (Eq. 1 in the paper) charges, for a partition ``P_n``
assigned to tier ``l`` with compression scheme ``k``:

* a write + storage term
  ``(alpha * C^s_l + gamma * Delta_{L(P_n), l}) * Sp(P_n) / R^k_n``
* an access term
  ``beta * rho(P_n) * (C^c * D^k_n + C^r_l * Sp(P_n) / R^k_n)``

and requires ``D^k_n + B_l <= T(P_n)`` for latency feasibility.  This module
implements exactly that arithmetic once, in :class:`CostModel`, so that the
ILP, the greedy optimizer, the baselines and the simulator all agree on what a
placement costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .arrays import PartitionArrays
from .objects import DataPartition
from .tiers import NEW_DATA_TIER, TierCatalog

__all__ = [
    "CompressionProfile",
    "NO_COMPRESSION_PROFILE",
    "CostBreakdown",
    "CostWeights",
    "CostModel",
    "BatchCostTensors",
]


@dataclass(frozen=True)
class CompressionProfile:
    """Predicted (or measured) compression behaviour of one scheme on one partition.

    ``ratio`` is the compression ratio ``R^k_n`` (uncompressed size divided by
    compressed size, so >= 1 for useful codecs and exactly 1 for "none").
    ``decompression_s_per_gb`` is ``D^k_n`` expressed per GB of *uncompressed*
    data; the total decompression time for an access is this value times the
    uncompressed GB read.
    """

    scheme: str
    ratio: float
    decompression_s_per_gb: float

    def __post_init__(self) -> None:
        # Comparisons that NaN fails.
        if not 0 < self.ratio < math.inf:
            raise ValueError("compression ratio must be positive and finite")
        if not 0 <= self.decompression_s_per_gb < math.inf:
            raise ValueError("decompression time must be non-negative and finite")

    def compressed_gb(self, uncompressed_gb: float) -> float:
        """Size on disk of ``uncompressed_gb`` after applying this scheme."""
        return uncompressed_gb / self.ratio

    def decompression_seconds(self, uncompressed_gb: float) -> float:
        """Wall-clock seconds to decompress back to ``uncompressed_gb``."""
        return self.decompression_s_per_gb * uncompressed_gb


#: The identity scheme: no compression, no decompression overhead.
NO_COMPRESSION_PROFILE = CompressionProfile(
    scheme="none", ratio=1.0, decompression_s_per_gb=0.0
)


@dataclass
class CostBreakdown:
    """Cents spent per cost category over a billing horizon."""

    storage: float = 0.0
    read: float = 0.0
    write: float = 0.0
    decompression: float = 0.0

    @property
    def total(self) -> float:
        return self.storage + self.read + self.write + self.decompression

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            storage=self.storage + other.storage,
            read=self.read + other.read,
            write=self.write + other.write,
            decompression=self.decompression + other.decompression,
        )

    def __iadd__(self, other: "CostBreakdown") -> "CostBreakdown":
        self.storage += other.storage
        self.read += other.read
        self.write += other.write
        self.decompression += other.decompression
        return self

    def scaled(self, factor: float) -> "CostBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return CostBreakdown(
            storage=self.storage * factor,
            read=self.read * factor,
            write=self.write * factor,
            decompression=self.decompression * factor,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "storage": self.storage,
            "read": self.read,
            "write": self.write,
            "decompression": self.decompression,
            "total": self.total,
        }

    def approx_equals(self, other: "CostBreakdown", tolerance: float = 1e-6) -> bool:
        """True if every component matches ``other`` within ``tolerance``."""
        return (
            math.isclose(self.storage, other.storage, abs_tol=tolerance)
            and math.isclose(self.read, other.read, abs_tol=tolerance)
            and math.isclose(self.write, other.write, abs_tol=tolerance)
            and math.isclose(self.decompression, other.decompression, abs_tol=tolerance)
        )


@dataclass(frozen=True)
class CostWeights:
    """The alpha/beta/gamma hyper-parameters of the OPTASSIGN objective.

    * ``alpha`` scales the storage cost term,
    * ``beta`` scales the access (read + decompression) term,
    * ``gamma`` scales the tier-change / write term.

    The paper's baselines are recovered by zeroing some weights — e.g. a
    purely latency-focused optimisation uses ``alpha = 0``.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("cost weights must be non-negative")


@dataclass
class BatchCostTensors:
    """The full (partitions x tiers x schemes) cost/latency evaluation.

    Produced by :meth:`CostModel.batch_tensors`; every entry agrees with the
    scalar :meth:`CostModel.placement_breakdown` /
    :meth:`CostModel.placement_objective` arithmetic bit for bit — the numpy
    expressions mirror the scalar operation order exactly, so the vectorized
    solvers can be validated against the scalar oracle with equality, not
    tolerance.

    Shapes: ``storage``, ``read``, ``write``, ``objective`` and ``latency_s``
    are ``(N, T, K)``; ``stored_gb``, ``decompression`` and ``decompression_s``
    are ``(N, K)`` because decompression does not depend on the tier;
    ``feasible`` is the ``(N, T, K)`` conjunction of the latency SLA, codec
    pinning and per-partition scheme availability.
    """

    schemes: tuple[str, ...]
    stored_gb: np.ndarray
    storage: np.ndarray
    read: np.ndarray
    write: np.ndarray
    decompression_s: np.ndarray
    decompression: np.ndarray
    objective: np.ndarray
    latency_s: np.ndarray
    feasible: np.ndarray

    @property
    def num_partitions(self) -> int:
        return self.objective.shape[0]

    @property
    def num_tiers(self) -> int:
        return self.objective.shape[1]

    @property
    def num_schemes(self) -> int:
        return self.objective.shape[2]

    def masked_objective(self) -> np.ndarray:
        """Objective with infeasible cells set to ``+inf`` (argmin-ready)."""
        return np.where(self.feasible, self.objective, np.inf)

    def breakdown_at(self, n: int, t: int, k: int) -> CostBreakdown:
        """The unweighted billed breakdown of one (partition, tier, scheme) cell."""
        return CostBreakdown(
            storage=float(self.storage[n, t, k]),
            read=float(self.read[n, t, k]),
            write=float(self.write[n, t, k]),
            decompression=float(self.decompression[n, k]),
        )


class CostModel:
    """Evaluates placement costs and latency for a given tier catalog.

    Parameters
    ----------
    tiers:
        The tier catalog (prices, latencies, capacities).
    compute_cost_per_s:
        ``C^c`` — compute price in cents per second used for decompression.
    duration_months:
        Billing horizon length over which storage accrues and the predicted
        accesses happen.
    weights:
        Objective weights (alpha, beta, gamma).  The *unweighted* breakdown is
        also available for reporting real (billed) cost.
    """

    def __init__(
        self,
        tiers: TierCatalog,
        compute_cost_per_s: float = 0.001,
        duration_months: float = 1.0,
        weights: CostWeights | None = None,
    ):
        if compute_cost_per_s < 0:
            raise ValueError("compute cost must be non-negative")
        if duration_months <= 0:
            raise ValueError("duration must be positive")
        self.tiers = tiers
        self.compute_cost_per_s = compute_cost_per_s
        self.duration_months = duration_months
        self.weights = weights or CostWeights()

    # -- single-placement accounting ----------------------------------------
    def placement_breakdown(
        self,
        partition: DataPartition,
        tier_index: int,
        profile: CompressionProfile = NO_COMPRESSION_PROFILE,
    ) -> CostBreakdown:
        """Unweighted billed cost of holding ``partition`` in ``tier_index``.

        Includes storage over the horizon, the tier-change (or initial write)
        cost, and the expected read + decompression cost of the predicted
        accesses.  This is what the cloud provider would actually bill.
        """
        tier = self.tiers[tier_index]
        stored_gb = profile.compressed_gb(partition.size_gb)
        storage = tier.storage_cost_for(stored_gb, self.duration_months)

        change_per_gb = self.tiers.tier_change_cost(partition.current_tier, tier_index)
        write = change_per_gb * stored_gb

        accesses = partition.effective_accesses
        read_gb = profile.compressed_gb(partition.read_gb_per_access)
        read = tier.read_cost_for(read_gb, accesses)

        decompression_seconds = profile.decompression_seconds(
            partition.read_gb_per_access
        )
        decompression = self.compute_cost_per_s * decompression_seconds * accesses

        return CostBreakdown(
            storage=storage, read=read, write=write, decompression=decompression
        )

    def placement_objective(
        self,
        partition: DataPartition,
        tier_index: int,
        profile: CompressionProfile = NO_COMPRESSION_PROFILE,
    ) -> float:
        """The weighted OPTASSIGN objective value of a single placement (Eq. 1)."""
        breakdown = self.placement_breakdown(partition, tier_index, profile)
        weights = self.weights
        return (
            weights.alpha * breakdown.storage
            + weights.gamma * breakdown.write
            + weights.beta * (breakdown.read + breakdown.decompression)
        )

    # -- latency -------------------------------------------------------------
    def access_latency_s(
        self,
        partition: DataPartition,
        tier_index: int,
        profile: CompressionProfile = NO_COMPRESSION_PROFILE,
    ) -> float:
        """Expected access latency: decompression time plus time to first byte."""
        tier = self.tiers[tier_index]
        return (
            profile.decompression_seconds(partition.read_gb_per_access)
            + tier.latency_s
        )

    def is_latency_feasible(
        self,
        partition: DataPartition,
        tier_index: int,
        profile: CompressionProfile = NO_COMPRESSION_PROFILE,
    ) -> bool:
        """True if the placement satisfies the partition's latency SLA."""
        return (
            self.access_latency_s(partition, tier_index, profile)
            <= partition.latency_threshold_s
        )

    # -- batch (vectorized) accounting ---------------------------------------
    def batch_tensors(
        self,
        arrays: PartitionArrays,
        schemes: Sequence[str],
        ratio: np.ndarray,
        decompression_s_per_gb: np.ndarray,
        scheme_available: np.ndarray | None = None,
        tier_allowed: np.ndarray | None = None,
        codec_allowed: np.ndarray | None = None,
    ) -> BatchCostTensors:
        """Evaluate every (partition, tier, scheme) placement in one pass.

        Parameters
        ----------
        arrays:
            The partitions, columnar.
        schemes:
            Names of the ``K`` compression schemes spanning the last tensor
            axis, in the order of the ``ratio`` columns.
        ratio, decompression_s_per_gb:
            ``(N, K)`` compression ratios ``R^k_n`` and decompression speeds
            ``D^k_n`` (seconds per uncompressed GB).  Cells for unavailable
            (partition, scheme) pairs may hold any positive placeholder — they
            are masked out of ``feasible``.
        scheme_available:
            Optional ``(N, K)`` bool mask of which schemes have a profile for
            which partition; ``None`` means all are available.
        tier_allowed:
            Optional ``(N, T)`` bool mask of which tiers each partition may
            occupy — how SLO caps on a tier's published read-latency SLO,
            provider affinity and banned tiers reach the tensor path.
        codec_allowed:
            Optional ``(N, K)`` codec-pinning mask over ``schemes``, when the
            caller holds it already; computed from ``arrays`` otherwise.

        The arithmetic mirrors :meth:`placement_breakdown` /
        :meth:`placement_objective` operation for operation, so each tensor
        cell is bit-identical to the scalar result for the same placement.
        """
        ratio = np.asarray(ratio, dtype=np.float64)
        decompression_s_per_gb = np.asarray(decompression_s_per_gb, dtype=np.float64)
        if ratio.shape != (len(arrays), len(schemes)):
            raise ValueError(
                f"ratio must have shape ({len(arrays)}, {len(schemes)}), "
                f"got {ratio.shape}"
            )
        if decompression_s_per_gb.shape != ratio.shape:
            raise ValueError("decompression_s_per_gb must match ratio's shape")

        costs = self.tiers.cost_arrays()
        stored_gb = arrays.size_gb[:, None] / ratio
        storage = (
            costs["storage_cost"][None, :, None]
            * stored_gb[:, None, :]
            * self.duration_months
        )

        delta = self.tiers.change_cost_matrix()
        source_rows = np.where(
            arrays.current_tier < 0, len(self.tiers), arrays.current_tier
        )
        change_per_gb = delta[source_rows]
        write = change_per_gb[:, :, None] * stored_gb[:, None, :]

        read_gb_uncompressed = arrays.read_gb_per_access
        read_gb = read_gb_uncompressed[:, None] / ratio
        effective_accesses = arrays.effective_accesses
        read = (
            costs["read_cost"][None, :, None]
            * read_gb[:, None, :]
            * effective_accesses[:, None, None]
        )

        decompression_s = decompression_s_per_gb * read_gb_uncompressed[:, None]
        decompression = (
            self.compute_cost_per_s * decompression_s * effective_accesses[:, None]
        )

        weights = self.weights
        objective = (
            weights.alpha * storage
            + weights.gamma * write
            + weights.beta * (read + decompression[:, None, :])
        )

        latency = decompression_s[:, None, :] + costs["latency_s"][None, :, None]
        feasible = latency <= arrays.latency_threshold_s[:, None, None]

        allowed = (
            self._batch_codec_allowed(arrays, schemes)
            if codec_allowed is None
            else codec_allowed
        )
        if scheme_available is not None:
            allowed = allowed & scheme_available
        feasible = feasible & allowed[:, None, :]

        if tier_allowed is not None:
            tier_allowed = np.asarray(tier_allowed, dtype=bool)
            if tier_allowed.shape != (len(arrays), len(self.tiers)):
                raise ValueError(
                    f"tier_allowed must have shape ({len(arrays)}, "
                    f"{len(self.tiers)}), got {tier_allowed.shape}"
                )
            feasible = feasible & tier_allowed[:, :, None]

        return BatchCostTensors(
            schemes=tuple(schemes),
            stored_gb=stored_gb,
            storage=storage,
            read=read,
            write=write,
            decompression_s=decompression_s,
            decompression=decompression,
            objective=objective,
            latency_s=latency,
            feasible=feasible,
        )

    @staticmethod
    def _batch_codec_allowed(
        arrays: PartitionArrays, schemes: Sequence[str]
    ) -> np.ndarray:
        """(N, K) mask of codec pinning: pinned partitions allow only their codec.

        Each row's codec becomes a code — its scheme's column, ``-1`` when
        unpinned, ``K`` when pinned to a scheme off the axis (nothing
        allowed) — and the mask is one broadcast compare against the columns.
        """
        codecs = arrays.current_codec
        count = len(schemes)
        scheme_index = {scheme: k for k, scheme in enumerate(schemes)}
        code_of = {codec: scheme_index.get(codec, count) for codec in set(codecs)}
        code_of[None] = -1
        code = np.fromiter(
            map(code_of.__getitem__, codecs), dtype=np.intp, count=len(codecs)
        )
        return (code[:, None] == np.arange(count)) | (code == -1)[:, None]

    # -- codec pinning -------------------------------------------------------
    def is_codec_allowed(self, partition: DataPartition, scheme: str) -> bool:
        """The paper pins already-compressed partitions to their current scheme."""
        if partition.current_codec is None:
            return True
        return scheme == partition.current_codec

    # -- aggregate accounting -------------------------------------------------
    def assignment_breakdown(
        self,
        partitions: Mapping[str, DataPartition] | list[DataPartition],
        placement: Mapping[str, tuple[int, CompressionProfile]],
    ) -> CostBreakdown:
        """Total billed cost of a full placement (one entry per partition)."""
        items = (
            partitions.values() if isinstance(partitions, Mapping) else partitions
        )
        total = CostBreakdown()
        for partition in items:
            tier_index, profile = placement[partition.name]
            total += self.placement_breakdown(partition, tier_index, profile)
        return total

    def with_weights(self, weights: CostWeights) -> "CostModel":
        """Return a copy of this model with different objective weights."""
        return CostModel(
            tiers=self.tiers,
            compute_cost_per_s=self.compute_cost_per_s,
            duration_months=self.duration_months,
            weights=weights,
        )

    def with_duration(self, duration_months: float) -> "CostModel":
        """Return a copy of this model with a different billing horizon."""
        return CostModel(
            tiers=self.tiers,
            compute_cost_per_s=self.compute_cost_per_s,
            duration_months=duration_months,
            weights=self.weights,
        )
