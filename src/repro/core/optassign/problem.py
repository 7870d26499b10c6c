"""Problem definition for OPTASSIGN (Section IV of the paper).

An :class:`OptAssignProblem` bundles the data partitions, the cost model (tier
catalog, compute price, horizon, objective weights) and the per-partition
compression profiles, and enumerates the *candidate options* — the feasible
(tier, scheme) pairs for each partition, with their objective value, billed
cost and latency.  The solvers (ILP, greedy, matching) all consume the same
candidate enumeration so they optimise exactly the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ...cloud import (
    BatchCostTensors,
    CompressionProfile,
    CostBreakdown,
    CostModel,
    DataPartition,
    NO_COMPRESSION_PROFILE,
    PartitionArrays,
)
from ...cloud.objects import NO_COMPRESSION
from ...obs import get_tracer

__all__ = ["CandidateOption", "OptAssignProblem", "ProfileTable"]


#: Per-partition compression profiles, keyed by partition name then scheme name.
ProfileTable = Mapping[str, Mapping[str, CompressionProfile]]

#: ``(schemes, ratio (N,K), decompression_s_per_gb (N,K), available (N,K))``.
ProfileColumns = tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]

#: Marks a tier mask not built yet (``None`` means unconstrained).
_UNBUILT = object()


def check_pinned_codecs(
    names: Sequence[str],
    codecs: Sequence[str | None],
    profiles: Mapping[str, Mapping[str, CompressionProfile]],
) -> None:
    """Raise unless every pinned (already-compressed) row has a profile for
    its codec."""
    for name, pinned in zip(names, codecs):
        if pinned is not None and pinned not in profiles[name]:
            raise ValueError(
                f"partition {name!r} is pinned to codec {pinned!r} "
                "but no profile for that codec was provided"
            )


def profile_columns(
    names: Sequence[str],
    profiles: Mapping[str, Mapping[str, CompressionProfile]],
    schemes: tuple[str, ...],
) -> ProfileColumns:
    """The named rows' profile columns over ``schemes`` (which must hold
    every scheme their tables have), built one row at a time: ``ratio`` 1
    and ``decompression_s_per_gb`` 0 where a row has no profile."""
    index = {scheme: k for k, scheme in enumerate(schemes)}
    shape = (len(names), len(schemes))
    ratio = np.ones(shape, dtype=np.float64)
    decompression = np.zeros(shape, dtype=np.float64)
    available = np.zeros(shape, dtype=bool)
    for n, name in enumerate(names):
        for scheme, profile in profiles[name].items():
            k = index[scheme]
            ratio[n, k] = profile.ratio
            decompression[n, k] = profile.decompression_s_per_gb
            available[n, k] = True
    return schemes, ratio, decompression, available


@dataclass(frozen=True)
class CandidateOption:
    """One feasible-or-not (tier, scheme) choice for one partition."""

    partition: str
    tier_index: int
    scheme: str
    objective: float
    breakdown: CostBreakdown
    latency_s: float
    latency_feasible: bool
    codec_allowed: bool
    slo_feasible: bool = True
    provider_allowed: bool = True

    @property
    def feasible(self) -> bool:
        """Feasible w.r.t. latency SLA, codec pinning, tier SLO and provider
        affinity (not capacity)."""
        return (
            self.latency_feasible
            and self.codec_allowed
            and self.slo_feasible
            and self.provider_allowed
        )


class OptAssignProblem:
    """The OPTASSIGN instance: partitions, prices, compression profiles.

    Parameters
    ----------
    partitions:
        The placement units.  Names must be unique.
    cost_model:
        Prices, horizon, objective weights and the tier catalog.
    profiles:
        ``profiles[partition_name][scheme]`` gives the predicted
        :class:`CompressionProfile` of applying ``scheme`` to that partition.
        The ``"none"`` scheme is always available and is added automatically
        if missing.  When ``profiles`` is ``None`` the problem degenerates to
        tier assignment only (the paper's ``K = 0`` configuration).
    latency_slo_s:
        Optional per-partition cap (seconds) on the *tier's* published
        read-latency SLO (:attr:`repro.cloud.StorageTier.effective_slo_s`).
        Partitions without an entry are unconstrained.  This is a hard tier
        eligibility constraint, distinct from the latency SLA
        ``latency_threshold_s`` (which bounds expected access latency
        including decompression and is relaxed by :meth:`relaxed`); SLO caps
        are never relaxed.
    provider_affinity:
        Optional per-partition restriction to a provider name or collection
        of provider names (data-residency pinning).  Names must exist in the
        cost model's catalog (``tiers.provider_names``); a plain
        single-provider catalog only knows ``"default"``.
    banned_tiers:
        Optional catalog tier indices that no partition may occupy — the
        chaos subsystem masks a dead provider's tiers this way during an
        outage.  Like SLO caps and affinity this is a hard tier-eligibility
        constraint, never touched by latency relaxation.
    """

    def __init__(
        self,
        partitions: Sequence[DataPartition] | PartitionArrays,
        cost_model: CostModel,
        profiles: ProfileTable | None = None,
        latency_slo_s: Mapping[str, float] | None = None,
        provider_affinity: Mapping[str, str | Iterable[str]] | None = None,
        banned_tiers: Iterable[int] | None = None,
    ):
        arrays: PartitionArrays | None = None
        if isinstance(partitions, PartitionArrays):
            arrays = partitions
            partitions = arrays.to_partitions()
        partitions = list(partitions)
        names = [partition.name for partition in partitions]
        if len(set(names)) != len(names):
            raise ValueError("partition names must be unique")
        if not partitions:
            raise ValueError("at least one partition is required")
        validated_profiles: dict[str, dict[str, CompressionProfile]] = {}
        for name in names:
            partition_profiles = dict(profiles.get(name, {})) if profiles else {}
            for scheme, profile in partition_profiles.items():
                if scheme != profile.scheme:
                    raise ValueError(
                        f"profile keyed {scheme!r} has scheme {profile.scheme!r} "
                        f"for partition {name!r}"
                    )
            partition_profiles.setdefault("none", NO_COMPRESSION_PROFILE)
            validated_profiles[name] = partition_profiles
        check_pinned_codecs(
            names,
            [partition.current_codec for partition in partitions],
            validated_profiles,
        )
        known = set(names)
        latency_slo: dict[str, float] = {}
        for name, cap in (latency_slo_s or {}).items():
            if name not in known:
                raise ValueError(f"latency_slo_s names unknown partition {name!r}")
            if cap < 0:
                raise ValueError(f"SLO cap for {name!r} must be non-negative")
            latency_slo[name] = float(cap)
        catalog_providers = set(cost_model.tiers.provider_names)
        affinity: dict[str, frozenset[str]] = {}
        for name, wanted in (provider_affinity or {}).items():
            if name not in known:
                raise ValueError(f"provider_affinity names unknown partition {name!r}")
            allowed = frozenset([wanted] if isinstance(wanted, str) else wanted)
            if not allowed:
                raise ValueError(f"provider_affinity for {name!r} is empty")
            unknown_providers = allowed - catalog_providers
            if unknown_providers:
                raise ValueError(
                    f"provider_affinity for {name!r} names providers not in the "
                    f"catalog: {sorted(unknown_providers)} "
                    f"(catalog has {sorted(catalog_providers)})"
                )
            affinity[name] = allowed
        banned = frozenset(int(index) for index in (banned_tiers or ()))
        tier_count = len(cost_model.tiers)
        out_of_range = [i for i in banned if i < 0 or i >= tier_count]
        if out_of_range:
            raise ValueError(
                f"banned_tiers out of range for a {tier_count}-tier catalog: "
                f"{sorted(out_of_range)}"
            )
        if len(banned) == tier_count:
            raise ValueError("banned_tiers may not cover the whole catalog")
        self._set_state(
            cost_model,
            arrays,
            validated_profiles,
            latency_slo,
            affinity,
            banned,
            partitions=partitions,
        )

    @classmethod
    def _assemble(
        cls,
        cost_model: CostModel,
        arrays: PartitionArrays,
        profiles: dict[str, dict[str, CompressionProfile]],
        latency_slo: dict[str, float],
        provider_affinity: dict[str, frozenset[str]],
        banned_tiers: frozenset[int],
        profile_columns: ProfileColumns | None = None,
        tier_mask: np.ndarray | None | object = _UNBUILT,
    ) -> "OptAssignProblem":
        """An instance from already-validated parts, skipping ``__init__``.

        The one construction shortcut behind :meth:`relaxed` and the online
        engine's columnar build (:meth:`repro.engine.WindowPlan.stack`).  Every part must already have passed
        ``__init__``'s validation against this catalog (profiles carrying the
        ``"none"`` scheme, SLO/affinity keyed by known names, banned tiers in
        range); re-validating per row is exactly the cost these callers exist
        to avoid.  ``profile_columns`` and ``tier_mask`` may pre-seed the
        :meth:`_profile_columns` and :meth:`_tier_mask` caches when the
        caller already holds them for this row order.
        """
        problem = cls.__new__(cls)
        problem._set_state(
            cost_model,
            arrays,
            profiles,
            latency_slo,
            provider_affinity,
            banned_tiers,
            profile_columns=profile_columns,
            tier_mask=tier_mask,
        )
        return problem

    def _set_state(
        self,
        cost_model: CostModel,
        arrays: PartitionArrays | None,
        profiles: dict[str, dict[str, CompressionProfile]],
        latency_slo: dict[str, float],
        provider_affinity: dict[str, frozenset[str]],
        banned_tiers: frozenset[int],
        partitions: list[DataPartition] | None = None,
        profile_columns: ProfileColumns | None = None,
        tier_mask: np.ndarray | None | object = _UNBUILT,
    ) -> None:
        """Set every instance field; shared by ``__init__`` and :meth:`_assemble`."""
        self._partitions_list: list[DataPartition] | None = partitions
        self.cost_model = cost_model
        self._profiles = profiles
        self._latency_slo = latency_slo
        self._provider_affinity = provider_affinity
        self._banned_tiers = banned_tiers
        self._arrays: PartitionArrays | None = arrays
        self._profile_columns_cache: ProfileColumns | None = profile_columns
        self._tier_mask_cache = tier_mask
        self._codec_mask_cache: np.ndarray | None = None
        self._tensors: BatchCostTensors | None = None

    # -- accessors -------------------------------------------------------------
    @property
    def partitions(self) -> list[DataPartition]:
        """The placement units, materialised on demand.

        Problems assembled from a :class:`PartitionArrays` (the stacked fleet
        fast path, relaxed copies) carry only the columnar view; the
        :class:`DataPartition` objects are built lazily here, so the
        vectorized solve paths — which read the columns directly — never pay
        the per-row object construction at fleet scale.
        """
        if self._partitions_list is None:
            self._partitions_list = self._arrays.to_partitions()
        return self._partitions_list

    @property
    def tier_count(self) -> int:
        return len(self.cost_model.tiers)

    @property
    def partition_names(self) -> list[str]:
        if self._arrays is not None:
            return list(self._arrays.names)
        return [partition.name for partition in self.partitions]

    def schemes_for(self, partition: DataPartition) -> list[str]:
        """Compression schemes with a profile available for ``partition``."""
        return sorted(self._profiles[partition.name])

    def profile_for(self, partition_name: str, scheme: str) -> CompressionProfile:
        return self._profiles[partition_name][scheme]

    def slo_cap_for(self, partition_name: str) -> float | None:
        """The partition's tier-SLO cap in seconds, or ``None`` if unconstrained."""
        return self._latency_slo.get(partition_name)

    def providers_allowed_for(self, partition_name: str) -> frozenset[str] | None:
        """Provider names the partition may occupy, or ``None`` if unconstrained."""
        return self._provider_affinity.get(partition_name)

    @property
    def banned_tiers(self) -> frozenset[int]:
        """Tier indices masked infeasible for every partition (empty if none)."""
        return self._banned_tiers

    # -- candidate enumeration ----------------------------------------------------
    def options_for(
        self, partition: DataPartition, include_infeasible: bool = False
    ) -> list[CandidateOption]:
        """All (tier, scheme) candidates for ``partition``.

        By default only latency-feasible, codec-allowed options are returned;
        ``include_infeasible`` keeps the rest (used for diagnostics and for
        the latency-relaxation loop).
        """
        model = self.cost_model
        tiers = model.tiers
        slo_cap = self._latency_slo.get(partition.name)
        allowed_providers = self._provider_affinity.get(partition.name)
        options: list[CandidateOption] = []
        for tier_index in range(self.tier_count):
            slo_feasible = (
                slo_cap is None or tiers[tier_index].effective_slo_s <= slo_cap
            )
            # A banned tier is reported through the provider_allowed flag:
            # bans model provider-level faults (outages), and reusing the
            # existing flag keeps CandidateOption's shape — and therefore the
            # scalar/vectorized feasibility parity — unchanged.
            provider_allowed = (
                allowed_providers is None
                or tiers.provider_of(tier_index) in allowed_providers
            ) and tier_index not in self._banned_tiers
            for scheme in self.schemes_for(partition):
                profile = self._profiles[partition.name][scheme]
                latency = model.access_latency_s(partition, tier_index, profile)
                option = CandidateOption(
                    partition=partition.name,
                    tier_index=tier_index,
                    scheme=scheme,
                    objective=model.placement_objective(partition, tier_index, profile),
                    breakdown=model.placement_breakdown(partition, tier_index, profile),
                    latency_s=latency,
                    latency_feasible=latency <= partition.latency_threshold_s,
                    codec_allowed=model.is_codec_allowed(partition, scheme),
                    slo_feasible=slo_feasible,
                    provider_allowed=provider_allowed,
                )
                if include_infeasible or option.feasible:
                    options.append(option)
        return options

    def all_options(
        self, include_infeasible: bool = False
    ) -> dict[str, list[CandidateOption]]:
        """Candidate options for every partition, keyed by partition name."""
        return {
            partition.name: self.options_for(partition, include_infeasible)
            for partition in self.partitions
        }

    # -- columnar fast path ----------------------------------------------------
    def partition_arrays(self) -> PartitionArrays:
        """The partitions as a struct-of-arrays view (cached, lossless)."""
        if self._arrays is None:
            self._arrays = PartitionArrays.from_partitions(self.partitions)
        return self._arrays

    def scheme_union(self) -> tuple[str, ...]:
        """All schemes appearing in any partition's profile table, sorted.

        Sorted order matters: restricted to one partition's available schemes
        it reproduces :meth:`schemes_for`'s enumeration order, which is what
        keeps the vectorized argmin's tie-breaking identical to the scalar
        solver's.
        """
        return self._profile_columns()[0]

    def _profile_columns(self) -> ProfileColumns:
        """(schemes, ratio (N,K), decompression_s_per_gb (N,K), available (N,K))."""
        if self._profile_columns_cache is None:
            schemes = tuple(
                sorted({scheme for table in self._profiles.values() for scheme in table})
            )
            self._profile_columns_cache = profile_columns(
                self.partition_arrays().names, self._profiles, schemes
            )
        return self._profile_columns_cache

    def _slo_vector(self) -> np.ndarray | None:
        """(N,) per-partition SLO caps (``inf`` = unconstrained), or ``None``."""
        if not self._latency_slo:
            return None
        arrays = self.partition_arrays()
        caps = np.full(len(arrays), np.inf, dtype=np.float64)
        # Iterate the (typically sparse) SLO map, not every partition: at
        # fleet scale the per-row dict probe is what dominated this build.
        for name, cap in self._latency_slo.items():
            caps[arrays.index_of(name)] = cap
        return caps

    def _tier_allowed_mask(self) -> np.ndarray | None:
        """(N, T) affinity + banned-tier mask, or ``None`` when unconstrained.

        Returning ``None`` (rather than an all-true mask) when there is no
        affinity and no ban keeps the calm-run tensors byte-identical to the
        pre-constraint code path.
        """
        if not self._provider_affinity and not self._banned_tiers:
            return None
        tiers = self.cost_model.tiers
        tier_provider = [tiers.provider_of(t) for t in range(self.tier_count)]
        arrays = self.partition_arrays()
        mask = np.ones((len(arrays), self.tier_count), dtype=bool)
        for name, allowed in self._provider_affinity.items():
            mask[arrays.index_of(name)] = [
                provider in allowed for provider in tier_provider
            ]
        if self._banned_tiers:
            mask[:, sorted(self._banned_tiers)] = False
        return mask

    def _tier_mask(self) -> np.ndarray | None:
        """(N, T) tier eligibility under the hard constraints — SLO caps,
        provider affinity and banned tiers combined — or ``None`` when no
        constraint applies (cached).

        It does not depend on prices: re-pricing the catalog leaves its
        latencies and SLOs alone.
        """
        if self._tier_mask_cache is _UNBUILT:
            mask = self._tier_allowed_mask()
            slo = self._slo_vector()
            if slo is not None:
                effective = self.cost_model.tiers.cost_arrays()["effective_slo_s"]
                slo_ok = effective[None, :] <= slo[:, None]
                mask = slo_ok if mask is None else slo_ok & mask
            self._tier_mask_cache = mask
        return self._tier_mask_cache

    def _codec_mask(self) -> np.ndarray:
        """(N, K) codec pinning over :meth:`scheme_union` (cached)."""
        if self._codec_mask_cache is None:
            self._codec_mask_cache = CostModel._batch_codec_allowed(
                self.partition_arrays(), self.scheme_union()
            )
        return self._codec_mask_cache

    def min_stored_gb(self) -> np.ndarray:
        """(N,) smallest on-disk footprint each partition can reach.

        Minimum of ``size_gb / ratio`` over the partition's available,
        codec-allowed schemes (``inf`` when no scheme is usable at all).
        Deliberately latency-independent — the capacity infeasibility
        certificate in ``solve_optassign`` relies on that, because latency
        relaxation can unlock any available scheme.
        """
        _, ratio, _, available = self._profile_columns()
        usable = available & self._codec_mask()
        stored = np.where(
            usable, self.partition_arrays().size_gb[:, None] / ratio, np.inf
        )
        return stored.min(axis=1)

    def hard_mask_empty_partitions(self) -> list[str]:
        """Partitions with no candidate under the *never-relaxed* constraints.

        Checks tier eligibility (SLO caps, provider affinity) and scheme
        eligibility (availability, codec pinning) while ignoring latency
        thresholds entirely: a partition listed here stays infeasible no
        matter how far ``relaxed`` widens the latency SLAs, so the facade
        fails fast with a pointed error instead of burning relaxation rounds.
        """
        arrays = self.partition_arrays()
        _, _, _, available = self._profile_columns()
        empty = ~(available & self._codec_mask()).any(axis=1)
        tier_ok = self._tier_mask()
        if tier_ok is not None:
            empty |= ~tier_ok.any(axis=1)
        return [arrays.names[i] for i in np.flatnonzero(empty)]

    def batch_tensors(self) -> BatchCostTensors:
        """The full vectorized candidate evaluation (cached).

        Every cell agrees bit for bit with the :class:`CandidateOption` the
        scalar :meth:`options_for` would build for the same (partition, tier,
        scheme) triple; the ``feasible`` mask matches
        :attr:`CandidateOption.feasible` plus scheme availability, including
        the SLO and provider-affinity constraints.
        """
        if self._tensors is None:
            with get_tracer().span("optassign.batch_tensors") as span:
                schemes, ratio, decompression, available = self._profile_columns()
                self._tensors = self.cost_model.batch_tensors(
                    self.partition_arrays(),
                    schemes,
                    ratio,
                    decompression,
                    available,
                    tier_allowed=self._tier_mask(),
                    codec_allowed=self._codec_mask(),
                )
                span.set(
                    partitions=self._tensors.num_partitions,
                    tiers=self._tensors.num_tiers,
                    schemes=self._tensors.num_schemes,
                )
        return self._tensors

    def stored_gb(self, partition: DataPartition, scheme: str) -> float:
        """On-disk size of ``partition`` under ``scheme`` (used by capacity constraints)."""
        profile = self._profiles[partition.name][scheme]
        return profile.compressed_gb(partition.size_gb)

    def has_finite_capacity(self) -> bool:
        """True if any tier has a finite reserved capacity."""
        return any(tier.capacity_gb != float("inf") for tier in self.cost_model.tiers)

    def with_current_placement(
        self,
        placement: Mapping[str, object],
        pin_codecs: bool = False,
    ) -> "OptAssignProblem":
        """A copy of the problem that knows where the data lives *today*.

        ``placement`` maps partition names to either a tier index (``int``) or
        anything with a ``tier_index`` attribute (e.g. the simulator's
        :class:`~repro.cloud.PlacementDecision` or a solver's
        :class:`~repro.core.optassign.CandidateOption`).  Partitions listed
        there get ``current_tier`` set accordingly, so the objective's
        ``Delta_{u,v}`` term charges the true cost of *moving away* from the
        existing layout — the warm start a rolling re-optimization loop needs
        (staying put is free, migrating pays read + write).  Partitions not
        listed keep their current tier.

        With ``pin_codecs`` the current scheme (when the placement entry
        carries a ``profile.scheme``) is pinned as ``current_codec``,
        reproducing the paper's already-compressed constraint; by default
        re-compression is allowed and simply billed.
        """
        partitions = []
        for partition in self.partitions:
            entry = placement.get(partition.name)
            if entry is None:
                partitions.append(partition)
                continue
            tier_index = entry if isinstance(entry, int) else int(entry.tier_index)
            codec = partition.current_codec
            if pin_codecs:
                profile = getattr(entry, "profile", None)
                scheme = getattr(profile, "scheme", None) or getattr(entry, "scheme", None)
                if scheme is not None:
                    # The "none" scheme means stored uncompressed, not pinned:
                    # a later re-optimization may still choose to compress.
                    codec = None if scheme == NO_COMPRESSION else scheme
            partitions.append(
                replace(partition, current_tier=tier_index, current_codec=codec)
            )
        return OptAssignProblem(
            partitions,
            self.cost_model,
            self._profiles,
            latency_slo_s=self._latency_slo,
            provider_affinity=self._provider_affinity,
            banned_tiers=self._banned_tiers,
        )

    def relaxed(self, latency_factor: float) -> "OptAssignProblem":
        """A copy of the problem with every latency threshold multiplied by ``latency_factor``.

        The paper notes that when capacity and latency constraints make the
        ILP infeasible, latency requirements are relaxed iteratively until a
        solution exists.
        """
        if latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        # Scaling the one affected column of the arrays view (rather than
        # copying every DataPartition) keeps relaxation O(N) numpy work; the
        # partition objects materialise lazily if anything scalar asks.  The
        # multiplication is the same float op the per-partition copy
        # performed, so the relaxed tensors stay bit-identical.
        arrays = self.partition_arrays()
        relaxed_arrays = replace(
            arrays,
            latency_threshold_s=arrays.latency_threshold_s * latency_factor,
        )
        # SLO caps, provider affinity and banned tiers are *hard* constraints:
        # latency relaxation widens the SLA thresholds but never the
        # tier-eligibility masks, so all three carry over unchanged, and so
        # does their combined mask.  The profile columns and the codec mask
        # depend only on the (shared) profile table, the codecs and the
        # partition order, so the relaxed copy reuses them; the cost tensors
        # depend on the latency thresholds and are recomputed.
        problem = OptAssignProblem._assemble(
            self.cost_model,
            relaxed_arrays,
            self._profiles,
            self._latency_slo,
            self._provider_affinity,
            self._banned_tiers,
            profile_columns=self._profile_columns_cache,
            tier_mask=self._tier_mask_cache,
        )
        problem._codec_mask_cache = self._codec_mask_cache
        return problem
