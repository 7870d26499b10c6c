"""A month-by-month cloud storage simulator.

The optimizer works from *predicted* accesses; the simulator replays the
*actual* access trace against a chosen placement and produces the bill the
cloud provider would have issued.  This is how the paper's "% cost benefit"
numbers are computed: run the platform-default placement and the optimized
placement against the same trace and compare the bills.

The simulator also tracks early-deletion penalties (data moved out of a tier
before its minimum residency) and per-access latencies, so SLA violations can
be counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arrays import PartitionArrays
from .events import EventBatch
from .billing import CompressionProfile, CostBreakdown, CostModel, NO_COMPRESSION_PROFILE
from .objects import DataPartition
from .tiers import NEW_DATA_TIER, TierCatalog

__all__ = [
    "AccessEvent",
    "PlacementDecision",
    "PlacementColumns",
    "recode",
    "SimulationResult",
    "CloudStorageSimulator",
    "CompiledPlacement",
    "compile_prices",
    "percent_cost_benefit",
]


@dataclass(frozen=True)
class AccessEvent:
    """A single (aggregated) access to a partition during one month.

    ``reads`` is the number of read operations issued in ``month`` against
    ``partition``; each read touches ``partition.read_gb_per_access`` GB of
    uncompressed data.
    """

    month: int
    partition: str
    reads: float = 1.0

    def __post_init__(self) -> None:
        if self.month < 0:
            raise ValueError("month must be non-negative")
        if self.reads < 0:
            raise ValueError("reads must be non-negative")


@dataclass(frozen=True)
class PlacementDecision:
    """Where a partition is stored and with what compression scheme."""

    tier_index: int
    profile: CompressionProfile = NO_COMPRESSION_PROFILE

    def __post_init__(self) -> None:
        if self.tier_index < 0:
            raise ValueError("tier_index must be a valid tier (>= 0)")


def recode(
    codes: np.ndarray, source: Sequence[str], target: Sequence[str]
) -> np.ndarray:
    """Scheme ``codes`` into ``source`` as a new array of codes into
    ``target`` (``-1`` for a scheme ``target`` lacks; a ``-1`` code stays
    ``-1``)."""
    if tuple(source) == tuple(target):
        return codes.copy()
    index = {scheme: k for k, scheme in enumerate(target)}
    # The trailing entry is what a -1 code gathers.
    table = [index.get(scheme, -1) for scheme in source] + [-1]
    return np.array(table, dtype=np.int64)[codes]


class PlacementColumns(Mapping):
    """A placement as row-aligned columns: one tier and one profile per row.

    The form a solved placement travels in from the solver to the executor
    and the compiled billing step: ``tier`` (int64) and ``scheme`` (int64
    codes into ``schemes``) per row of ``names``, plus the chosen profile's
    ``ratio`` and ``decompression_s_per_gb`` as float64 columns.  ``profiles``
    (``name -> scheme -> profile``) holds the profile objects themselves.
    ``placed`` marks which rows carry a decision (``None`` = every row); only
    a partial mapping converted by :meth:`from_mapping` leaves rows unplaced.

    It is also a read-only ``Mapping[str, PlacementDecision]`` over the
    placed rows in row order, building each decision when it is read.
    """

    __slots__ = (
        "names",
        "tier",
        "scheme",
        "schemes",
        "ratio",
        "decompression_s_per_gb",
        "profiles",
        "placed",
        "_index",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        tier: np.ndarray,
        scheme: np.ndarray,
        schemes: tuple[str, ...],
        ratio: np.ndarray,
        decompression_s_per_gb: np.ndarray,
        profiles: Mapping[str, Mapping[str, CompressionProfile]],
        placed: np.ndarray | None = None,
    ):
        self.names = names
        self.tier = tier
        self.scheme = scheme
        self.schemes = schemes
        self.ratio = ratio
        self.decompression_s_per_gb = decompression_s_per_gb
        self.profiles = profiles
        self.placed = placed
        self._index: dict[str, int] | None = None

    @classmethod
    def from_mapping(
        cls,
        names: Sequence[str],
        placement: Mapping[str, PlacementDecision],
    ) -> "PlacementColumns":
        """``placement`` as columns over ``names`` (the one adapter).

        Columns already in ``names`` order pass through unchanged; any other
        mapping is read once per row.  Names the mapping lacks stay unplaced;
        names outside ``names`` are ignored.
        """
        names = tuple(names)
        if isinstance(placement, PlacementColumns) and placement.names == names:
            return placement
        count = len(names)
        tier = np.full(count, -1, dtype=np.int64)
        scheme = np.full(count, -1, dtype=np.int64)
        ratio = np.ones(count, dtype=np.float64)
        decompression = np.zeros(count, dtype=np.float64)
        placed = np.zeros(count, dtype=bool)
        vocabulary: dict[str, int] = {}
        profiles: dict[str, dict[str, CompressionProfile]] = {}
        for row, name in enumerate(names):
            decision = placement.get(name)
            if decision is None:
                continue
            profile = decision.profile
            placed[row] = True
            tier[row] = decision.tier_index
            scheme[row] = vocabulary.setdefault(profile.scheme, len(vocabulary))
            ratio[row] = profile.ratio
            decompression[row] = profile.decompression_s_per_gb
            profiles[name] = {profile.scheme: profile}
        return cls(
            names,
            tier,
            scheme,
            tuple(vocabulary),
            ratio,
            decompression,
            profiles,
            None if placed.all() else placed,
        )

    def unplaced(self) -> list[str]:
        """Names without a decision, in row order."""
        if self.placed is None:
            return []
        return [self.names[row] for row in np.flatnonzero(~self.placed).tolist()]

    def _row(self, name: str) -> int:
        if self._index is None:
            self._index = {n: row for row, n in enumerate(self.names)}
        row = self._index[name]
        if self.placed is not None and not self.placed[row]:
            raise KeyError(name)
        return row

    # -- Mapping protocol --------------------------------------------------------
    def __getitem__(self, name: str) -> PlacementDecision:
        row = self._row(name)
        scheme = self.schemes[int(self.scheme[row])]
        return PlacementDecision(
            tier_index=int(self.tier[row]), profile=self.profiles[name][scheme]
        )

    def __contains__(self, name) -> bool:
        try:
            self._row(name)
        except KeyError:
            return False
        return True

    def __iter__(self):
        if self.placed is None:
            return iter(self.names)
        return (self.names[row] for row in np.flatnonzero(self.placed).tolist())

    def __len__(self) -> int:
        return len(self.names) if self.placed is None else int(self.placed.sum())


@dataclass
class SimulationResult:
    """Outcome of replaying an access trace against a placement."""

    bill: CostBreakdown
    early_deletion_penalty: float
    latency_violations: int
    access_count: int
    mean_latency_s: float
    per_partition: dict[str, CostBreakdown] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        """Total billed cents including early-deletion penalties."""
        return self.bill.total + self.early_deletion_penalty


class CloudStorageSimulator:
    """Replays access traces against placements and produces bills.

    Parameters
    ----------
    tiers:
        The tier catalog with prices and latencies.
    compute_cost_per_s:
        Compute price (cents/second) charged for decompression work.
    """

    def __init__(self, tiers: TierCatalog, compute_cost_per_s: float = 0.001):
        if not 0 <= compute_cost_per_s < math.inf:
            raise ValueError("compute cost must be non-negative and finite")
        self.tiers = tiers
        self.compute_cost_per_s = compute_cost_per_s

    def simulate(
        self,
        partitions: Sequence[DataPartition],
        placement: Mapping[str, PlacementDecision],
        access_trace: Iterable[AccessEvent],
        duration_months: float,
        months_in_current_tier: Mapping[str, float] | None = None,
    ) -> SimulationResult:
        """Replay ``access_trace`` against ``placement`` for ``duration_months``.

        Parameters
        ----------
        partitions:
            The partitions being stored; every one must have an entry in
            ``placement``.
        placement:
            Tier and compression decision per partition name.
        access_trace:
            Read events; events referring to months beyond the horizon or to
            unknown partitions raise ``KeyError``/``ValueError``.
        duration_months:
            Length of the billing horizon being simulated.
        months_in_current_tier:
            How long each partition has already resided in its current tier;
            used to charge early-deletion penalties when the placement moves
            it out before the minimum residency elapsed.
        """
        if duration_months <= 0:
            raise ValueError("duration_months must be positive")
        by_name = {partition.name: partition for partition in partitions}
        missing = [name for name in by_name if name not in placement]
        if missing:
            raise KeyError(f"placement missing partitions: {missing}")

        months_in_current_tier = months_in_current_tier or {}
        bill = CostBreakdown()
        per_partition: dict[str, CostBreakdown] = {}
        early_penalty = 0.0

        # Storage + migration charges, independent of the trace.
        for partition in partitions:
            decision = placement[partition.name]
            tier = self.tiers[decision.tier_index]
            stored_gb = decision.profile.compressed_gb(partition.size_gb)
            breakdown = CostBreakdown(
                storage=tier.storage_cost_for(stored_gb, duration_months),
                write=self.tiers.tier_change_cost(
                    partition.current_tier, decision.tier_index
                )
                * stored_gb,
            )
            per_partition[partition.name] = breakdown
            early_penalty += self._early_deletion_penalty(
                partition,
                decision,
                months_in_current_tier.get(partition.name, float("inf")),
            )

        # Access charges and latency bookkeeping, from the trace.
        latency_violations, total_latency, access_count = self._charge_accesses(
            by_name, placement, access_trace, per_partition, horizon=duration_months
        )

        for breakdown in per_partition.values():
            bill += breakdown

        mean_latency = total_latency / access_count if access_count else 0.0
        return SimulationResult(
            bill=bill,
            early_deletion_penalty=early_penalty,
            latency_violations=latency_violations,
            access_count=access_count,
            mean_latency_s=mean_latency,
            per_partition=per_partition,
        )

    def step_month(
        self,
        partitions: Sequence[DataPartition],
        placement: Mapping[str, PlacementDecision],
        access_events: Iterable[AccessEvent],
        storage_months: float = 1.0,
    ) -> SimulationResult:
        """Simulate a single billing epoch incrementally.

        Charges one epoch (``storage_months``) of storage for every partition
        plus the read/decompression cost and latency of ``access_events``.
        Unlike :meth:`simulate` it charges **no** tier-change writes and no
        early-deletion penalties: in the online setting those are one-off
        charges owned by whoever moves the data (see
        :class:`repro.engine.MigrationExecutor`), while this method accounts
        the recurring part of the bill.  The storage, read and decompression
        components summed over a horizon equal :meth:`simulate`'s exactly;
        movement charges are the mover's accounting (which may price a move in
        more detail than :meth:`simulate`'s single write term — e.g. reading
        the source at its *current* stored size rather than the destination's).

        ``access_events`` may carry any ``month`` value; they are interpreted
        as "the accesses that happened during this epoch".
        """
        if storage_months < 0:
            raise ValueError("storage_months must be non-negative")
        by_name = {partition.name: partition for partition in partitions}
        missing = [name for name in by_name if name not in placement]
        if missing:
            raise KeyError(f"placement missing partitions: {missing}")

        per_partition: dict[str, CostBreakdown] = {}
        for partition in partitions:
            decision = placement[partition.name]
            tier = self.tiers[decision.tier_index]
            stored_gb = decision.profile.compressed_gb(partition.size_gb)
            per_partition[partition.name] = CostBreakdown(
                storage=tier.storage_cost_for(stored_gb, storage_months)
            )

        latency_violations, total_latency, access_count = self._charge_accesses(
            by_name, placement, access_events, per_partition, horizon=None
        )

        bill = CostBreakdown()
        for breakdown in per_partition.values():
            bill += breakdown
        mean_latency = total_latency / access_count if access_count else 0.0
        return SimulationResult(
            bill=bill,
            early_deletion_penalty=0.0,
            latency_violations=latency_violations,
            access_count=access_count,
            mean_latency_s=mean_latency,
            per_partition=per_partition,
        )

    def _charge_accesses(
        self,
        by_name: Mapping[str, DataPartition],
        placement: Mapping[str, PlacementDecision],
        access_events: Iterable[AccessEvent],
        per_partition: dict[str, CostBreakdown],
        horizon: float | None,
    ) -> tuple[int, float, int]:
        """Accumulate read/decompression charges into ``per_partition``.

        Returns ``(latency_violations, total_latency, access_count)``.  When
        ``horizon`` is given, events beyond it raise (the batch contract);
        ``None`` skips the check (the incremental contract).
        """
        latency_violations = 0
        total_latency = 0.0
        access_count = 0
        for event in access_events:
            if horizon is not None and event.month >= horizon:
                raise ValueError(
                    f"access event at month {event.month} is outside the "
                    f"{horizon}-month horizon"
                )
            partition = by_name.get(event.partition)
            if partition is None:
                raise KeyError(
                    f"access event references unknown partition {event.partition!r}"
                )
            decision = placement[event.partition]
            tier = self.tiers[decision.tier_index]
            read_gb = decision.profile.compressed_gb(partition.read_gb_per_access)
            decompression_s = decision.profile.decompression_seconds(
                partition.read_gb_per_access
            )
            access = CostBreakdown(
                read=tier.read_cost_for(read_gb, event.reads),
                decompression=self.compute_cost_per_s * decompression_s * event.reads,
            )
            per_partition[event.partition] += access

            latency = decompression_s + tier.latency_s
            total_latency += latency * event.reads
            access_count += int(round(event.reads))
            if latency > partition.latency_threshold_s:
                latency_violations += int(round(event.reads))
        return latency_violations, total_latency, access_count

    def _early_deletion_penalty(
        self,
        partition: DataPartition,
        decision: PlacementDecision,
        months_resident: float,
    ) -> float:
        """Penalty for moving data out of a tier before its minimum residency.

        Azure bills the remaining storage months of the early-deletion window
        when data leaves the tier early; we reproduce that rule.
        """
        if partition.current_tier == NEW_DATA_TIER:
            return 0.0
        if decision.tier_index == partition.current_tier:
            return 0.0
        source = self.tiers[partition.current_tier]
        if months_resident >= source.early_deletion_months:
            return 0.0
        remaining = source.early_deletion_months - months_resident
        return source.storage_cost_for(partition.size_gb, remaining)

    def compile_placement(
        self,
        partitions: Sequence[DataPartition] | PartitionArrays,
        placement: Mapping[str, PlacementDecision],
    ) -> "CompiledPlacement":
        """Precompile ``(partitions, placement)`` for vectorized epoch stepping.

        The returned :class:`CompiledPlacement` answers :meth:`step_month`-style
        queries in O(events this epoch) numpy work instead of per-partition
        Python loops.  Compile once, step many times; recompile whenever the
        placement changes (the online engine does this at re-optimization
        points only).
        """
        arrays = (
            partitions
            if isinstance(partitions, PartitionArrays)
            else PartitionArrays.from_partitions(partitions)
        )
        return CompiledPlacement(self, arrays, placement)

    # -- convenience ----------------------------------------------------------
    def default_placement(
        self, partitions: Sequence[DataPartition], tier_index: int = 0
    ) -> dict[str, PlacementDecision]:
        """The platform baseline: everything uncompressed in a single tier."""
        return {
            partition.name: PlacementDecision(tier_index=tier_index)
            for partition in partitions
        }

    def cost_model(
        self, duration_months: float, weights=None
    ) -> CostModel:
        """A :class:`CostModel` consistent with this simulator's parameters."""
        return CostModel(
            tiers=self.tiers,
            compute_cost_per_s=self.compute_cost_per_s,
            duration_months=duration_months,
            weights=weights,
        )


def compile_prices(
    costs: Mapping[str, np.ndarray],
    compute_cost_per_s: float,
    tier: np.ndarray,
    ratio: np.ndarray,
    decompression_s_per_gb: np.ndarray,
    size_gb: np.ndarray,
    read_gb_per_access: np.ndarray,
    latency_threshold_s: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The per-row billing columns of a placement: ``(stored_gb,
    storage_per_month, read_cost_per_read, decompression_cost_per_read,
    latency_s, violates_sla)``.

    The one price-compile rule: :class:`CompiledPlacement` and the engine's
    block columns both call it.  ``costs`` is a catalog's
    :meth:`~repro.cloud.TierCatalog.cost_arrays`; every other argument is a
    row-aligned column (``tier``, ``ratio`` and ``decompression_s_per_gb``
    from the placement, the rest from the partitions).  Every cell is
    computed elementwise, so a row's prices do not depend on its neighbours.
    """
    stored_gb = size_gb / ratio
    storage = costs["storage_cost"][tier] * stored_gb
    read = costs["read_cost"][tier] * (read_gb_per_access / ratio)
    decompression_s = decompression_s_per_gb * read_gb_per_access
    decompression = compute_cost_per_s * decompression_s
    latency = decompression_s + costs["latency_s"][tier]
    return stored_gb, storage, read, decompression, latency, latency > latency_threshold_s


class CompiledPlacement:
    """Vectorized per-epoch billing for one fixed (partitions, placement) pair.

    Precomputes, per partition, the monthly storage charge, the per-read cost
    components and the access latency as numpy vectors, so stepping an epoch
    is a handful of gathers over the events that actually happened — the same
    quantities :meth:`CloudStorageSimulator.step_month` computes with Python
    loops, to within floating-point summation order (the per-element
    arithmetic mirrors the scalar operation order exactly; only the totals
    are accumulated in a different order).

    Build via :meth:`CloudStorageSimulator.compile_placement`.
    """

    def __init__(
        self,
        simulator: CloudStorageSimulator,
        arrays: PartitionArrays,
        placement: Mapping[str, PlacementDecision],
    ):
        columns = PlacementColumns.from_mapping(arrays.names, placement)
        missing = columns.unplaced()
        if missing:
            raise KeyError(f"placement missing partitions: {missing}")
        self._bind(
            simulator,
            arrays,
            columns.tier,
            compile_prices(
                simulator.tiers.cost_arrays(),
                simulator.compute_cost_per_s,
                columns.tier,
                columns.ratio,
                columns.decompression_s_per_gb,
                arrays.size_gb,
                arrays.read_gb_per_access,
                arrays.latency_threshold_s,
            ),
        )

    @classmethod
    def from_columns(
        cls,
        simulator: CloudStorageSimulator,
        arrays: PartitionArrays,
        tier_index: np.ndarray,
        prices: Sequence[np.ndarray],
    ) -> "CompiledPlacement":
        """A compiled placement over columns :func:`compile_prices` already
        computed (``prices`` in its return order), kept as given — views
        stay views."""
        compiled = cls.__new__(cls)
        compiled._bind(simulator, arrays, tier_index, prices)
        return compiled

    def _bind(self, simulator, arrays, tier_index, prices) -> None:
        self.simulator = simulator
        self.arrays = arrays
        self.tier_index = tier_index
        (
            self.stored_gb,
            self.storage_per_month,
            self.read_cost_per_read,
            self.decompression_cost_per_read,
            self.latency_s,
            self.violates_sla,
        ) = prices

    def tier_usage_gb(self) -> np.ndarray:
        """Stored GB per catalog tier under this placement.

        The per-account capacity ledger: summed across tenants it is what the
        fleet layer checks against shared :class:`~repro.cloud.CapacityPool`
        budgets and reports as pool utilization.
        """
        return np.bincount(
            self.tier_index,
            weights=self.stored_gb,
            minlength=len(self.simulator.tiers),
        )

    def step(
        self,
        access_events: EventBatch | Iterable[AccessEvent],
        storage_months: float = 1.0,
        include_per_partition: bool = False,
        rows: np.ndarray | None = None,
    ) -> SimulationResult:
        """One epoch of storage plus this epoch's accesses, vectorized.

        Semantics match :meth:`CloudStorageSimulator.step_month`: one epoch of
        storage for every partition, read + decompression charges and latency
        bookkeeping for the events, no tier-change writes and no
        early-deletion penalties.  ``include_per_partition`` populates
        :attr:`SimulationResult.per_partition` (off by default — building one
        Python object per partition per epoch is exactly what this fast path
        exists to avoid).  ``rows`` are the events' partition rows
        (:meth:`~repro.cloud.PartitionArrays.event_rows`) when the caller has
        them already.
        """
        if storage_months < 0:
            raise ValueError("storage_months must be non-negative")
        events = (
            access_events
            if isinstance(access_events, EventBatch)
            else EventBatch.from_events(access_events)
        )
        storage_total = float(np.sum(self.storage_per_month) * storage_months)
        if len(events):
            index_array = self.arrays.event_rows(events) if rows is None else rows
            reads_array = events.reads
            # np.rint rounds half to even, exactly like round().
            rounds_array = np.rint(reads_array).astype(np.int64)
            read_total = float(self.read_cost_per_read[index_array] @ reads_array)
            decompression_total = float(
                self.decompression_cost_per_read[index_array] @ reads_array
            )
            total_latency = float(self.latency_s[index_array] @ reads_array)
            access_count = int(rounds_array.sum())
            latency_violations = int(
                rounds_array[self.violates_sla[index_array]].sum()
            )
        else:
            read_total = decompression_total = total_latency = 0.0
            access_count = latency_violations = 0

        per_partition: dict[str, CostBreakdown] = {}
        if include_per_partition:
            reads_dense = np.zeros(len(self.arrays), dtype=np.float64)
            if len(events):
                np.add.at(reads_dense, index_array, reads_array)
            storage_each = (self.storage_per_month * storage_months).tolist()
            read_each = (self.read_cost_per_read * reads_dense).tolist()
            decompression_each = (
                self.decompression_cost_per_read * reads_dense
            ).tolist()
            for i, name in enumerate(self.arrays.names):
                per_partition[name] = CostBreakdown(
                    storage=storage_each[i],
                    read=read_each[i],
                    decompression=decompression_each[i],
                )

        mean_latency = total_latency / access_count if access_count else 0.0
        return SimulationResult(
            bill=CostBreakdown(
                storage=storage_total,
                read=read_total,
                decompression=decompression_total,
            ),
            early_deletion_penalty=0.0,
            latency_violations=latency_violations,
            access_count=access_count,
            mean_latency_s=mean_latency,
            per_partition=per_partition,
        )


def percent_cost_benefit(baseline_cost: float, optimized_cost: float) -> float:
    """The paper's ``% cost benefit`` metric: relative saving vs a baseline."""
    if baseline_cost < 0 or optimized_cost < 0:
        raise ValueError("costs must be non-negative")
    if baseline_cost == 0:
        return 0.0
    return 100.0 * (baseline_cost - optimized_cost) / baseline_cost
