"""Applying placement changes to the simulated cloud — and paying for them.

Re-optimizing is free on paper; in a real object store every move is billed:
the data is read out of its source tier, written into its destination tier,
and tiers with a minimum residency (Azure archive: 6 months) charge the
remaining storage months when data leaves early.  :class:`MigrationExecutor`
charges exactly those costs, mutates the live partitions' ``current_tier``
and resets their tier-residency clocks, so policies are compared on *true
end-to-end bills* — a policy that thrashes data between tiers loses to one
that stays put, even if each of its placements is individually optimal.

Compression changes are treated as moves too: re-encoding a partition means
reading the old representation and writing the new one, even within a tier.
After a placement is applied the partition's ``current_codec`` records the
scheme it is stored with, so subsequent re-optimizations pin
already-compressed partitions to their scheme (the paper's last ILP
constraint) instead of flipping codecs at a billed cost the objective never
priced.  The one transition that remains billed-but-unpriced is compressing
previously *uncompressed* data in place (the objective's tier-change term is
zero within a tier); that charge is one-off per partition and biases the
engine conservatively against churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from ..cloud import DataPartition, PlacementColumns, PlacementDecision, TierCatalog
from ..cloud.objects import NO_COMPRESSION
from ..cloud.simulator import recode
from ..cloud.tiers import NEW_DATA_TIER
from ..obs import get_metrics

__all__ = ["MigrationRecord", "MigrationReport", "MigrationExecutor"]


@dataclass(frozen=True)
class MigrationRecord:
    """One partition's move during a placement change.

    ``cost`` is the read-at-source plus write-at-destination charge;
    ``egress_cost`` is the source provider's per-GB network egress fee when
    the move crosses a provider boundary in a multi-provider catalog (zero
    for intra-provider moves and for single-provider catalogs).
    """

    partition: str
    from_tier: int
    to_tier: int
    moved_gb: float
    cost: float
    early_deletion_penalty: float
    egress_cost: float = 0.0


@dataclass
class MigrationReport:
    """Everything a placement change cost."""

    epoch: int
    moves: list[MigrationRecord]

    @property
    def num_moved(self) -> int:
        return len(self.moves)

    @property
    def moved_gb(self) -> float:
        return float(sum(move.moved_gb for move in self.moves))

    @property
    def migration_cost(self) -> float:
        """Read-at-source, write-at-destination and cross-provider egress
        charges, in cents."""
        return float(sum(move.cost + move.egress_cost for move in self.moves))

    @property
    def egress_cost(self) -> float:
        """Cross-provider egress charges alone, in cents."""
        return float(sum(move.egress_cost for move in self.moves))

    @property
    def early_deletion_penalty(self) -> float:
        return float(sum(move.early_deletion_penalty for move in self.moves))

    @property
    def total_cost(self) -> float:
        return self.migration_cost + self.early_deletion_penalty


class MigrationExecutor:
    """Applies a new placement to the live partition state, charging for moves."""

    def __init__(self, tiers: TierCatalog):
        self.tiers = tiers

    def apply(
        self,
        partitions: Sequence[DataPartition],
        old_placement: Mapping[str, PlacementDecision] | None,
        new_placement: Mapping[str, PlacementDecision],
        months_in_tier: np.ndarray,
        epoch: int = 0,
        waive_early_deletion_tiers: "frozenset[int] | set[int] | None" = None,
    ) -> MigrationReport:
        """Move every partition to its new placement and bill the moves.

        ``old_placement`` is ``None`` for the initial placement of newly
        ingested data (everything pays only its destination write cost).
        ``months_in_tier`` is the residency clock column, one float64 per
        partition in ``partitions`` order.  Mutates each partition's
        ``current_tier`` and resets the clock of moved partitions; unmoved
        partitions (same tier, same scheme) cost nothing.

        ``waive_early_deletion_tiers`` names source tiers whose outbound
        moves skip the early-deletion penalty.  A *forced evacuation* off a
        dead provider's tiers is not a voluntary early deletion: charging the
        remaining-months penalty there, on top of the evacuation move itself
        (and a second migration if the partition later returns after
        recovery), would double-bill the outage.  The residency clock still
        resets — the waiver changes who eats the penalty, not where the data
        is.

        Both placements are read as :class:`~repro.cloud.PlacementColumns`
        (mappings convert once here); the moved rows come from one vectorized
        compare, and the per-move arithmetic runs only for them, in row order.
        """
        names = tuple(map(attrgetter("name"), partitions))
        new = PlacementColumns.from_mapping(names, new_placement)
        missing = new.unplaced()
        if missing:
            # Validate before anything mutates live state: a partial apply
            # would leave moves un-billed and residency clocks wrong.
            raise KeyError(f"new placement missing partitions: {missing}")
        if months_in_tier.shape != (len(names),):
            raise ValueError("months_in_tier needs one clock per partition")
        old = (
            None
            if old_placement is None
            else PlacementColumns.from_mapping(names, old_placement)
        )
        # Where each row lives today and how it is stored, with the stored
        # scheme as a code into the new placement's vocabulary (-1 = a
        # scheme the new placement does not use, which is always a move).
        if old is None:
            from_tier = np.empty(len(names), dtype=np.int64)
            old_scheme = np.empty(len(names), dtype=np.int64)
            unplaced = range(len(names))
        else:
            from_tier = old.tier.copy()
            old_scheme = recode(old.scheme, old.schemes, new.schemes)
            unplaced = (
                () if old.placed is None else np.flatnonzero(~old.placed).tolist()
            )
        # Without an old entry the partition's own tier and codec say where
        # and how the data is stored today — a pre-compressed partition
        # keeping its tier and scheme is not a move.
        new_codes = {scheme: code for code, scheme in enumerate(new.schemes)}
        for row in unplaced:
            partition = partitions[row]
            from_tier[row] = partition.current_tier
            old_scheme[row] = new_codes.get(
                partition.current_codec or NO_COMPRESSION, -1
            )
        # New data (NEW_DATA_TIER) always differs from the destination tier.
        moving = np.flatnonzero((from_tier != new.tier) | (old_scheme != new.scheme))

        moves: list[MigrationRecord] = []
        for row, source_tier, to_tier, same_scheme, new_ratio, code in zip(
            moving.tolist(),
            from_tier[moving].tolist(),
            new.tier[moving].tolist(),
            (old_scheme[moving] == new.scheme[moving]).tolist(),
            new.ratio[moving].tolist(),
            new.scheme[moving].tolist(),
        ):
            partition = partitions[row]
            name = partition.name
            write_gb = partition.size_gb / new_ratio
            if source_tier == NEW_DATA_TIER:
                moves.append(
                    MigrationRecord(
                        partition=name,
                        from_tier=NEW_DATA_TIER,
                        to_tier=to_tier,
                        moved_gb=write_gb,
                        cost=self.tiers[to_tier].write_cost_for(write_gb),
                        early_deletion_penalty=0.0,
                    )
                )
            else:
                source = self.tiers[source_tier]
                destination = self.tiers[to_tier]
                if old is not None and (old.placed is None or old.placed[row]):
                    read_gb = partition.size_gb / float(old.ratio[row])
                elif same_scheme:
                    # Same scheme, tier move only: the stored size is the new
                    # profile's compressed size.
                    read_gb = write_gb
                else:
                    # Old representation unknown — charge the uncompressed
                    # size (conservative upper bound).
                    read_gb = partition.size_gb
                cost = source.read_cost_for(read_gb) + destination.write_cost_for(
                    write_gb
                )
                # Cross-provider moves additionally pay the source provider's
                # network egress on the bytes read out (stored size at source).
                egress = self.tiers.egress_cost_per_gb(source_tier, to_tier) * read_gb
                penalty = 0.0
                if source_tier != to_tier and not (
                    waive_early_deletion_tiers
                    and source_tier in waive_early_deletion_tiers
                ):
                    resident = float(months_in_tier[row])
                    if resident < source.early_deletion_months:
                        penalty = source.storage_cost_for(
                            partition.size_gb, source.early_deletion_months - resident
                        )
                moves.append(
                    MigrationRecord(
                        partition=name,
                        from_tier=source_tier,
                        to_tier=to_tier,
                        moved_gb=read_gb,
                        cost=cost,
                        early_deletion_penalty=penalty,
                        egress_cost=egress,
                    )
                )
            partition.current_tier = to_tier
            # Record the applied scheme as the partition's current codec: the
            # paper pins already-compressed partitions to their scheme, so the
            # next warm-started re-optimization cannot flip codecs at a billed
            # cost the objective never priced.
            scheme = new.schemes[code]
            partition.current_codec = None if scheme == NO_COMPRESSION else scheme
        months_in_tier[moving] = 0.0
        report = MigrationReport(epoch=epoch, moves=moves)
        metrics = get_metrics()
        if metrics.enabled and report.num_moved:
            metrics.counter("migration.moves").add(report.num_moved)
            metrics.counter("migration.moved_gb").add(report.moved_gb)
            metrics.counter("migration.cost_cents").add(report.migration_cost)
            metrics.counter("migration.egress_cents").add(report.egress_cost)
            metrics.counter("migration.early_deletion_cents").add(
                report.early_deletion_penalty
            )
        return report

    @staticmethod
    def tick(months_in_tier: np.ndarray, months: float = 1.0) -> None:
        """Advance every partition's tier-residency clock by ``months``.

        The dense epoch loop ticks one month at a time; the epoch-free
        windowed loop ticks each window's fractional duration.
        """
        if months < 0:
            raise ValueError("months must be non-negative")
        months_in_tier += months
