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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..cloud import DataPartition, PlacementColumns, PlacementDecision, TierCatalog
from ..cloud.objects import NO_COMPRESSION
from ..cloud.simulator import recode
from ..cloud.tiers import NEW_DATA_TIER
from ..obs import get_metrics

__all__ = ["MigrationRecord", "MigrationReport", "MigrationExecutor", "MoveColumns"]


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


class MoveColumns(NamedTuple):
    """The moves of one placement change as columns, in move order.

    ``rows`` holds each move's row in the report's partition names; the
    other columns are the :class:`MigrationRecord` fields of the same name.
    """

    rows: np.ndarray
    from_tier: np.ndarray
    to_tier: np.ndarray
    moved_gb: np.ndarray
    cost: np.ndarray
    early_deletion_penalty: np.ndarray
    egress_cost: np.ndarray


class MigrationReport:
    """Everything a placement change cost.

    The executor and the engine's apply pass report their moves as
    :class:`MoveColumns` over the partition ``names`` (the apply pass hands
    every tenant of a window the same columns, each report over its own
    ``span`` of them, with its totals); :attr:`moves` builds one
    :class:`MigrationRecord` per move on first read and keeps the list, as
    :attr:`repro.core.optassign.Assignment.choices` does.  A report can also
    be built from records (``MigrationReport(epoch, moves)``).  Every total
    is the built-in ``sum`` over one value per move, in move order, whichever
    form the report holds.
    """

    __slots__ = ("epoch", "_names", "_columns", "_span", "_moves", "_totals")

    def __init__(
        self,
        epoch: int,
        moves: list[MigrationRecord] | None = None,
        *,
        names: Sequence[str] = (),
        columns: MoveColumns | None = None,
        span: tuple[int, int] | None = None,
        totals: dict[str, float] | None = None,
    ):
        self.epoch = epoch
        self._names = names
        self._columns = columns
        # The report's moves are columns[start:stop] when several reports
        # share one set of columns.
        self._span = span
        self._moves = moves if moves is not None or columns is not None else []
        self._totals: dict[str, float] = {} if totals is None else totals

    def _column(self, field: str) -> np.ndarray:
        values = getattr(self._columns, field)
        span = self._span
        return values if span is None else values[span[0] : span[1]]

    @property
    def moves(self) -> list[MigrationRecord]:
        """One record per move, in move order."""
        if self._moves is None:
            names = self._names
            self._moves = [
                MigrationRecord(names[row], *values)
                for row, *values in zip(
                    *(self._column(field).tolist() for field in MoveColumns._fields)
                )
            ]
        return self._moves

    def _total(self, field: str) -> float:
        """The built-in ``sum`` of one value per move, in move order (kept)."""
        total = self._totals.get(field)
        if total is None:
            if self._columns is None:
                values = [
                    move.cost + move.egress_cost
                    if field == "migration_cost"
                    else getattr(move, field)
                    for move in self._moves
                ]
            elif field == "migration_cost":
                values = (self._column("cost") + self._column("egress_cost")).tolist()
            else:
                values = self._column(field).tolist()
            total = self._totals[field] = float(sum(values))
        return total

    @property
    def num_moved(self) -> int:
        if self._columns is None:
            return len(self._moves)
        return len(self._column("rows"))

    @property
    def moved_gb(self) -> float:
        return self._total("moved_gb")

    @property
    def migration_cost(self) -> float:
        """Read-at-source, write-at-destination and cross-provider egress
        charges, in cents."""
        return self._total("migration_cost")

    @property
    def egress_cost(self) -> float:
        """Cross-provider egress charges alone, in cents."""
        return self._total("egress_cost")

    @property
    def early_deletion_penalty(self) -> float:
        return self._total("early_deletion_penalty")

    @property
    def total_cost(self) -> float:
        return self.migration_cost + self.early_deletion_penalty

    def evacuation_cost(self, tiers: "frozenset[int] | set[int]") -> float | None:
        """The move and egress charges of the moves out of ``tiers``, in
        cents, or ``None`` when no move left them."""
        if self._columns is None:
            charges = [
                move.cost + move.egress_cost
                for move in self._moves
                if move.from_tier in tiers
            ]
        else:
            off = np.isin(self._column("from_tier"), sorted(tiers))
            charges = (
                self._column("cost")[off] + self._column("egress_cost")[off]
            ).tolist()
        return float(sum(charges)) if charges else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MigrationReport):
            return NotImplemented
        return self.epoch == other.epoch and self.moves == other.moves

    def __repr__(self) -> str:
        return f"MigrationReport(epoch={self.epoch!r}, moves={self.moves!r})"


def count_moves(report: MigrationReport) -> None:
    """Add one report's moves to the ``migration.*`` counters."""
    metrics = get_metrics()
    if metrics.enabled and report.num_moved:
        metrics.counter("migration.moves").add(report.num_moved)
        metrics.counter("migration.moved_gb").add(report.moved_gb)
        metrics.counter("migration.cost_cents").add(report.migration_cost)
        metrics.counter("migration.egress_cents").add(report.egress_cost)
        metrics.counter("migration.early_deletion_cents").add(
            report.early_deletion_penalty
        )


class MigrationExecutor:
    """Applies a new placement to the live partition state, charging for moves."""

    def __init__(self, tiers: TierCatalog):
        self.tiers = tiers
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    def _move_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Each tier's early-deletion months and the ``(T, T)`` per-GB egress
        fee of every move; re-pricing the catalog changes neither."""
        if self._tables is None:
            tiers = self.tiers
            count = len(tiers)
            self._tables = (
                np.array([tier.early_deletion_months for tier in tiers], dtype=np.float64),
                np.array(
                    [
                        [tiers.egress_cost_per_gb(source, to) for to in range(count)]
                        for source in range(count)
                    ],
                    dtype=np.float64,
                ).reshape(count, count),
            )
        return self._tables

    def price(
        self,
        size_gb: np.ndarray,
        from_tier: np.ndarray,
        to_tier: np.ndarray,
        same_scheme: np.ndarray,
        old_placed: np.ndarray,
        old_ratio: np.ndarray,
        new_ratio: np.ndarray,
        resident: np.ndarray,
        waived: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(moved_gb, cost, early_deletion_penalty, egress_cost)`` of every
        move, one column entry per move: the one move-pricing rule.

        Each argument holds one entry per move: its size, source and
        destination tier (``NEW_DATA_TIER`` for new data), whether it keeps
        its scheme, whether the old placement covered it and that placement's
        ratio (any finite value where it did not), the new ratio, its months
        in the source tier and (optionally) whether its source tier is
        waived.

        New data pays the destination write only.  Any other move reads its
        stored size at the source — the old ratio's size when placed, the
        new ratio's on a same-scheme move of unplaced data, the uncompressed
        size otherwise — and writes its new size, pays the source
        provider's egress on the bytes read, and pays the remaining
        early-deletion months of a tier it leaves too early unless that
        tier is waived.  The arithmetic is the per-tier helpers' (e.g.
        :meth:`~repro.cloud.StorageTier.read_cost_for`), operation for
        operation, so every entry equals the scalar bill.  ``np.where``
        computes both branches, so the placeholder entries stay finite.
        """
        costs = self.tiers.cost_arrays()
        early, egress_per_gb = self._move_tables()
        fresh = from_tier == NEW_DATA_TIER
        any_fresh = bool(fresh.any())
        # New data has no source tier; tier 0 stands in for the gathers.
        source = np.where(fresh, 0, from_tier) if any_fresh else from_tier
        write_gb = size_gb / new_ratio
        read_gb = size_gb / old_ratio
        if not old_placed.all():
            read_gb = np.where(
                old_placed, read_gb, np.where(same_scheme, write_gb, size_gb)
            )
        write = costs["write_cost"][to_tier] * write_gb
        # read_cost_for's ``accesses=1.0`` factor is exact and left out.
        cost = costs["read_cost"][source] * read_gb + write
        egress = egress_per_gb[source, to_tier] * read_gb
        moved = read_gb
        charged = (source != to_tier) & (resident < early[source])
        if any_fresh:
            cost = np.where(fresh, write, cost)
            egress = np.where(fresh, 0.0, egress)
            moved = np.where(fresh, write_gb, read_gb)
            charged &= ~fresh
        if waived is not None:
            charged &= ~waived
        penalty = np.zeros(len(size_gb), dtype=np.float64)
        if charged.any():
            left = np.where(charged, early[source] - resident, 0.0)
            penalty = np.where(
                charged, costs["storage_cost"][source] * size_gb * left, 0.0
            )
        return moved, cost, penalty, egress

    def migrate(
        self,
        partitions: Sequence[DataPartition],
        months_in_tier: np.ndarray,
        rows: np.ndarray,
        size_gb: np.ndarray,
        old: PlacementColumns | None,
        new: PlacementColumns,
        waivers: Sequence[tuple[int, int, "frozenset[int] | set[int]"]] = (),
    ) -> MoveColumns:
        """Move ``rows`` of ``partitions`` from ``old`` to ``new`` and bill
        the moves: the one move rule, over columns.

        ``old`` and ``new`` hold one entry per row of ``rows`` (entry ``i``
        is row ``rows[i]`` of ``partitions`` and of the residency clock
        column ``months_in_tier``), and ``size_gb`` their sizes.  A row
        ``old`` does not place (every row when it is ``None``) sits at its
        partition's live tier and codec.  A row moves when its tier or its
        stored scheme differs (new data always does); :meth:`price` bills
        every move in one pass, in entry order.  ``waivers`` lists
        ``(start, stop, tiers)``: the moves of entries ``start:stop`` off
        ``tiers`` skip the early-deletion penalty.

        Sets each moved partition's ``current_tier`` and ``current_codec``
        and resets its clock; returns the moves as columns, ``rows`` holding
        their entries.
        """
        count = len(rows)
        # Where each row lives today and how it is stored, with the stored
        # scheme as a code into the new placement's vocabulary (-1 = a
        # scheme the new placement does not use, which is always a move).
        if old is None:
            from_tier = np.empty(count, dtype=np.int64)
            old_scheme = np.empty(count, dtype=np.int64)
            old_ratio = np.ones(count, dtype=np.float64)
            placed = np.zeros(count, dtype=bool)
        else:
            from_tier = old.tier.copy()
            old_scheme = recode(old.scheme, old.schemes, new.schemes)
            old_ratio = old.ratio
            placed = np.ones(count, dtype=bool) if old.placed is None else old.placed
        # Without an old entry the partition's own tier and codec say where
        # and how the data is stored today — a pre-compressed partition
        # keeping its tier and scheme is not a move.
        unplaced = np.flatnonzero(~placed)
        if unplaced.size:
            new_codes = {scheme: code for code, scheme in enumerate(new.schemes)}
            for entry, row in zip(unplaced.tolist(), rows[unplaced].tolist()):
                partition = partitions[row]
                from_tier[entry] = partition.current_tier
                old_scheme[entry] = new_codes.get(
                    partition.current_codec or NO_COMPRESSION, -1
                )
        moving = np.flatnonzero((from_tier != new.tier) | (old_scheme != new.scheme))
        source = from_tier[moving]
        to_tier = new.tier[moving]
        codes = new.scheme[moving]
        moved = rows[moving]
        waived = None
        if waivers:
            waived = np.zeros(len(moving), dtype=bool)
            for start, stop, tiers in waivers:
                lo, hi = np.searchsorted(moving, (start, stop)).tolist()
                waived[lo:hi] = np.isin(source[lo:hi], sorted(tiers))
        priced = self.price(
            size_gb[moving],
            source,
            to_tier,
            old_scheme[moving] == codes,
            placed[moving],
            old_ratio[moving],
            new.ratio[moving],
            months_in_tier[moved],
            waived,
        )
        schemes = new.schemes
        for row, tier, code in zip(moved.tolist(), to_tier.tolist(), codes.tolist()):
            partition = partitions[row]
            partition.current_tier = tier
            # Record the applied scheme as the partition's current codec: the
            # paper pins already-compressed partitions to their scheme, so the
            # next warm-started re-optimization cannot flip codecs at a billed
            # cost the objective never priced.
            scheme = schemes[code]
            partition.current_codec = None if scheme == NO_COMPRESSION else scheme
        months_in_tier[moved] = 0.0
        return MoveColumns(moving, source, to_tier, *priced)

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
        (mappings convert once here) and moved by :meth:`migrate`.
        """
        names = tuple(map(attrgetter("name"), partitions))
        new = PlacementColumns.from_mapping(names, new_placement)
        missing = new.unplaced()
        if missing:
            # Validate before anything mutates live state: a partial apply
            # would leave moves un-billed and residency clocks wrong.
            raise KeyError(f"new placement missing partitions: {missing}")
        count = len(names)
        if months_in_tier.shape != (count,):
            raise ValueError("months_in_tier needs one clock per partition")
        old = (
            None
            if old_placement is None
            else PlacementColumns.from_mapping(names, old_placement)
        )
        moves = self.migrate(
            partitions,
            months_in_tier,
            np.arange(count),
            np.fromiter(map(attrgetter("size_gb"), partitions), np.float64, count),
            old,
            new,
            [(0, count, waive_early_deletion_tiers)] if waive_early_deletion_tiers else (),
        )
        report = MigrationReport(epoch, names=names, columns=moves)
        count_moves(report)
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
