"""Applying placement changes to the simulated cloud — and paying for them.

Re-optimizing is free on paper; in a real object store every move is billed:
the data is read out of its source tier, written into its destination tier,
and tiers with a minimum residency (Azure archive: 6 months) charge the
remaining storage months when data leaves early.  :class:`MigrationExecutor`
charges exactly those costs and resets the moved rows' tier-residency
clocks, so policies are compared on *true end-to-end bills* — a policy that
thrashes data between tiers loses to one that stays put, even if each of
its placements is individually optimal.  Its
:meth:`~MigrationExecutor.migrate` is the one move rule, over columns:
every re-optimization — a fleet's window or a lone engine's — applies
through it in :meth:`repro.engine.SettleBlock.apply`, which then records
where each row lives in the block's placement columns.  The executor
writes no :class:`~repro.cloud.DataPartition`.

Compression changes are treated as moves too: re-encoding a partition means
reading the old representation and writing the new one, even within a tier.
After a placement is applied the block records the scheme each row is
stored with as its codec, so subsequent re-optimizations pin
already-compressed partitions to their scheme (the paper's last ILP
constraint) instead of flipping codecs at a billed cost the objective never
priced.  The one transition that remains billed-but-unpriced is compressing
previously *uncompressed* data in place (the objective's tier-change term is
zero within a tier); that charge is one-off per partition and biases the
engine conservatively against churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..cloud import PlacementColumns, TierCatalog
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

    The moves are :class:`MoveColumns` over the partition ``names``: the
    engine's apply pass (:meth:`repro.engine.SettleBlock.apply`) hands
    every engine of a window the same columns, each report over its own
    ``span`` of them, with its totals.  :attr:`moves` builds one
    :class:`MigrationRecord` per move on first read and keeps the list, as
    :attr:`repro.core.optassign.Assignment.choices` does.  Every total is
    the built-in ``sum`` over one value per move, in move order.
    """

    __slots__ = ("epoch", "_names", "_columns", "_span", "_moves", "_totals")

    def __init__(
        self,
        epoch: int,
        names: Sequence[str],
        columns: MoveColumns,
        span: tuple[int, int] | None = None,
        totals: dict[str, float] | None = None,
    ):
        self.epoch = epoch
        self._names = names
        self._columns = columns
        # The report's moves are columns[start:stop] when several reports
        # share one set of columns.
        self._span = span
        self._moves: list[MigrationRecord] | None = None
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
            if field == "migration_cost":
                values = (self._column("cost") + self._column("egress_cost")).tolist()
            else:
                values = self._column(field).tolist()
            total = self._totals[field] = float(sum(values))
        return total

    @property
    def num_moved(self) -> int:
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
        off = np.isin(self._column("from_tier"), sorted(tiers))
        charges = (self._column("cost")[off] + self._column("egress_cost")[off]).tolist()
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
    """Prices and bills the moves of a placement change, and resets the moved
    rows' residency clocks."""

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
        months_in_tier: np.ndarray,
        rows: np.ndarray,
        size_gb: np.ndarray,
        old: PlacementColumns,
        new: PlacementColumns,
        waivers: Sequence[tuple[int, int, "frozenset[int] | set[int]"]] = (),
    ) -> MoveColumns:
        """Move ``rows`` from ``old`` to ``new`` and bill the moves: the one
        move rule, over columns.

        ``old`` and ``new`` hold one entry per row of ``rows`` (entry ``i``
        is row ``rows[i]`` of the residency clock column ``months_in_tier``),
        and ``size_gb`` their sizes.  ``old`` says where every entry lives
        today and with which scheme it is stored; its ``placed`` marks the
        entries an earlier placement covered (an entry it does not cover is
        stored as its partition was given: that tier and codec, ``"none"``
        for no codec).  A row moves when its tier or its stored scheme
        differs (new data always does); :meth:`price` bills every move in
        one pass, in entry order.  ``waivers`` lists ``(start, stop,
        tiers)``: the moves of entries ``start:stop`` off ``tiers`` skip the
        early-deletion penalty.

        Resets each moved row's clock; returns the moves as columns,
        ``rows`` holding their entries.
        """
        # The stored scheme as a code into the new placement's vocabulary
        # (-1 = a scheme the new placement does not use, which is always a
        # move).
        old_scheme = recode(old.scheme, old.schemes, new.schemes)
        placed = np.ones(len(rows), dtype=bool) if old.placed is None else old.placed
        moving = np.flatnonzero((old.tier != new.tier) | (old_scheme != new.scheme))
        source = old.tier[moving]
        to_tier = new.tier[moving]
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
            old_scheme[moving] == new.scheme[moving],
            placed[moving],
            old.ratio[moving],
            new.ratio[moving],
            months_in_tier[moved],
            waived,
        )
        months_in_tier[moved] = 0.0
        return MoveColumns(moving, source, to_tier, *priced)

    @staticmethod
    def tick(months_in_tier: np.ndarray, months: float = 1.0) -> None:
        """Advance every partition's tier-residency clock by ``months``.

        The engine ticks each window's duration (a dense month's is 1).
        """
        if months < 0:
            raise ValueError("months must be non-negative")
        months_in_tier += months
