"""Struct-of-arrays view of partition collections — the columnar fast path.

The scalar code paths evaluate costs one :class:`~repro.cloud.DataPartition`
Python object at a time; at tens of thousands of partitions the interpreter
overhead dominates the arithmetic.  :class:`PartitionArrays` holds the same
information as a list of partitions but column-wise, as preallocated numpy
vectors, so the cost model can evaluate the full (partition x tier x scheme)
tensor in a handful of vectorized operations.

The representation is **lossless**: ``PartitionArrays.from_partitions``
followed by :meth:`PartitionArrays.to_partitions` reproduces the original
partitions field for field (names, codecs, file ids and all), which is what
lets the vectorized solvers and the scalar reference oracles operate on the
same instances and be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .objects import DataPartition

__all__ = ["PartitionArrays"]


@dataclass
class PartitionArrays:
    """Columnar (struct-of-arrays) representation of a partition list.

    All float columns are float64 vectors of the same length; ``current_tier``
    is an int64 vector (``NEW_DATA_TIER`` = -1 for unplaced data).  Columns
    that do not participate in any arithmetic (``names``, ``current_codec``,
    ``file_ids``) stay as plain Python tuples so the round trip back to
    :class:`DataPartition` loses nothing.
    """

    names: tuple[str, ...]
    size_gb: np.ndarray
    predicted_accesses: np.ndarray
    latency_threshold_s: np.ndarray
    current_tier: np.ndarray
    read_fraction: np.ndarray
    pushdown_fraction: np.ndarray
    current_codec: tuple[str | None, ...]
    file_ids: tuple[frozenset[str], ...]
    _index: dict[str, int] | None = field(default=None, repr=False, compare=False)
    _lookups: dict[tuple[str, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    _last_lookup: tuple[tuple[str, ...], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_partitions(cls, partitions: Sequence[DataPartition]) -> "PartitionArrays":
        """Extract every column from a partition list in one pass."""
        names: list[str] = []
        codecs: list[str | None] = []
        file_ids: list[frozenset[str]] = []
        floats = np.empty((5, len(partitions)), dtype=np.float64)
        tiers = np.empty(len(partitions), dtype=np.int64)
        for column, partition in enumerate(partitions):
            names.append(partition.name)
            codecs.append(partition.current_codec)
            file_ids.append(partition.file_ids)
            floats[0, column] = partition.size_gb
            floats[1, column] = partition.predicted_accesses
            floats[2, column] = partition.latency_threshold_s
            floats[3, column] = partition.read_fraction
            floats[4, column] = partition.pushdown_fraction
            tiers[column] = partition.current_tier
        return cls(
            names=tuple(names),
            size_gb=floats[0].copy(),
            predicted_accesses=floats[1].copy(),
            latency_threshold_s=floats[2].copy(),
            current_tier=tiers,
            read_fraction=floats[3].copy(),
            pushdown_fraction=floats[4].copy(),
            current_codec=tuple(codecs),
            file_ids=tuple(file_ids),
        )

    def to_partitions(self) -> list[DataPartition]:
        """Materialise the columns back into :class:`DataPartition` objects."""
        size = self.size_gb.tolist()
        accesses = self.predicted_accesses.tolist()
        thresholds = self.latency_threshold_s.tolist()
        tiers = self.current_tier.tolist()
        read_fraction = self.read_fraction.tolist()
        pushdown = self.pushdown_fraction.tolist()
        return [
            DataPartition(
                name=self.names[i],
                size_gb=size[i],
                predicted_accesses=accesses[i],
                latency_threshold_s=thresholds[i],
                current_tier=tiers[i],
                current_codec=self.current_codec[i],
                file_ids=self.file_ids[i],
                read_fraction=read_fraction[i],
                pushdown_fraction=pushdown[i],
            )
            for i in range(len(self.names))
        ]

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def row_index(self) -> dict[str, int]:
        """``name -> row index`` (built once, cached)."""
        if self._index is None:
            self._index = dict(zip(self.names, range(len(self.names))))
        return self._index

    def index_of(self, name: str) -> int:
        """Row index of ``name``; raises ``KeyError`` if unknown."""
        return self.row_index()[name]

    def codes_for(self, vocab: tuple[str, ...]) -> np.ndarray:
        """Row index of every name in ``vocab`` (``-1`` where unknown).

        The gather table that maps an :class:`~repro.cloud.EventBatch`'s
        name codes onto these rows; built once per vocab and cached.  The
        windows of one merged stream share one vocab object until it grows,
        so the last vocab is checked by identity before the cache hashes one.
        """
        last = self._last_lookup
        if last is not None and last[0] is vocab:
            return last[1]
        lookup = self._lookups.get(vocab)
        if lookup is None:
            index = self.row_index()
            lookup = np.array([index.get(name, -1) for name in vocab], dtype=np.intp)
            if len(self._lookups) >= 64:
                self._lookups.clear()
            self._lookups[vocab] = lookup
        self._last_lookup = (vocab, lookup)
        return lookup

    def event_rows(self, events) -> np.ndarray:
        """The row of every event's partition in an
        :class:`~repro.cloud.EventBatch`; ``KeyError`` names the first
        partition these rows lack."""
        rows = self.codes_for(events.vocab)[events.code]
        unknown = rows < 0
        if unknown.any():
            name = events.vocab[events.code[np.argmax(unknown)]]
            raise KeyError(f"access event references unknown partition {name!r}")
        return rows

    # -- derived columns (mirror the DataPartition properties) ----------------
    @property
    def effective_accesses(self) -> np.ndarray:
        """Accesses hitting the read/decompression path (pushdown excluded)."""
        return self.predicted_accesses * (1.0 - self.pushdown_fraction)

    @property
    def read_gb_per_access(self) -> np.ndarray:
        """GB of uncompressed data touched by a single access."""
        return self.size_gb * self.read_fraction
