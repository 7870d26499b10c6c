"""Assignment results: the output of every OPTASSIGN solver.

An :class:`Assignment` holds each partition's chosen (tier, scheme) pair as
columns in the problem's row order (``problem.partition_arrays().names``),
together with the objective, billed cost breakdown and latency each row was
chosen at.  Solvers, repair passes and the fleet split move these columns
with numpy; the per-partition :class:`CandidateOption` view (``choices``) is
built only for the rows somebody reads.  The aggregate objective, the billed
breakdown and the "[Premium, Hot, Cool]"-style tier occupancy vector the
paper prints in its pipeline tables are computed from the columns.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ...cloud import CostBreakdown, PlacementColumns
from ...cloud.simulator import recode
from .problem import CandidateOption, OptAssignProblem

__all__ = ["Assignment", "PRICED_FIELDS"]

#: Rows of :attr:`Assignment.priced`: the objective and billed breakdown each
#: row was chosen at, then its expected access latency.
PRICED_FIELDS = ("objective", "storage", "read", "write", "decompression", "latency_s")
OBJECTIVE, STORAGE, READ, WRITE, DECOMPRESSION, LATENCY = range(len(PRICED_FIELDS))


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...`` with one float add per row, in
    row order — the rounding of a ``+=`` loop over the rows (the built-in
    ``sum`` compensates on Python 3.12+)."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


class Assignment:
    """A complete placement produced by an OPTASSIGN solver, as columns.

    ``tier`` (int64) and ``scheme`` (int64 codes into ``schemes``) hold one
    entry per row of ``problem.partition_arrays().names``; ``priced`` is a
    ``(len(PRICED_FIELDS), N)`` float64 block.  Build one from a
    ``name -> CandidateOption`` map with :meth:`from_choices`.
    """

    def __init__(
        self,
        problem: OptAssignProblem,
        tier: np.ndarray,
        scheme: np.ndarray,
        schemes: tuple[str, ...],
        priced: np.ndarray,
        solver: str,
    ):
        self.problem = problem
        self.tier = tier
        self.scheme = scheme
        self.schemes = schemes
        self.priced = priced
        self.solver = solver
        self._choices: _ChoiceView | None = None

    @classmethod
    def from_choices(
        cls,
        problem: OptAssignProblem,
        choices: Mapping[str, CandidateOption],
        solver: str,
    ) -> "Assignment":
        """The adapter for solvers that produce one option per partition."""
        names = problem.partition_arrays().names
        missing = set(names) - set(choices)
        if missing:
            raise ValueError(f"assignment missing partitions: {sorted(missing)}")
        options = [choices[name] for name in names]
        schemes = tuple(sorted({option.scheme for option in options}))
        code = {scheme: k for k, scheme in enumerate(schemes)}
        count = len(options)
        return cls(
            problem,
            np.fromiter((o.tier_index for o in options), dtype=np.int64, count=count),
            np.fromiter((code[o.scheme] for o in options), dtype=np.int64, count=count),
            schemes,
            np.array(
                [
                    [o.objective for o in options],
                    [o.breakdown.storage for o in options],
                    [o.breakdown.read for o in options],
                    [o.breakdown.write for o in options],
                    [o.breakdown.decompression for o in options],
                    [o.latency_s for o in options],
                ],
                dtype=np.float64,
            ).reshape(len(PRICED_FIELDS), count),
            solver,
        )

    # -- per-row views ------------------------------------------------------------
    @property
    def choices(self) -> Mapping[str, CandidateOption]:
        """Read-only ``name -> CandidateOption`` view, in row order."""
        if self._choices is None:
            self._choices = _ChoiceView(self)
        return self._choices

    def option_at(self, row: int) -> CandidateOption:
        """The chosen option of one row (a chosen cell is feasible)."""
        objective, storage, read, write, decompression, latency = self.priced[
            :, row
        ].tolist()
        return CandidateOption(
            partition=self.problem.partition_arrays().names[row],
            tier_index=int(self.tier[row]),
            scheme=self.schemes[int(self.scheme[row])],
            objective=objective,
            breakdown=CostBreakdown(
                storage=storage, read=read, write=write, decompression=decompression
            ),
            latency_s=latency,
            latency_feasible=True,
            codec_allowed=True,
            slo_feasible=True,
            provider_allowed=True,
        )

    def _profile_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scheme codes into the problem's scheme union, ratio, decompression
        s/GB) of every row's chosen profile."""
        schemes, ratio, decompression, _ = self.problem._profile_columns()
        codes = recode(self.scheme, self.schemes, schemes)
        rows = np.arange(len(codes))
        return codes, ratio[rows, codes], decompression[rows, codes]

    # -- aggregates ---------------------------------------------------------------
    @property
    def objective(self) -> float:
        """Total weighted objective value (Eq. 1): the built-in ``sum`` over
        the rows in order, so it rounds like ``sum`` over the options on every
        Python version (compensated on 3.12+, plain adds before)."""
        return float(sum(self.priced[OBJECTIVE].tolist()))

    @property
    def breakdown(self) -> CostBreakdown:
        """Total unweighted (billed) cost breakdown."""
        return CostBreakdown(
            storage=_sequential_sum(self.priced[STORAGE]),
            read=_sequential_sum(self.priced[READ]),
            write=_sequential_sum(self.priced[WRITE]),
            decompression=_sequential_sum(self.priced[DECOMPRESSION]),
        )

    @property
    def total_cost(self) -> float:
        return self.breakdown.total

    def tier_counts(self) -> list[int]:
        """Number of partitions per tier — the paper's "Tiering Scheme" column."""
        return np.bincount(self.tier, minlength=self.problem.tier_count).tolist()

    def scheme_counts(self) -> dict[str, int]:
        """Number of partitions per compression scheme, in first-use order."""
        codes, first, counts = np.unique(
            self.scheme, return_index=True, return_counts=True
        )
        return {
            self.schemes[int(codes[i])]: int(counts[i]) for i in np.argsort(first)
        }

    # -- latency ---------------------------------------------------------------------
    def max_read_latency_s(self) -> float:
        """Worst-case time to first byte across the placement (paper: "Read Latency")."""
        tiers = self.problem.cost_model.tiers
        return max(tiers[tier].latency_s for tier in np.unique(self.tier).tolist())

    def expected_decompression_latency_s(self) -> float:
        """Access-weighted mean decompression latency (paper: "Expected Decomp. Latency")."""
        total_weight = 0.0
        weighted = 0.0
        for partition, code in zip(self.problem.partitions, self.scheme.tolist()):
            profile = self.problem.profile_for(partition.name, self.schemes[code])
            accesses = partition.effective_accesses
            weighted += accesses * profile.decompression_seconds(
                partition.read_gb_per_access
            )
            total_weight += accesses
        return weighted / total_weight if total_weight else 0.0

    def latency_violations(self) -> list[str]:
        """Partitions whose chosen option exceeds their latency SLA."""
        arrays = self.problem.partition_arrays()
        late = self.priced[LATENCY] > arrays.latency_threshold_s
        return [arrays.names[row] for row in np.flatnonzero(late).tolist()]

    def is_latency_feasible(self) -> bool:
        return not self.latency_violations()

    # -- capacity --------------------------------------------------------------------
    def stored_gb(self) -> np.ndarray:
        """(N,) on-disk GB of every row under its chosen scheme."""
        _, ratio, _ = self._profile_rows()
        return self.problem.partition_arrays().size_gb / ratio

    def tier_usage_gb(self) -> list[float]:
        """On-disk GB stored per tier under this placement."""
        return np.bincount(
            self.tier, weights=self.stored_gb(), minlength=self.problem.tier_count
        ).tolist()

    def is_capacity_feasible(self, tolerance: float = 1e-9) -> bool:
        """True if no tier's reserved capacity is exceeded."""
        usage = self.tier_usage_gb()
        for tier, used in zip(self.problem.cost_model.tiers, usage):
            if used > tier.capacity_gb + tolerance:
                return False
        return True

    # -- interoperability -----------------------------------------------------------
    def to_placement(self) -> PlacementColumns:
        """The simulator's placement format, as columns over the problem's rows."""
        codes, ratio, decompression = self._profile_rows()
        return PlacementColumns(
            names=self.problem.partition_arrays().names,
            tier=self.tier,
            scheme=codes,
            schemes=self.problem._profile_columns()[0],
            ratio=ratio,
            decompression_s_per_gb=decompression,
            profiles=self.problem._profiles,
        )

    def summary(self) -> dict[str, float | list[int] | str]:
        """A compact dictionary used by reports and benchmarks."""
        breakdown = self.breakdown
        return {
            "solver": self.solver,
            "storage_cost": breakdown.storage,
            "decompression_cost": breakdown.decompression,
            "read_cost": breakdown.read,
            "write_cost": breakdown.write,
            "total_cost": breakdown.total,
            "read_latency_s": self.max_read_latency_s(),
            "expected_decompression_latency_ms": 1000.0
            * self.expected_decompression_latency_s(),
            "tier_counts": self.tier_counts(),
        }


class _ChoiceView(Mapping):
    """``Assignment.choices``: one :class:`CandidateOption` per row, built on
    first read and kept, so repeated reads return the same object."""

    __slots__ = ("_assignment", "_arrays", "_built")

    def __init__(self, assignment: Assignment):
        self._assignment = assignment
        self._arrays = assignment.problem.partition_arrays()
        self._built: dict[str, CandidateOption] = {}

    def __getitem__(self, name: str) -> CandidateOption:
        option = self._built.get(name)
        if option is None:
            row = self._arrays.index_of(name)
            option = self._built[name] = self._assignment.option_at(row)
        return option

    def __contains__(self, name) -> bool:
        try:
            self._arrays.index_of(name)
        except (KeyError, TypeError):
            return False
        return True

    def __iter__(self):
        return iter(self._arrays.names)

    def __len__(self) -> int:
        return len(self._arrays)
