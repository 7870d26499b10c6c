"""Incremental (delta) OPTASSIGN: re-solve only the rows that drifted.

Every re-optimization so far rebuilt and re-solved the full
partitions × tiers × schemes tensor even when drift touched a handful of
partitions.  :class:`DeltaSolver` keeps the previous epoch's per-partition
features and chosen columns between solves and, on the next instance,

1. detects the **changed rows** — partitions whose windowed access forecast
   moved past a configurable relative drift threshold, plus every partition
   with a structural change (new name, different size / latency SLA /
   read-pattern columns, codec pin, SLO cap, provider affinity, an externally
   moved ``current_tier``) and every row the caller flags explicitly (the
   rows a :class:`~repro.engine.DriftTriggered` policy's per-partition
   scores put past the threshold) — in one scan whose findings the cache
   update reuses;
2. prices and solves only those rows, straight from the instance's columns
   gathered by row (the same vectorized masked-argmin greedy as the full
   path over the same cells, so tie-breaks are identical);
3. **pins** every other partition to its standing choice from the cache
   (gathered and scattered as columns, never per row);
4. checks tier capacities and shared pool budgets against the composed
   placement with one vectorized pass and runs
   :func:`~repro.core.optassign.repair_capacity` /
   :func:`~repro.core.optassign.repair_pools` **only when a budget is
   actually violated** — falling back to the full
   :func:`~repro.core.optassign.solve_optassign` facade (latency relaxation
   and all) when the violation is unfixable or the changed rows alone are
   infeasible.

Bounded-regret guarantee
------------------------

Pinning is safe because the objective is separable and, for a pinned row,
only the access-count feature may have moved (anything else marks the row
changed) — by at most the relative drift threshold ``tau``.  Writing a
partition's objective as ``S(o) + a * c(o)`` (access-independent storage /
migration terms plus per-access read + decompression cost ``c(o) >= 0``
scaled by the predicted accesses ``a >= 0``), the pinned option ``p`` was the
argmin under the cached accesses ``a`` and the fresh optimum ``o*`` under the
new accesses ``b`` satisfies ``|a - b| <= tau * max(a, b)``, so the row's
regret is::

    S(p) + b c(p) - S(o*) - b c(o*)
        <= (b - a)(c(p) - c(o*))            # p was optimal under a
        <= tau/(1-tau) * b * (c(p) + c(o*))
        <= 2 tau/(1-tau) * (S(p) + b c(p))  # o* is no worse than p

Summed over pinned rows (all terms non-negative), for ``tau < 1/3`` on an
instance where no repair fires::

    true_objective(delta) <= true_objective(full) * (1 - tau) / (1 - 3 tau)

and with every row marked changed (``tau = 0`` forces this whenever anything
moved at all) the delta solve **is** the full vectorized solve, bit for bit.
``tests/optassign/test_delta.py`` asserts both properties under random drift
masks.

Pricing staleness
-----------------

The cache keeps, per row, the tier, the scheme code (into a vocabulary the
solver owns), the stored GB and the priced block — objective, billed
breakdown and latency — at which the row was *last solved*.  A pinned row's
entry in the composed :class:`~repro.core.optassign.Assignment` is gathered
from those columns, so its cents are the ones it was solved at: re-pricing
the unchanged majority every epoch would cost exactly the full tensor build
the delta path exists to avoid.  The **placement** (tier + scheme) is what
downstream consumers use (the engine's executor and simulator bill from it
truthfully); treat the per-row cents on pinned rows as approximate within
the bound above, and re-price against a fresh problem where exact accounting
matters.  A repair pass re-prices only the rows it moves.

Why rows re-solve
-----------------

With observability on, every re-solved row is counted once in the
``optassign.delta.rows_by_reason`` counter, under the first of
:data:`RESOLVE_REASONS` that holds for it: ``novel`` (not in the cache),
``forced`` (marked by :meth:`DeltaSolver.invalidate` or
:meth:`DeltaSolver.note_repricing`), ``banned_tier`` (pinned on a banned
tier, or every row when a ban lifts), ``constraint`` (an SLO cap,
provider affinity or compression profile edit), ``structural`` (size,
latency SLA, read pattern, current tier or codec), ``hint`` (flagged by
the caller), ``drift`` (forecast moved past ``tau``) and ``full`` (a row
only a full solve re-solved: a fallback, or a cache a pricing change
flushed).  The counts add up to ``optassign.delta.rows_resolved``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple, Sequence

import numpy as np

from ...cloud import PartitionArrays, PoolSet
from ...obs import get_metrics, get_tracer
from .capacity import SolveReport, repair_capacity, repair_pools, solve_optassign
from .errors import InfeasibleError
from .greedy import greedy_columns
from .problem import OptAssignProblem, profile_columns
from .result import OBJECTIVE, Assignment

__all__ = ["DeltaSolver", "DeltaSolveReport", "RESOLVE_REASONS"]

#: The solver of every full solve, and the slack (GB) of the budget checks
#: (see :class:`DeltaSolver`).
_FULL_SOLVER = "greedy"
_TOLERANCE_GB = 1e-9

#: Why a row re-solves, in the order a re-solved row is counted under the
#: first reason that holds for it (see the module docstring).
RESOLVE_REASONS = (
    "novel",
    "forced",
    "banned_tier",
    "constraint",
    "structural",
    "hint",
    "drift",
    "full",
)


@dataclass
class DeltaSolveReport:
    """The assignment plus how the delta layer obtained it.

    ``mode`` is ``"delta"`` when pinning happened and ``"full"`` when the
    solver ran the complete :func:`solve_optassign` facade instead (cache
    bootstrap, every row changed, pricing/constraint signature changed, or a
    fallback); ``reason`` says which.  ``repaired`` records whether a budget
    violation forced a capacity/pool repair pass over the composed placement.
    """

    assignment: Assignment
    mode: str
    reason: str
    num_changed: int
    num_pinned: int
    repaired: bool = False
    full_report: SolveReport | None = None

    @property
    def pinned_fraction(self) -> float:
        total = self.num_changed + self.num_pinned
        return self.num_pinned / total if total else 0.0


class _Changes(NamedTuple):
    """One scan of an instance against the cache
    (:meth:`DeltaSolver._detect_changes`), kept for the cache update."""

    #: (N,) bool: the rows to re-solve.
    changed: np.ndarray
    #: The cache row of every instance row (0 where the row is novel).
    rows: np.ndarray
    #: True when the instance's rows are the cache's rows, in order.
    aligned: bool
    #: (N,) bool: the rows the cache does not hold.
    missing: np.ndarray
    #: ``(reason, mask or None)`` in :data:`RESOLVE_REASONS` order; their
    #: union is ``changed``.
    reasons: tuple[tuple[str, np.ndarray | None], ...]
    #: (N,) bool: rows whose codec differs from the cache's (``None`` when
    #: no row's does).
    codecs: np.ndarray | None
    #: Instance names whose SLO cap or provider affinity differs from the
    #: cache's.
    slo: list[str]
    affinity: list[str]


class _RowColumns:
    """Some rows of a :class:`~repro.cloud.PartitionArrays`, as
    :meth:`~repro.cloud.CostModel.batch_tensors` reads them: the numeric
    columns gathered by row, and the rows' names and codecs gathered only
    if something asks for them."""

    __slots__ = (
        "size_gb",
        "predicted_accesses",
        "latency_threshold_s",
        "current_tier",
        "read_fraction",
        "pushdown_fraction",
        "_arrays",
        "_rows",
    )

    def __init__(self, arrays: PartitionArrays, rows: np.ndarray):
        self.size_gb = arrays.size_gb[rows]
        self.predicted_accesses = arrays.predicted_accesses[rows]
        self.latency_threshold_s = arrays.latency_threshold_s[rows]
        self.current_tier = arrays.current_tier[rows]
        self.read_fraction = arrays.read_fraction[rows]
        self.pushdown_fraction = arrays.pushdown_fraction[rows]
        self._arrays = arrays
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def names(self) -> list[str]:
        return list(map(self._arrays.names.__getitem__, self._rows.tolist()))

    @property
    def current_codec(self) -> list[str | None]:
        return list(map(self._arrays.current_codec.__getitem__, self._rows.tolist()))

    # The derived columns, computed as the arrays compute them.
    effective_accesses = PartitionArrays.effective_accesses
    read_gb_per_access = PartitionArrays.read_gb_per_access


class DeltaSolver:
    """Stateful incremental OPTASSIGN over a sequence of related instances.

    Parameters
    ----------
    drift_threshold:
        Relative move in ``predicted_accesses`` (``|new - old| >
        drift_threshold * max(|new|, |old|)``) past which a row is re-solved.
        ``0.0`` re-solves every row whose forecast moved at all — making the
        delta solve bit-exact against the full solve at the cost of its
        speedup.  Must stay below ``1/3`` for the documented regret bound.

    Every full solve (bootstrap and fallbacks) runs the greedy solver, the
    path the delta subproblems also use, so full and delta epochs price
    identically; the budget checks allow :func:`repair_capacity`'s slack.

    The cache holds one row per partition name it has seen: instances may
    cover different subsets between calls (the fleet scheduler stacks only
    the tenants whose policies fired), and rows absent from an instance
    simply keep their cached state until they reappear.  Each solve maps
    the instance's rows onto the cache once — by position when the instance
    repeats the cached names, else by name — and works on rows from there:
    caller hints are row indices of the instance, and the changed rows are
    priced from the instance's columns gathered by row.  :meth:`invalidate`
    and :meth:`forget` take names, since they outlive any one instance.  All
    instances must price against the same catalog object, horizon, compute
    price and objective weights — a changed pricing signature flushes the
    cache and runs a full solve.
    """

    def __init__(self, drift_threshold: float = 0.1):
        if drift_threshold < 0.0:
            raise ValueError("drift_threshold must be non-negative")
        if drift_threshold >= 1.0 / 3.0:
            raise ValueError(
                "drift_threshold must stay below 1/3 (the bounded-regret "
                f"guarantee degenerates past it), got {drift_threshold}"
            )
        self.drift_threshold = float(drift_threshold)
        self.reset()

    def reset(self) -> None:
        """Drop every cached row; the next solve bootstraps with a full solve."""
        self._pricing: tuple | None = None
        self._names: tuple[str, ...] | None = None
        self._index: dict[str, int] | None = None
        self._features: dict[str, np.ndarray] = {}
        self._codec: tuple[str | None, ...] = ()
        self._tier: np.ndarray | None = None
        self._scheme: np.ndarray | None = None
        self._priced: np.ndarray | None = None
        self._stored: np.ndarray | None = None
        #: The solver's own scheme vocabulary (append-only): cached scheme
        #: codes index it, and every composed assignment carries it.
        self._scheme_code: dict[str, int] = {}
        self._schemes: tuple[str, ...] = ()
        self._slo: dict[str, float] = {}
        self._affinity: dict[str, frozenset] = {}
        self._profiles: dict[str, dict] = {}
        self._banned: frozenset[int] = frozenset()
        self._forced: set[str] = set()

    # -- selective invalidation ---------------------------------------------------
    def invalidate(self, names: "set[str] | list[str] | tuple[str, ...]") -> None:
        """Force the named rows to re-solve on their next appearance.

        The chaos subsystem uses this for *selective* cache invalidation:
        only the rows whose tier/price/pool context actually changed are
        marked, everything else keeps its pin.  Names that never appear again
        are harmless (and dropped once their tenant's instance re-solves).
        """
        self._forced.update(names)

    def forget(self, names: "set[str] | list[str] | tuple[str, ...]") -> None:
        """Drop the named rows from the cache entirely (tenant departure).

        Unlike :meth:`invalidate` the rows do not re-solve — they stop
        existing, so a departing tenant's rows no longer occupy the merge
        path's arrays or leak into budget math if a same-named tenant later
        joins.
        """
        wanted = set(names)
        self._forced -= wanted
        if self._names is None:
            return
        drop = wanted & set(self._names)
        for name in wanted:
            self._slo.pop(name, None)
            self._affinity.pop(name, None)
            self._profiles.pop(name, None)
        if not drop:
            return
        keep = [i for i, name in enumerate(self._names) if name not in drop]
        if not keep:
            # Everything is gone; bootstrap fresh on the next solve.
            self.reset()
            return
        rows = np.asarray(keep, dtype=np.int64)
        self._features = {
            key: column[rows] for key, column in self._features.items()
        }
        self._tier = self._tier[rows]
        self._scheme = self._scheme[rows]
        self._priced = self._priced[:, rows]
        self._stored = self._stored[rows]
        self._codec = tuple(self._codec[i] for i in keep)
        self._names = tuple(self._names[i] for i in keep)
        self._index = None

    def note_repricing(
        self,
        tiers,
        tier_indices: "set[int] | list[int] | tuple[int, ...] | None" = None,
        decreased: bool = False,
    ) -> None:
        """Acknowledge an in-place catalog :meth:`~repro.cloud.TierCatalog.reprice`.

        Updates the cached pricing signature to the catalog's new
        ``pricing_version`` (so the next solve does *not* flush the whole
        cache) and selectively invalidates the rows the re-pricing can
        actually affect: rows currently pinned on a repriced tier.  When any
        price *decreased* (or ``tier_indices`` is ``None``) every row is
        invalidated — a cheaper tier can attract partitions pinned anywhere,
        whereas a pure increase can only evict the rows sitting on it (a
        pricier candidate never overtakes another row's standing argmin).

        Without this acknowledgment the solver stays safe: the bumped
        ``pricing_version`` changes the signature and the next solve falls
        back to a full re-solve.
        """
        if self._pricing is None or self._pricing[0] != id(tiers):
            return
        self._pricing = (self._pricing[0], tiers.pricing_version) + self._pricing[2:]
        if self._names is None:
            return
        if decreased or tier_indices is None:
            self._forced.update(self._names)
            return
        affected = np.isin(
            self._tier, np.fromiter(sorted(tier_indices), dtype=np.int64)
        )
        self._forced.update(self._names[i] for i in np.flatnonzero(affected).tolist())

    # -- public entry point -----------------------------------------------------
    def solve(
        self,
        problem: OptAssignProblem,
        changed: Sequence[int] | np.ndarray | None = None,
        pool_set: PoolSet | None = None,
        reserved_gb: np.ndarray | None = None,
    ) -> DeltaSolveReport:
        """Solve ``problem`` incrementally against the cached previous epoch.

        ``changed`` adds rows of ``problem`` (indices into its
        ``partition_arrays()``) to the changed-row set on top of the solver's
        own drift detection: it can only widen the set, never pin a row the
        detector flagged.  A row outside the instance raises ``ValueError``.
        ``pool_set`` / ``reserved_gb`` carry the fleet's shared budgets,
        checked exactly as :func:`repair_pools` would and repaired only on
        violation.
        """
        tracer = get_tracer()
        with tracer.span("optassign.delta_solve") as span:
            report, found = self._solve(problem, changed, pool_set, reserved_gb)
            if tracer.enabled:
                span.set(
                    mode=report.mode,
                    reason=report.reason,
                    num_changed=report.num_changed,
                    num_pinned=report.num_pinned,
                    repaired=report.repaired,
                )
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("optassign.delta.rows_resolved").add(
                    report.num_changed
                )
                metrics.counter("optassign.delta.rows_pinned").add(
                    report.num_pinned
                )
                if report.mode == "full":
                    # The fallback reasons are a small fixed vocabulary
                    # ("bootstrap", "pricing changed", ...), safe as a label.
                    metrics.counter(
                        "optassign.delta.full_solves", reason=report.reason
                    ).add()
                for reason, count in _resolved_by(report, found).items():
                    metrics.counter(
                        "optassign.delta.rows_by_reason", reason=reason
                    ).add(count)
            return report

    def _solve(
        self,
        problem: OptAssignProblem,
        changed: Sequence[int] | np.ndarray | None,
        pool_set: PoolSet | None,
        reserved_gb: np.ndarray | None,
    ) -> tuple[DeltaSolveReport, _Changes | None]:
        """The report, and the scan it came from (``None`` when the cache
        was empty)."""
        arrays = problem.partition_arrays()
        total = len(arrays)
        hint = _hint_rows(changed, total)
        pricing = self._pricing_signature(problem)
        if self._names is None:
            return self._full(problem, pool_set, reserved_gb, "bootstrap"), None
        if pricing != self._pricing:
            self.reset()
            return self._full(problem, pool_set, reserved_gb, "pricing changed"), None

        found = self._detect_changes(problem, arrays, hint)
        changed_mask = found.changed
        num_changed = int(np.count_nonzero(changed_mask))
        if num_changed == total:
            report = self._full(
                problem, pool_set, reserved_gb, "every row changed", found
            )
            return report, found

        # Pinned rows are gathered from the cache; the changed rows are
        # priced and chosen on their own and scattered over them.  Their
        # cells are the ones the full solve would price (the same columns
        # and masks, and the scheme axis cut to the schemes any changed row
        # has, which keeps each row's candidates in enumeration order), so
        # the greedy picks exactly what the full solve would pre-repair.
        rows = found.rows
        tier = self._tier[rows]
        scheme = self._scheme[rows]
        priced = self._priced[:, rows]
        stored = self._stored[rows]
        changed_rows = np.flatnonzero(changed_mask)
        if changed_rows.size:
            solved = self._solve_rows(problem, arrays, changed_rows)
            if solved is None:
                report = self._full(
                    problem, pool_set, reserved_gb, "changed rows infeasible", found
                )
                return report, found
            solved_tier, solved_scheme, solved_priced, solved_stored = solved
            tier[changed_rows] = solved_tier
            scheme[changed_rows] = solved_scheme
            priced[:, changed_rows] = solved_priced
            stored[changed_rows] = solved_stored

        assignment = Assignment(problem, tier, scheme, self._schemes, priced, "delta")
        updated = changed_mask
        repaired = False
        if self._budgets_violated(problem, tier, stored, pool_set, reserved_gb):
            try:
                if problem.has_finite_capacity():
                    assignment = repair_capacity(assignment, tolerance=_TOLERANCE_GB)
                if pool_set is not None:
                    assignment = repair_pools(
                        assignment,
                        pool_set,
                        reserved_gb=reserved_gb,
                        tolerance=_TOLERANCE_GB,
                    )
            except InfeasibleError:
                report = self._full(
                    problem, pool_set, reserved_gb, "budget repair infeasible", found
                )
                return report, found
            repaired = True
            # Repair may evict a pinned row to a fresh, fresh-priced option;
            # such a row's feature baseline rebases to this epoch too.
            repaired_scheme = self._codes_for(assignment.schemes)[assignment.scheme]
            updated = (
                changed_mask
                | (assignment.tier != tier)
                | (repaired_scheme != scheme)
            )
            tier, scheme, priced = assignment.tier, repaired_scheme, assignment.priced
            stored = assignment.stored_gb()

        self._remember(
            problem, arrays, tier, scheme, priced, stored, pricing, updated, found
        )
        report = DeltaSolveReport(
            assignment=assignment,
            mode="delta",
            reason="",
            num_changed=num_changed,
            num_pinned=total - num_changed,
            repaired=repaired,
        )
        return report, found

    def _solve_rows(
        self, problem: OptAssignProblem, arrays: PartitionArrays, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(tier, scheme code, priced, stored GB)`` of the greedy's choice
        for ``rows`` of ``problem`` alone, or ``None`` when a row has no
        feasible cell.

        Every input is the instance's own, gathered by row: the numeric
        columns, the profile columns and the codec and tier masks, on the
        schemes any of the rows has — what a carve of the rows into an
        instance of their own would price.  An instance whose profile
        columns nobody built yet (a standalone solve) builds them, and the
        codec mask, for the rows alone.
        """
        columns = _RowColumns(arrays, rows)
        cached = problem._profile_columns_cache
        if cached is None:
            names = columns.names
            profiles = problem._profiles
            schemes = tuple(
                sorted({scheme for name in names for scheme in profiles[name]})
            )
            schemes, ratio, decompression, available = profile_columns(
                names, profiles, schemes
            )
            codecs = None
        else:
            schemes, ratio, decompression, available = cached
            available = available[rows]
            keep = np.flatnonzero(available.any(axis=0))
            if len(keep) < len(schemes):
                schemes = tuple(schemes[k] for k in keep.tolist())
                available = available[:, keep]
                cells = np.ix_(rows, keep)
            else:
                cells = rows
            ratio, decompression = ratio[cells], decompression[cells]
            codecs = problem._codec_mask()[cells]
        tier_mask = problem._tier_mask()
        tracer = get_tracer()
        with tracer.span("optassign.batch_tensors") as span:
            tensors = problem.cost_model.batch_tensors(
                columns,
                schemes,
                ratio,
                decompression,
                available,
                tier_allowed=None if tier_mask is None else tier_mask[rows],
                codec_allowed=codecs,
            )
            span.set(
                partitions=tensors.num_partitions,
                tiers=tensors.num_tiers,
                schemes=tensors.num_schemes,
            )
        with tracer.span("optassign.greedy"):
            tier, scheme, priced = greedy_columns(tensors)
        if not np.isfinite(priced[OBJECTIVE]).all():
            return None
        count = len(rows)
        stored = tensors.stored_gb.take(scheme * count + np.arange(count))
        return tier, self._codes_for(schemes)[scheme], priced, stored

    # -- change detection -------------------------------------------------------
    def _pricing_signature(self, problem: OptAssignProblem) -> tuple:
        # pricing_version catches in-place catalog re-pricing, which keeps
        # id(tiers) stable by design; chaos acknowledges the bump through
        # note_repricing() to invalidate selectively instead of flushing.
        model = problem.cost_model
        return (
            id(model.tiers),
            model.tiers.pricing_version,
            model.duration_months,
            model.compute_cost_per_s,
            model.weights,
        )

    def _detect_changes(
        self,
        problem: OptAssignProblem,
        arrays: PartitionArrays,
        hint: np.ndarray | None,
    ) -> _Changes:
        """Scan the instance against the cache: which rows change, why, and
        what the cache update needs (see :class:`_Changes`).

        ``hint`` holds validated row indices of the instance.  The cache
        rows gather the pinned columns into the *new* row order; they are
        only meaningful where the novel mask is False.
        """
        names = arrays.names
        total = len(names)
        aligned = names == self._names
        if aligned:
            rows = np.arange(total)
            cached = self._features
            cached_codec = self._codec
            missing = np.zeros(total, dtype=bool)
        else:
            rows, missing = self._gather(names)
            cached = {key: column[rows] for key, column in self._features.items()}
            cached_codec = tuple(map(self._codec.__getitem__, rows.tolist()))

        new_accesses = arrays.predicted_accesses
        old_accesses = cached["predicted_accesses"]
        drifted = np.abs(new_accesses - old_accesses) > (
            self.drift_threshold * np.maximum(np.abs(new_accesses), np.abs(old_accesses))
        )
        # A different warm-start tier re-prices the migration term of every
        # candidate, so it is structural: the regret bound only covers rows
        # whose sole moving feature is the access forecast.  (A row that
        # migrated last epoch is therefore re-solved once more the epoch
        # after, when its warm start first reflects the move.)
        pinned_tier = self._tier[rows]
        structural = (
            (arrays.size_gb != cached["size_gb"])
            | (arrays.latency_threshold_s != cached["latency_threshold_s"])
            | (arrays.read_fraction != cached["read_fraction"])
            | (arrays.pushdown_fraction != cached["pushdown_fraction"])
            | (arrays.current_tier != cached["current_tier"])
            | (arrays.current_tier != pinned_tier)
        )
        codecs = None
        if arrays.current_codec != cached_codec:
            codecs = np.fromiter(
                map(operator.ne, arrays.current_codec, cached_codec),
                dtype=bool,
                count=total,
            )
            structural |= codecs

        # Hard-constraint edits (SLO caps, provider affinity) can invalidate a
        # standing placement, and a refreshed compression profile reprices a
        # row's entire candidate set, so an edited row is always re-solved.
        # Fleet instances cover a name subset, so each gate compares the
        # instance against the cache *restricted to its names*: the common
        # case (constraints and profile tables are usually the same objects)
        # is a C-level items() containment, and only a mismatch pays a
        # per-name pass — over the sparse constraint maps, not every row.
        def differences(fresh: dict, cached: dict) -> list[str]:
            if not fresh and not cached:
                return []
            return _restricted_differences(fresh, cached, arrays.row_index())

        slo = differences(problem._latency_slo, self._slo)
        affinity = differences(problem._provider_affinity, self._affinity)
        profiles = problem._profiles
        edited_profiles: list[str] = []
        if not profiles.items() <= self._profiles.items():
            cached_profiles = self._profiles
            edited_profiles = [
                name for name in names if profiles[name] != cached_profiles.get(name)
            ]
        constraint = None
        if slo or affinity or edited_profiles:
            row_index = arrays.row_index()
            constraint = np.zeros(total, dtype=bool)
            constraint[
                np.fromiter(
                    map(row_index.__getitem__, chain(slo, affinity, edited_profiles)),
                    dtype=np.intp,
                )
            ] = True
        forced = None
        if self._forced:
            row_index = arrays.row_index()
            forced = np.zeros(total, dtype=bool)
            for name in self._forced:
                row = row_index.get(name)
                if row is not None:
                    forced[row] = True
        hinted = None
        if hint is not None:
            hinted = np.zeros(total, dtype=bool)
            hinted[hint] = True
        evacuate = None
        banned = problem.banned_tiers
        if self._banned - banned:
            # Bans were lifted (provider recovery): a newly available tier
            # can attract partitions pinned anywhere, so nothing stays pinned.
            evacuate = np.ones(total, dtype=bool)
        elif banned:
            # A pinned row sitting on a banned tier must evacuate — checked
            # unconditionally (not just against the ban *diff*) so rows whose
            # instance skipped the epoch the ban landed still re-solve.
            evacuate = np.isin(
                pinned_tier, np.fromiter(sorted(banned), dtype=np.int64)
            )
        changed = missing | structural | drifted
        for mask in (forced, evacuate, constraint, hinted):
            if mask is not None:
                changed |= mask
        reasons = tuple(
            zip(
                RESOLVE_REASONS,
                (missing, forced, evacuate, constraint, structural, hinted, drifted),
            )
        )
        return _Changes(
            changed,
            rows,
            aligned,
            missing,
            reasons,
            codecs,
            slo,
            affinity,
        )

    def _gather(self, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(cache row of each name, novel-name mask); novel names map to 0."""
        gathered = np.fromiter(
            map(self._name_index().get, names, repeat(-1)),
            dtype=np.int64,
            count=len(names),
        )
        missing = gathered < 0
        return np.where(missing, 0, gathered), missing

    def _name_index(self) -> dict[str, int]:
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self._names)}
        return self._index

    def _codes_for(self, schemes: tuple[str, ...]) -> np.ndarray:
        """The solver's code of each of ``schemes``, growing the vocabulary."""
        vocabulary = self._scheme_code
        if any(scheme not in vocabulary for scheme in schemes):
            for scheme in schemes:
                vocabulary.setdefault(scheme, len(vocabulary))
            self._schemes = tuple(vocabulary)
        return np.array([vocabulary[scheme] for scheme in schemes], dtype=np.int64)

    # -- budgets -------------------------------------------------------------------
    def _budgets_violated(
        self,
        problem: OptAssignProblem,
        tier: np.ndarray,
        stored: np.ndarray,
        pool_set: PoolSet | None,
        reserved_gb: np.ndarray | None,
    ) -> bool:
        """One vectorized pass over the composed placement's tier usage."""
        if not problem.has_finite_capacity() and pool_set is None:
            return False
        num_tiers = problem.tier_count
        usage = np.bincount(tier, weights=stored, minlength=num_tiers)
        if problem.has_finite_capacity():
            capacities = problem.cost_model.tiers.cost_arrays()["capacity_gb"]
            if (usage > capacities + _TOLERANCE_GB).any():
                return True
        if pool_set is not None:
            budgets = pool_set.capacities
            if reserved_gb is not None:
                budgets = np.maximum(budgets - np.asarray(reserved_gb, dtype=np.float64), 0.0)
            if (pool_set.usage(usage) > budgets + _TOLERANCE_GB).any():
                return True
        return False

    # -- full solve & cache update ----------------------------------------------
    def _full(
        self,
        problem: OptAssignProblem,
        pool_set: PoolSet | None,
        reserved_gb: np.ndarray | None,
        reason: str,
        found: _Changes | None = None,
    ) -> DeltaSolveReport:
        """The full facade's solve, folded into the cache (``found`` is the
        scan of a non-empty cache)."""
        post_repair = None
        if pool_set is not None:
            post_repair = lambda assignment: repair_pools(  # noqa: E731
                assignment, pool_set, reserved_gb=reserved_gb
            )
        report = solve_optassign(
            problem, prefer=_FULL_SOLVER, post_repair=post_repair
        )
        assignment = report.assignment
        arrays = problem.partition_arrays()
        self._remember(
            problem,
            arrays,
            assignment.tier,
            self._codes_for(assignment.schemes)[assignment.scheme],
            assignment.priced,
            assignment.stored_gb(),
            self._pricing_signature(problem),
            found=found,
        )
        return DeltaSolveReport(
            assignment=assignment,
            mode="full",
            reason=reason,
            num_changed=len(arrays),
            num_pinned=0,
            repaired=assignment.solver.endswith(("+repair", "+pools")),
            full_report=report,
        )

    def _remember(
        self,
        problem: OptAssignProblem,
        arrays: PartitionArrays,
        tier: np.ndarray,
        scheme: np.ndarray,
        priced: np.ndarray,
        stored: np.ndarray,
        pricing: tuple,
        updated: np.ndarray | None = None,
        found: _Changes | None = None,
    ) -> None:
        """Fold the solved instance's columns into the cache.

        An empty cache takes the instance wholesale.  Otherwise ``found``,
        the scan :meth:`_detect_changes` made of this instance, says where
        each row goes (known rows are overwritten in place, novel rows
        appended; rows outside the instance keep their cached state) and
        which codecs, constraints and profile tables differ, so only those
        are written.

        ``updated`` (a per-row bool mask) restricts *feature* writes to the
        rows that were actually re-solved: a pinned row must keep the feature
        reference it was last solved under, or a forecast drifting slowly —
        just under the threshold every epoch — would ratchet the baseline
        along with it and never trigger a re-solve.  Everything else in the
        cache (tier, scheme, priced and stored columns, codecs, constraints)
        is written for every row: for pinned rows the new values equal the
        cached ones by construction, so only features differ.  The cache
        owns copies: the caller's assignment keeps its columns.
        """
        self._pricing = pricing
        self._banned = problem.banned_tiers
        # Rows covered by this instance were just (re-)solved; forced marks
        # for names outside it stay armed until their tenant next fires.
        if self._forced:
            row_index = arrays.row_index()
            self._forced = {name for name in self._forced if name not in row_index}
        features = {
            "size_gb": arrays.size_gb,
            "predicted_accesses": arrays.predicted_accesses,
            "latency_threshold_s": arrays.latency_threshold_s,
            "read_fraction": arrays.read_fraction,
            "pushdown_fraction": arrays.pushdown_fraction,
            "current_tier": arrays.current_tier,
        }
        if self._names is None:
            self._features = {key: column.copy() for key, column in features.items()}
            self._names = arrays.names
            self._index = None
            self._codec = arrays.current_codec
            self._tier = tier.copy()
            self._scheme = scheme.copy()
            self._priced = priced.copy()
            self._stored = stored.copy()
            self._slo = dict(problem._latency_slo)
            self._affinity = dict(problem._provider_affinity)
            self._profiles = dict(problem._profiles)
            return
        self._remember_constraints(problem, found)
        if found.aligned:
            # The instance holds the cached rows in cache order: its columns
            # replace the cache's outright.
            if updated is None:
                self._features = {
                    key: column.copy() for key, column in features.items()
                }
            else:
                rows = np.flatnonzero(updated)
                for key, column in features.items():
                    self._features[key][rows] = column[rows]
            if found.codecs is not None:
                self._codec = arrays.current_codec
            self._tier = tier.copy()
            self._scheme = scheme.copy()
            self._priced = priced.copy()
            self._stored = stored.copy()
            return
        positions, missing = found.rows, found.missing
        known = np.flatnonzero(~missing)
        if known.size:
            at = positions[known]
            if updated is not None:
                keep = updated[known]
                feature_positions, feature_rows = at[keep], known[keep]
            else:
                feature_positions, feature_rows = at, known
            for key, column in features.items():
                self._features[key][feature_positions] = column[feature_rows]
            self._tier[at] = tier[known]
            self._scheme[at] = scheme[known]
            self._priced[:, at] = priced[:, known]
            self._stored[at] = stored[known]
            if found.codecs is not None:
                recoded = np.flatnonzero(found.codecs & ~missing)
                if recoded.size:
                    merged = list(self._codec)
                    codecs = arrays.current_codec
                    for position, row in zip(
                        positions[recoded].tolist(), recoded.tolist()
                    ):
                        merged[position] = codecs[row]
                    self._codec = tuple(merged)
        novel = np.flatnonzero(missing)
        if novel.size:
            for key, column in features.items():
                self._features[key] = np.concatenate(
                    [self._features[key], column[novel]]
                )
            self._tier = np.concatenate([self._tier, tier[novel]])
            self._scheme = np.concatenate([self._scheme, scheme[novel]])
            self._priced = np.concatenate([self._priced, priced[:, novel]], axis=1)
            self._stored = np.concatenate([self._stored, stored[novel]])
            novel_rows = novel.tolist()
            self._codec = self._codec + tuple(
                arrays.current_codec[row] for row in novel_rows
            )
            self._names = self._names + tuple(arrays.names[row] for row in novel_rows)
            self._index = None

    def _remember_constraints(self, problem: OptAssignProblem, found: _Changes) -> None:
        """Write the SLO caps and affinities the scan found different (the
        others already equal the instance's), and the instance's profile
        tables: equal tables too, so that the next scan's containment test
        meets the same objects and takes the identity shortcut.  An aligned
        instance holds every cached name, so its table map is the cache's
        (a copy, the fastest way to write every entry)."""
        if found.aligned:
            self._profiles = dict(problem._profiles)
        else:
            self._profiles.update(problem._profiles)
        for fresh, cached, differing in (
            (problem._latency_slo, self._slo, found.slo),
            (problem._provider_affinity, self._affinity, found.affinity),
        ):
            for name in differing:
                value = fresh.get(name)
                if value is None:
                    del cached[name]
                else:
                    cached[name] = value


def _hint_rows(changed, total: int) -> np.ndarray | None:
    """``changed`` as validated row indices of a ``total``-row instance, or
    ``None`` when it flags nothing."""
    if changed is None:
        return None
    rows = np.asarray(changed)
    if not rows.size:
        return None
    if rows.dtype.kind not in "iu":
        raise ValueError(f"changed must hold row indices, got dtype {rows.dtype}")
    outside = rows[(rows < 0) | (rows >= total)]
    if outside.size:
        raise ValueError(
            f"changed rows unknown to the problem (it has {total} rows): "
            f"{sorted(set(outside.tolist()))[:5]}"
        )
    return rows


def _resolved_by(report: DeltaSolveReport, found: _Changes | None) -> dict[str, int]:
    """The re-solved rows of ``report`` counted once each, under their first
    reason in :data:`RESOLVE_REASONS` order (reasons with no row left out)."""
    if found is None:
        # No cache to compare with: a bootstrap's rows are all novel, and a
        # pricing change flushed the cache and re-solved every row in full.
        reason = "novel" if report.reason == "bootstrap" else "full"
        return {reason: report.num_changed}
    counts: dict[str, int] = {}
    left = np.ones(len(found.changed), dtype=bool)
    for reason, mask in found.reasons:
        if mask is not None:
            counts[reason] = int(np.count_nonzero(mask & left))
            left &= ~mask
    flagged = len(left) - int(np.count_nonzero(left))
    counts["full"] = report.num_changed - flagged
    return {reason: count for reason, count in counts.items() if count}


def _restricted_differences(
    fresh: dict, cached: dict, row_index: dict[str, int]
) -> list[str]:
    """Instance names whose ``fresh`` entry differs from ``cached``.

    ``fresh`` is keyed by instance names only, while ``cached`` may hold
    names of other instances; the comparison is against ``cached``
    restricted to the instance (``row_index``'s keys).  The equal case is
    one C-level containment test plus a key intersection; a difference is
    then located by visiting only names present in either map.
    """
    if not fresh and not cached:
        return []
    shared = cached.keys() & row_index.keys()
    if len(shared) == len(fresh) and fresh.items() <= cached.items():
        return []
    return [
        name for name in fresh.keys() | shared if fresh.get(name) != cached.get(name)
    ]
