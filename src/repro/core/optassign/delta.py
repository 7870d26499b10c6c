"""Incremental (delta) OPTASSIGN: re-solve only the rows that drifted.

Every re-optimization so far rebuilt and re-solved the full
partitions × tiers × schemes tensor even when drift touched a handful of
partitions.  :class:`DeltaSolver` keeps the previous epoch's per-partition
features and chosen columns between solves and, on the next instance,

1. detects the **changed rows** — partitions whose windowed access forecast
   moved past a configurable relative drift threshold, plus every partition
   with a structural change (new name, different size / latency SLA /
   read-pattern columns, codec pin, SLO cap, provider affinity, an externally
   moved ``current_tier``) and every name the caller flags explicitly (a
   :class:`~repro.engine.DriftTriggered` policy's per-partition scores);
2. solves a carved-out subproblem over only those rows (the same vectorized
   masked-argmin greedy as the full path, so tie-breaks are identical);
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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ...cloud import PoolSet
from ...obs import get_metrics, get_tracer
from .capacity import SolveReport, repair_capacity, repair_pools, solve_optassign
from .errors import InfeasibleError
from .greedy import solve_greedy
from .problem import OptAssignProblem
from .result import Assignment

__all__ = ["DeltaSolver", "DeltaSolveReport"]


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
    prefer:
        Solver preference forwarded to :func:`solve_optassign` whenever a
        full solve runs (bootstrap and fallbacks).  Defaults to ``"greedy"``
        — the vectorized argmin + repair path the delta subproblems also use,
        so full and delta epochs price identically.
    tolerance:
        Slack (GB) applied to capacity/pool budget checks, mirroring
        :func:`repair_capacity`.

    The cache is keyed by partition *name*: instances may cover different
    subsets between calls (the fleet scheduler stacks only the tenants whose
    policies fired), and rows absent from an instance simply keep their
    cached state until they reappear.  All instances must price against the
    same catalog object, horizon, compute price and objective weights — a
    changed pricing signature flushes the cache and runs a full solve.
    """

    def __init__(
        self,
        drift_threshold: float = 0.1,
        prefer: str = "greedy",
        tolerance: float = 1e-9,
    ):
        if drift_threshold < 0.0:
            raise ValueError("drift_threshold must be non-negative")
        if drift_threshold >= 1.0 / 3.0:
            raise ValueError(
                "drift_threshold must stay below 1/3 (the bounded-regret "
                f"guarantee degenerates past it), got {drift_threshold}"
            )
        self.drift_threshold = float(drift_threshold)
        self.prefer = prefer
        self.tolerance = float(tolerance)
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
        changed: "set[str] | list[str] | tuple[str, ...] | None" = None,
        pool_set: PoolSet | None = None,
        reserved_gb: np.ndarray | None = None,
    ) -> DeltaSolveReport:
        """Solve ``problem`` incrementally against the cached previous epoch.

        ``changed`` adds names to the changed-row set on top of the solver's
        own drift detection (it can only widen the set, never pin a row the
        detector flagged).  ``pool_set`` / ``reserved_gb`` carry the fleet's
        shared budgets, checked exactly as :func:`repair_pools` would and
        repaired only on violation.
        """
        tracer = get_tracer()
        with tracer.span("optassign.delta_solve") as span:
            report = self._solve(problem, changed, pool_set, reserved_gb)
            if tracer.enabled:
                span.set(
                    mode=report.mode,
                    reason=report.reason,
                    num_changed=report.num_changed,
                    num_pinned=report.num_pinned,
                    repaired=report.repaired,
                )
                metrics = get_metrics()
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
            return report

    def _solve(
        self,
        problem: OptAssignProblem,
        changed: "set[str] | list[str] | tuple[str, ...] | None" = None,
        pool_set: PoolSet | None = None,
        reserved_gb: np.ndarray | None = None,
    ) -> DeltaSolveReport:
        arrays = problem.partition_arrays()
        row_index = arrays.row_index()
        if changed is not None:
            unknown = [name for name in changed if name not in row_index]
            if unknown:
                raise ValueError(
                    f"changed names unknown to the problem: {sorted(unknown)[:5]}"
                )
        pricing = self._pricing_signature(problem)
        if self._names is None:
            return self._full(problem, pool_set, reserved_gb, "bootstrap")
        if pricing != self._pricing:
            self.reset()
            return self._full(problem, pool_set, reserved_gb, "pricing changed")

        changed_mask, rows, missing = self._detect_changes(
            problem, arrays, changed or None
        )
        num_changed = int(changed_mask.sum())
        total = len(arrays)
        if num_changed == total:
            return self._full(problem, pool_set, reserved_gb, "every row changed")

        # Pinned rows are gathered from the cache; the changed rows are solved
        # on a carved-out subproblem and scattered over them.  The subproblem
        # uses the same vectorized masked-argmin greedy as the full path
        # (per-partition argmins are independent, and restricting the sorted
        # scheme union to one partition's available schemes preserves
        # enumeration order), so its choices are exactly what the full solve
        # would pick pre-repair.
        tier = self._tier[rows]
        scheme = self._scheme[rows]
        priced = self._priced[:, rows]
        stored = self._stored[rows]
        changed_rows = np.flatnonzero(changed_mask)
        if changed_rows.size:
            sub = problem.carve(changed_rows)
            try:
                solved = solve_greedy(sub, enforce_unbounded=False)
            except InfeasibleError:
                return self._full(
                    problem, pool_set, reserved_gb, "changed rows infeasible"
                )
            tier[changed_rows] = solved.tier
            scheme[changed_rows] = self._codes_for(solved.schemes)[solved.scheme]
            priced[:, changed_rows] = solved.priced
            stored[changed_rows] = solved.stored_gb()

        assignment = Assignment(problem, tier, scheme, self._schemes, priced, "delta")
        updated = changed_mask
        repaired = False
        if self._budgets_violated(problem, tier, stored, pool_set, reserved_gb):
            try:
                if problem.has_finite_capacity():
                    assignment = repair_capacity(assignment, tolerance=self.tolerance)
                if pool_set is not None:
                    assignment = repair_pools(
                        assignment,
                        pool_set,
                        reserved_gb=reserved_gb,
                        tolerance=self.tolerance,
                    )
            except InfeasibleError:
                return self._full(
                    problem, pool_set, reserved_gb, "budget repair infeasible"
                )
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
            problem,
            arrays,
            tier,
            scheme,
            priced,
            stored,
            pricing,
            updated=updated,
            gathered=(rows, missing),
        )
        return DeltaSolveReport(
            assignment=assignment,
            mode="delta",
            reason="",
            num_changed=num_changed,
            num_pinned=total - num_changed,
            repaired=repaired,
        )

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
        arrays,
        flagged,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(changed mask, cache row of every instance row, novel-row mask).

        The cache rows gather the pinned columns into the *new* row order;
        they are only meaningful where the novel mask is False.
        """
        names = arrays.names
        total = len(names)
        if names == self._names:
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
        structural = (
            (arrays.size_gb != cached["size_gb"])
            | (arrays.latency_threshold_s != cached["latency_threshold_s"])
            | (arrays.read_fraction != cached["read_fraction"])
            | (arrays.pushdown_fraction != cached["pushdown_fraction"])
            | (arrays.current_tier != cached["current_tier"])
        )
        pinned_tier = self._tier[rows]
        moved = arrays.current_tier != pinned_tier

        changed = missing | drifted | structural | moved
        if arrays.current_codec != cached_codec:
            for i, (new_codec, old_codec) in enumerate(
                zip(arrays.current_codec, cached_codec)
            ):
                if new_codec != old_codec:
                    changed[i] = True
        # Hard-constraint edits (SLO caps, provider affinity) can invalidate a
        # standing placement, and a refreshed compression profile reprices a
        # row's entire candidate set, so an edited row is always re-solved.
        # Fleet instances cover a name subset, so each gate compares the
        # instance against the cache *restricted to its names*: the common
        # case (constraints and profile tables are usually the same objects)
        # is a C-level items() containment, and only a mismatch pays a
        # per-name pass — over the sparse constraint maps, not every row.
        row_index = arrays.row_index()
        for fresh, cached_map in (
            (problem._latency_slo, self._slo),
            (problem._provider_affinity, self._affinity),
        ):
            for name in _restricted_differences(fresh, cached_map, row_index):
                changed[row_index[name]] = True
        profiles = problem._profiles
        if not profiles.items() <= self._profiles.items():
            cached_profiles = self._profiles
            for i, name in enumerate(names):
                if profiles[name] != cached_profiles.get(name):
                    changed[i] = True
        if flagged:
            changed[np.fromiter(map(row_index.__getitem__, flagged), dtype=np.int64)] = True
        for name in self._forced:
            row = row_index.get(name)
            if row is not None:
                changed[row] = True
        banned = problem.banned_tiers
        if self._banned - banned:
            # Bans were lifted (provider recovery): a newly available tier
            # can attract partitions pinned anywhere, so nothing stays pinned.
            changed[:] = True
        elif banned:
            # A pinned row sitting on a banned tier must evacuate — checked
            # unconditionally (not just against the ban *diff*) so rows whose
            # instance skipped the epoch the ban landed still re-solve.
            changed |= np.isin(
                pinned_tier, np.fromiter(sorted(banned), dtype=np.int64)
            )
        return changed, rows, missing

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
            if (usage > capacities + self.tolerance).any():
                return True
        if pool_set is not None:
            budgets = pool_set.capacities
            if reserved_gb is not None:
                budgets = np.maximum(budgets - np.asarray(reserved_gb, dtype=np.float64), 0.0)
            if (pool_set.usage(usage) > budgets + self.tolerance).any():
                return True
        return False

    # -- full solve & cache update ----------------------------------------------
    def _full(
        self,
        problem: OptAssignProblem,
        pool_set: PoolSet | None,
        reserved_gb: np.ndarray | None,
        reason: str,
    ) -> DeltaSolveReport:
        post_repair = None
        if pool_set is not None:
            post_repair = lambda assignment: repair_pools(  # noqa: E731
                assignment, pool_set, reserved_gb=reserved_gb
            )
        report = solve_optassign(
            problem, prefer=self.prefer, post_repair=post_repair
        )
        assignment = report.assignment
        self._remember(
            problem,
            problem.partition_arrays(),
            assignment.tier,
            self._codes_for(assignment.schemes)[assignment.scheme],
            assignment.priced,
            assignment.stored_gb(),
            self._pricing_signature(problem),
        )
        total = len(problem.partition_arrays())
        return DeltaSolveReport(
            assignment=assignment,
            mode="full",
            reason=reason,
            num_changed=total,
            num_pinned=0,
            repaired=assignment.solver.endswith(("+repair", "+pools")),
            full_report=report,
        )

    def _remember(
        self,
        problem: OptAssignProblem,
        arrays,
        tier: np.ndarray,
        scheme: np.ndarray,
        priced: np.ndarray,
        stored: np.ndarray,
        pricing: tuple,
        updated: np.ndarray | None = None,
        gathered: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Fold the solved instance's columns into the cache (wholesale or merge).

        ``updated`` (a per-row bool mask) restricts *feature* writes to the
        rows that were actually re-solved: a pinned row must keep the feature
        reference it was last solved under, or a forecast drifting slowly —
        just under the threshold every epoch — would ratchet the baseline
        along with it and never trigger a re-solve.  Everything else in the
        cache (tier, scheme, priced and stored columns, codecs, constraints)
        is written wholesale: for pinned rows the new values equal the cached
        ones by construction, so only features differ.  ``gathered`` is the
        ``(cache rows, novel mask)`` pair change detection already computed.
        The cache owns copies: the caller's assignment keeps its columns.
        """
        self._pricing = pricing
        self._banned = problem.banned_tiers
        row_index = arrays.row_index()
        # Rows covered by this instance were just (re-)solved; forced marks
        # for names outside it stay armed until their tenant next fires.
        if self._forced:
            self._forced = {name for name in self._forced if name not in row_index}
        features = {
            "size_gb": arrays.size_gb,
            "predicted_accesses": arrays.predicted_accesses,
            "latency_threshold_s": arrays.latency_threshold_s,
            "read_fraction": arrays.read_fraction,
            "pushdown_fraction": arrays.pushdown_fraction,
            "current_tier": arrays.current_tier,
        }
        names = arrays.names
        if self._names is None or names == self._names:
            if self._names is not None and updated is not None:
                rows = np.flatnonzero(updated)
                for key, column in features.items():
                    self._features[key][rows] = column[rows]
            else:
                self._features = {
                    key: column.copy() for key, column in features.items()
                }
            self._names = names
            self._codec = arrays.current_codec
            self._tier = tier.copy()
            self._scheme = scheme.copy()
            self._priced = priced.copy()
            self._stored = stored.copy()
            self._slo = dict(problem._latency_slo)
            self._affinity = dict(problem._provider_affinity)
            self._profiles = dict(problem._profiles)
            return
        # Merge path: the instance covers a different name set (the fleet's
        # firing subset).  Known rows are overwritten in place, novel rows
        # appended; rows outside the instance keep their cached state.
        positions, missing = gathered if gathered is not None else self._gather(names)
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
            positions_list = at.tolist()
            fresh = list(map(arrays.current_codec.__getitem__, known.tolist()))
            if fresh != list(map(self._codec.__getitem__, positions_list)):
                merged = list(self._codec)
                for position, codec in zip(positions_list, fresh):
                    merged[position] = codec
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
            self._names = self._names + tuple(names[row] for row in novel_rows)
            self._index = None
        self._profiles.update(problem._profiles)
        for fresh, cached in (
            (problem._latency_slo, self._slo),
            (problem._provider_affinity, self._affinity),
        ):
            for name in _restricted_differences(fresh, cached, row_index):
                value = fresh.get(name)
                if value is None:
                    del cached[name]
                else:
                    cached[name] = value


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
