"""Sharded multiprocess fleet solve over shared-memory tensors.

The stacked fleet solve is separable per partition — only the shared
:class:`~repro.cloud.CapacityPool` budgets couple rows — so the map step
parallelises perfectly: split the stacked rows into shards, evaluate each
shard's (tier, scheme) argmin in a worker process, and run one global
pool-arbitration *reduce* over the composed placement.  This module is that
orchestration:

* **No cost-tensor pickling.**  The parent packs the stacked problem's
  numeric columns (partition features, codec pins, per-scheme profile
  columns, SLO caps, tier-eligibility masks) into one
  :class:`multiprocessing.shared_memory.SharedMemory` block; workers attach
  by name, build their shard's ``(n, T, K)`` cost tensors locally with the
  same :meth:`~repro.cloud.CostModel.batch_tensors` arithmetic as the
  single-process path, and write their per-row argmin results into a shared
  output block.  Only small control data (the task descriptor, the pickled
  cost model, span records) crosses the pipe.

* **Bit-exact vs the single-process oracle.**  Shards preserve global row
  order, every worker masks against the *stacked* scheme union (identical
  flattened candidate enumeration, identical argmin tie-breaks), latency
  relaxation multiplies the same float thresholds by the same factors, and
  the reduce reuses :func:`~repro.core.optassign.repair_pools`' water-filling
  on a row-order-preserving carve of the rows occupying pooled tiers — the
  only rows arbitration can ever move.  ``tests/fleet/
  test_sharded_equivalence.py`` locks assignments and bills to equality.

* **Spans survive the process hop.**  Workers trace into a private
  :class:`~repro.obs.trace.Tracer` and ship their records home; the parent
  re-bases them under the dispatch span via :meth:`Tracer.adopt`, so the
  exported tree shows ``fleet.shard.solve`` (and its tensor/argmin children)
  exactly where each shard ran.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cloud import CostModel, PartitionArrays, PoolSet
from ..cloud.simulator import recode
from ..core.optassign import InfeasibleError
from ..core.optassign.capacity import (
    SolveReport,
    check_fail_fast_certificates,
    repair_pools,
)
from ..core.optassign.problem import OptAssignProblem
from ..core.optassign.result import (
    DECOMPRESSION,
    LATENCY,
    OBJECTIVE,
    PRICED_FIELDS,
    READ,
    STORAGE,
    WRITE,
    Assignment,
)
from ..obs import get_metrics, get_tracer
from ..obs.trace import SpanRecord, Tracer

if TYPE_CHECKING:  # imported where used: a run that never shards skips them
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["ShardedFleetSolver", "plan_row_shards", "plan_tenant_shards"]

#: Shared-memory block name prefix — recognisable so leak checks (and humans
#: reading /dev/shm) can attribute stray segments to this module.
_SHM_PREFIX = "reproshard"

# Output block columns, one float64 row vector per quantity (int-valued
# columns round-trip exactly through float64 for any realistic index): the
# tier, the scheme code, the assignment's priced block in ``PRICED_FIELDS``
# order, then the stored GB.
_OUT_TIER, _OUT_SCHEME = 0, 1
_OUT_PRICED = slice(2, 2 + len(PRICED_FIELDS))
_OUT_STORED = _OUT_PRICED.stop
_OUT_COLS = _OUT_STORED + 1

# Input block base columns (float64, shape (7, n)).
(
    _IN_SIZE,
    _IN_ACCESSES,
    _IN_THRESHOLD,
    _IN_READ_FRACTION,
    _IN_PUSHDOWN,
    _IN_TIER,
    _IN_CODEC,
) = range(7)
_IN_COLS = 7


def _attach(name: str):
    """Attach to a named block without the resource tracker adopting it.

    Python < 3.13 registers every attached block with the process-local
    resource tracker, which then "cleans up" (unlinks!) blocks the parent
    still owns when the worker exits; 3.13 grew ``track=False`` for exactly
    this.  On older versions the registration is suppressed at the source.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        # Suppress the tracker's register message for the duration of the
        # attach — unregistering after the fact double-counts when several
        # workers share one tracker process (fork) and spams KeyErrors.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker needs; small and picklable (no tensors)."""

    input_name: str
    output_name: str
    n: int
    num_schemes: int
    num_tiers: int
    has_slo: bool
    has_mask: bool
    shard: int
    start: int
    stop: int
    rows: np.ndarray | None  # explicit row indices; None = [start, stop)
    schemes: tuple[str, ...]
    cost_model: CostModel
    factor: float
    trace: bool
    fault: str | None


@dataclass
class _ShardResult:
    shard: int
    infeasible: np.ndarray | None  # global row indices, ascending
    spans: list[SpanRecord]


def _input_views(buf, n: int, k: int, t: int, has_slo: bool, has_mask: bool):
    """(base, ratio, decompression, available, slo, mask) views over ``buf``."""
    offset = 0
    base = np.frombuffer(buf, dtype=np.float64, count=_IN_COLS * n, offset=offset)
    base = base.reshape(_IN_COLS, n)
    offset += _IN_COLS * n * 8
    ratio = np.frombuffer(buf, dtype=np.float64, count=n * k, offset=offset)
    ratio = ratio.reshape(n, k)
    offset += n * k * 8
    decompression = np.frombuffer(buf, dtype=np.float64, count=n * k, offset=offset)
    decompression = decompression.reshape(n, k)
    offset += n * k * 8
    available = np.frombuffer(buf, dtype=np.uint8, count=n * k, offset=offset)
    available = available.reshape(n, k)
    offset += n * k
    slo = None
    if has_slo:
        slo = np.frombuffer(buf, dtype=np.float64, count=n, offset=offset)
        offset += n * 8
    mask = None
    if has_mask:
        mask = np.frombuffer(buf, dtype=np.uint8, count=n * t, offset=offset)
        mask = mask.reshape(n, t)
    return base, ratio, decompression, available, slo, mask


def _input_nbytes(n: int, k: int, t: int, has_slo: bool, has_mask: bool) -> int:
    total = _IN_COLS * n * 8 + 2 * n * k * 8 + n * k
    if has_slo:
        total += n * 8
    if has_mask:
        total += n * t
    return total


def _solve_shard(task: _ShardTask) -> _ShardResult:
    """Worker entry point: one shard's masked argmin over local tensors."""
    if task.fault == "raise":
        raise RuntimeError(f"injected shard fault (shard {task.shard})")
    in_shm = _attach(task.input_name)
    out_shm = _attach(task.output_name)
    try:
        return _solve_shard_views(task, in_shm.buf, out_shm.buf)
    finally:
        # All numpy views over the buffers live (and die) in the callee's
        # frame; on the error path a traceback can pin that frame, in which
        # case close() would raise BufferError — the mapping is then freed
        # with the exception object instead.
        for shm in (in_shm, out_shm):
            try:
                shm.close()
            except BufferError:
                pass


def _solve_shard_views(task: _ShardTask, in_buf, out_buf) -> _ShardResult:
    tracer = Tracer() if task.trace else None
    base, ratio, decompression, available, slo, mask = _input_views(
        in_buf, task.n, task.num_schemes, task.num_tiers, task.has_slo, task.has_mask
    )
    out = np.frombuffer(out_buf, dtype=np.float64, count=_OUT_COLS * task.n)
    out = out.reshape(_OUT_COLS, task.n)

    sel: "slice | np.ndarray" = (
        slice(task.start, task.stop) if task.rows is None else task.rows
    )
    n_rows = task.stop - task.start if task.rows is None else len(task.rows)

    root = (
        tracer.span(
            "fleet.shard.solve", shard=task.shard, rows=n_rows, factor=task.factor
        )
        if tracer is not None
        else _NULL_SPAN
    )
    with root:
        codec_idx = base[_IN_CODEC, sel].astype(np.int64)
        schemes = task.schemes
        codecs = tuple(
            None if i < 0 else schemes[i] for i in codec_idx.tolist()
        )
        thresholds = base[_IN_THRESHOLD, sel]
        if task.factor != 1.0:
            # Same float multiply OptAssignProblem.relaxed applies, so the
            # relaxed tensors match the single-process path bit for bit.
            thresholds = thresholds * task.factor
        arrays = PartitionArrays(
            names=("",) * n_rows,  # tensor arithmetic never reads names
            size_gb=base[_IN_SIZE, sel],
            predicted_accesses=base[_IN_ACCESSES, sel],
            latency_threshold_s=thresholds,
            current_tier=base[_IN_TIER, sel].astype(np.int64),
            read_fraction=base[_IN_READ_FRACTION, sel],
            pushdown_fraction=base[_IN_PUSHDOWN, sel],
            current_codec=codecs,
            file_ids=(frozenset(),) * n_rows,
        )
        tensors_cm = (
            tracer.span("fleet.shard.tensors", rows=n_rows)
            if tracer is not None
            else _NULL_SPAN
        )
        with tensors_cm:
            tensors = task.cost_model.batch_tensors(
                arrays,
                schemes,
                ratio[sel],
                decompression[sel],
                available[sel].astype(bool),
                latency_slo_s=None if slo is None else slo[sel],
                tier_allowed=None if mask is None else mask[sel].astype(bool),
            )
        argmin_cm = (
            tracer.span("fleet.shard.argmin", rows=n_rows)
            if tracer is not None
            else _NULL_SPAN
        )
        with argmin_cm:
            # Identical to the single-process masked argmin (greedy.py): C-order
            # flatten enumerates tier-major / sorted-scheme, so ties break the
            # same; masking against the *stacked* scheme union keeps the
            # column set — and therefore the flattened candidate order —
            # the same in every shard.
            flat = tensors.masked_objective().reshape(n_rows, -1)
            best = np.argmin(flat, axis=1)
            picks = np.arange(n_rows)
            best_objective = flat[picks, best]
            bad = ~np.isfinite(best_objective)
            if bad.any():
                local = np.flatnonzero(bad)
                infeasible = (
                    local + task.start if task.rows is None else task.rows[local]
                )
                return _ShardResult(
                    shard=task.shard,
                    infeasible=np.asarray(infeasible, dtype=np.int64),
                    spans=tracer.records() if tracer is not None else [],
                )
            tier_index = best // task.num_schemes
            scheme_index = best % task.num_schemes
            out[_OUT_TIER, sel] = tier_index
            out[_OUT_SCHEME, sel] = scheme_index
            priced = _OUT_PRICED.start
            cell = (picks, tier_index, scheme_index)
            out[priced + OBJECTIVE, sel] = best_objective
            out[priced + STORAGE, sel] = tensors.storage[cell]
            out[priced + READ, sel] = tensors.read[cell]
            out[priced + WRITE, sel] = tensors.write[cell]
            out[priced + DECOMPRESSION, sel] = tensors.decompression[
                picks, scheme_index
            ]
            out[priced + LATENCY, sel] = tensors.latency_s[cell]
            out[_OUT_STORED, sel] = tensors.stored_gb[picks, scheme_index]
    return _ShardResult(
        shard=task.shard,
        infeasible=None,
        spans=tracer.records() if tracer is not None else [],
    )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def set(self, **attrs):
        return self


_NULL_SPAN = _NullSpan()


# -- shard planning --------------------------------------------------------------
def plan_row_shards(total_rows: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``(start, stop)`` row ranges (empty ranges dropped).

    Contiguity preserves global row order inside every shard, which is one of
    the two ingredients of bit-exactness (the other is the shared scheme
    union); balance is the load-balancing default when nothing is known about
    per-row cost.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    bounds = np.linspace(0, total_rows, num=min(shards, total_rows) + 1)
    bounds = np.round(bounds).astype(np.int64)
    return [
        (int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]


def plan_tenant_shards(
    tenant_spans: Sequence[tuple[int, int]], shards: int
) -> list[tuple[int, int]]:
    """Contiguous shard ranges aligned to tenant boundaries.

    Greedily packs consecutive tenants into ``shards`` groups balanced by row
    count (a tenant never straddles two shards).  The fleet scheduler feeds
    :attr:`~repro.core.optassign.StackedProblem.tenant_spans` here so each
    worker solves whole tenants — results are identical to any other plan
    (separability), this just keeps shard/tenant attribution clean.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if not tenant_spans:
        return []
    total = tenant_spans[-1][1]
    groups = min(shards, len(tenant_spans))
    plan: list[tuple[int, int]] = []
    start = tenant_spans[0][0]
    for index, (_, span_stop) in enumerate(tenant_spans):
        if len(plan) == groups - 1:
            break  # everything left belongs to the final group
        groups_left = groups - len(plan)
        tenants_left = len(tenant_spans) - index - 1
        # Close the group at this tenant boundary once it holds its even
        # share of the remaining rows — or when the remaining tenants are
        # only just enough to give every later group at least one tenant.
        if (
            span_stop - start >= (total - start) / groups_left
            or tenants_left < groups_left
        ):
            plan.append((start, span_stop))
            start = span_stop
    plan.append((start, total))
    return [(s, e) for s, e in plan if e > s]


def _normalise_plan(
    plan, total_rows: int
) -> list[tuple[int, int] | np.ndarray]:
    """Validate a shard plan: every row exactly once, order preserved inside."""
    covered = np.zeros(total_rows, dtype=bool)
    shards: list[tuple[int, int] | np.ndarray] = []
    for entry in plan:
        if isinstance(entry, tuple) and len(entry) == 2:
            start, stop = int(entry[0]), int(entry[1])
            if not (0 <= start <= stop <= total_rows):
                raise ValueError(f"shard range {entry} out of bounds")
            if covered[start:stop].any():
                raise ValueError("shard plan covers a row twice")
            covered[start:stop] = True
            if stop > start:
                shards.append((start, stop))
            continue
        rows = np.asarray(entry, dtype=np.int64)
        if rows.size == 0:
            continue
        if rows.min() < 0 or rows.max() >= total_rows:
            raise ValueError("shard row indices out of bounds")
        # Ascending order inside a shard preserves global row order — the
        # tie-break and diagnostics-order invariant.
        rows = np.sort(rows)
        if covered[rows].any():
            raise ValueError("shard plan covers a row twice")
        covered[rows] = True
        shards.append(rows)
    if not covered.all():
        missing = int(np.flatnonzero(~covered)[0])
        raise ValueError(f"shard plan misses rows (first missing: {missing})")
    return shards


class ShardedFleetSolver:
    """Multiprocess map/reduce solver for stacked (fleet) OPTASSIGN instances.

    Parameters
    ----------
    shards:
        Default shard count when no explicit plan is passed to :meth:`solve`.
    workers:
        Worker processes in the pool (default: ``min(shards, cpu_count)``).
        Any worker count produces identical results — shards are independent
        until the reduce — so this only trades wall-clock for memory.
    mp_context:
        Multiprocessing start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``); default prefers ``fork`` where available (cheap
        workers), falling back to the platform default.
    max_relaxation_rounds / relaxation_step / tolerance:
        Mirror :func:`~repro.core.optassign.solve_optassign` — the sharded
        relaxation ladder must walk the same factors as the facade's for
        bill-exactness.

    The worker pool is created lazily on first solve and persists across
    epochs (fork cost is paid once); call :meth:`close` (or use the solver as
    a context manager) to release it.  Shared-memory blocks live only within
    one :meth:`solve` call and are unlinked even when a worker fails —
    ``tests/fleet/test_sharded_invariants.py`` injects faults and checks
    ``/dev/shm``.
    """

    def __init__(
        self,
        shards: int,
        workers: int | None = None,
        mp_context: str | None = None,
        max_relaxation_rounds: int = 6,
        relaxation_step: float = 2.0,
        tolerance: float = 1e-9,
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if relaxation_step <= 1.0:
            raise ValueError("relaxation_step must be greater than 1")
        self.shards = int(shards)
        self.workers = int(workers) if workers is not None else min(
            self.shards, os.cpu_count() or 1
        )
        self.max_relaxation_rounds = int(max_relaxation_rounds)
        self.relaxation_step = float(relaxation_step)
        self.tolerance = float(tolerance)
        import multiprocessing

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._mp_context = (
            multiprocessing.get_context(mp_context) if mp_context else None
        )
        self._executor: ProcessPoolExecutor | None = None
        self._sequence = 0
        #: Test hook: set to ``"raise"`` to make every worker task fail —
        #: exercises the shared-memory cleanup and pool-recovery paths.
        self._inject_fault: str | None = None

    # -- lifecycle ---------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ShardedFleetSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- the solve ---------------------------------------------------------------
    def solve(
        self,
        problem: OptAssignProblem,
        pool_set: PoolSet | None = None,
        reserved_gb: np.ndarray | None = None,
        plan: Sequence | None = None,
    ) -> SolveReport:
        """Solve one stacked instance: sharded map, pool-arbitrated reduce.

        Matches ``solve_optassign(problem, prefer="greedy", post_repair=
        repair_pools(..., pool_set, reserved_gb))`` choice for choice and
        error for error: same fail-fast certificates, same relaxation ladder,
        same water-filling arbitration (run on a row-order-preserving carve
        of the rows in pooled tiers — the only rows arbitration can move).
        ``plan`` overrides the shard layout (``(start, stop)`` tuples or
        explicit row-index arrays, each row exactly once); results are
        plan-independent.
        """
        if problem.has_finite_capacity():
            raise ValueError(
                "ShardedFleetSolver requires an uncapacitated catalog (the "
                "fleet's capacity story is shared pools); per-tier "
                "capacities would need the repair_capacity reduce"
            )
        tracer = get_tracer()
        metrics = get_metrics()
        arrays = problem.partition_arrays()
        total = len(arrays)
        shard_plan = _normalise_plan(
            plan if plan is not None else plan_row_shards(total, self.shards),
            total,
        )
        with tracer.span(
            "fleet.sharded_solve", shards=len(shard_plan), rows=total
        ) as solve_span:
            check_fail_fast_certificates(problem)
            in_shm, out_shm = self._allocate(problem, arrays)
            try:
                report = self._rounds(
                    problem,
                    arrays,
                    pool_set,
                    reserved_gb,
                    shard_plan,
                    in_shm,
                    out_shm,
                    tracer,
                    metrics,
                )
                solve_span.set(latency_relaxation=report.latency_relaxation)
                return report
            finally:
                for shm in (in_shm, out_shm):
                    try:
                        shm.close()
                    except BufferError:  # pragma: no cover - error paths only
                        pass
                    shm.unlink()

    # -- internals ---------------------------------------------------------------
    def _allocate(self, problem: OptAssignProblem, arrays: PartitionArrays):
        from multiprocessing import shared_memory

        schemes, ratio, decompression, available = problem._profile_columns()
        slo = problem._slo_vector()
        mask = problem._tier_allowed_mask()
        n = len(arrays)
        k = len(schemes)
        t = problem.tier_count
        self._sequence += 1
        stem = f"{_SHM_PREFIX}_{os.getpid()}_{self._sequence}"
        in_shm = shared_memory.SharedMemory(
            create=True,
            name=f"{stem}_in",
            size=_input_nbytes(n, k, t, slo is not None, mask is not None),
        )
        out_shm = shared_memory.SharedMemory(
            create=True, name=f"{stem}_out", size=_OUT_COLS * n * 8
        )
        self._write_inputs(problem, arrays, in_shm.buf, slo, mask)
        return in_shm, out_shm

    def _write_inputs(self, problem, arrays, buf, slo, mask) -> None:
        schemes, ratio, decompression, available = problem._profile_columns()
        n = len(arrays)
        base, ratio_v, decomp_v, avail_v, slo_v, mask_v = _input_views(
            buf, n, len(schemes), problem.tier_count, slo is not None, mask is not None
        )
        scheme_position = {scheme: k for k, scheme in enumerate(schemes)}
        base[_IN_SIZE] = arrays.size_gb
        base[_IN_ACCESSES] = arrays.predicted_accesses
        base[_IN_THRESHOLD] = arrays.latency_threshold_s
        base[_IN_READ_FRACTION] = arrays.read_fraction
        base[_IN_PUSHDOWN] = arrays.pushdown_fraction
        base[_IN_TIER] = arrays.current_tier
        base[_IN_CODEC] = np.fromiter(
            (
                -1 if codec is None else scheme_position[codec]
                for codec in arrays.current_codec
            ),
            dtype=np.float64,
            count=n,
        )
        ratio_v[:] = ratio
        decomp_v[:] = decompression
        avail_v[:] = available
        if slo_v is not None:
            slo_v[:] = slo
        if mask_v is not None:
            mask_v[:] = mask

    def _rounds(
        self,
        problem,
        arrays,
        pool_set,
        reserved_gb,
        shard_plan,
        in_shm,
        out_shm,
        tracer,
        metrics,
    ) -> SolveReport:
        from contextlib import nullcontext

        schemes = problem.scheme_union()
        slo = problem._slo_vector()
        mask = problem._tier_allowed_mask()
        n = len(arrays)
        factor = 1.0
        last_error: Exception | None = None
        for round_index in range(self.max_relaxation_rounds + 1):
            round_context = (
                tracer.span(
                    "optassign.relaxation_round", round=round_index, factor=factor
                )
                if round_index > 0
                else nullcontext()
            )
            try:
                with round_context:
                    infeasible = self._dispatch(
                        shard_plan,
                        in_shm.name,
                        out_shm.name,
                        n,
                        len(schemes),
                        problem.tier_count,
                        slo is not None,
                        mask is not None,
                        schemes,
                        problem.cost_model,
                        factor,
                        tracer,
                    )
                    if infeasible is not None:
                        names = [
                            arrays.names[i] for i in infeasible[:5].tolist()
                        ]
                        raise InfeasibleError(
                            "no feasible (tier, scheme) option exists for "
                            f"partitions: {names}"
                            f"{'...' if len(infeasible) > 5 else ''}; "
                            "relax latency thresholds, loosen SLO/affinity "
                            "constraints or add faster tiers"
                        )
                    return self._reduce(
                        problem,
                        arrays,
                        pool_set,
                        reserved_gb,
                        out_shm,
                        schemes,
                        factor,
                        tracer,
                    )
            except InfeasibleError as error:
                last_error = error
                factor *= self.relaxation_step
                metrics.counter("optassign.relaxations").add()
        raise InfeasibleError(
            f"OPTASSIGN instance remained infeasible after relaxing latency "
            f"thresholds {self.max_relaxation_rounds} times (last error: "
            f"{last_error})"
        )

    def _dispatch(
        self,
        shard_plan,
        input_name,
        output_name,
        n,
        num_schemes,
        num_tiers,
        has_slo,
        has_mask,
        schemes,
        cost_model,
        factor,
        tracer,
    ) -> np.ndarray | None:
        """Fan one round out to the workers; collect infeasible rows if any."""
        with tracer.span(
            "fleet.shard.dispatch", shards=len(shard_plan), factor=factor
        ) as dispatch_span:
            tasks = []
            for shard, entry in enumerate(shard_plan):
                if isinstance(entry, tuple):
                    start, stop = entry
                    rows = None
                else:
                    rows = entry
                    start, stop = 0, 0
                tasks.append(
                    _ShardTask(
                        input_name=input_name,
                        output_name=output_name,
                        n=n,
                        num_schemes=num_schemes,
                        num_tiers=num_tiers,
                        has_slo=has_slo,
                        has_mask=has_mask,
                        shard=shard,
                        start=start,
                        stop=stop,
                        rows=rows,
                        schemes=schemes,
                        cost_model=cost_model,
                        factor=factor,
                        trace=tracer.enabled,
                        fault=self._inject_fault,
                    )
                )
            from concurrent.futures.process import BrokenProcessPool

            pool = self._pool()
            try:
                futures = [pool.submit(_solve_shard, task) for task in tasks]
                results = [future.result() for future in futures]
            except BrokenProcessPool:
                # A worker died hard (OOM, signal): the pool is unusable, so
                # drop it — the next solve builds a fresh one.
                self.close()
                raise
            if tracer.enabled:
                parent = dispatch_span.span_id
                for result in results:  # shard order = deterministic ids
                    tracer.adopt(result.spans, parent_id=parent)
            infeasible = [
                result.infeasible
                for result in results
                if result.infeasible is not None
            ]
            if infeasible:
                return np.sort(np.concatenate(infeasible))
            return None

    def _reduce(
        self,
        problem,
        arrays,
        pool_set,
        reserved_gb,
        out_shm,
        schemes,
        factor,
        tracer,
    ) -> SolveReport:
        """Compose the global assignment; arbitrate pool budgets if violated."""
        out = np.frombuffer(out_shm.buf, dtype=np.float64, count=_OUT_COLS * len(arrays))
        out = out.reshape(_OUT_COLS, len(arrays))
        candidate = problem if factor == 1.0 else problem.relaxed(factor)
        with tracer.span("fleet.shard.compose", rows=len(arrays)):
            # The workers' results are already the assignment's columns.
            # The copies are what outlive the shared block's unlink.
            tier = out[_OUT_TIER].astype(np.int64)
            scheme = out[_OUT_SCHEME].astype(np.int64)
            priced = out[_OUT_PRICED].copy()
            stored = out[_OUT_STORED].copy()
        del out  # release the buffer view before the caller unlinks
        solver = "greedy+shards"
        assignment = Assignment(candidate, tier, scheme, schemes, priced, solver)
        if pool_set is not None and self._pools_violated(
            pool_set, tier, stored, reserved_gb
        ):
            with tracer.span("fleet.shard.reduce") as reduce_span:
                # Only rows sitting in pooled tiers can ever become
                # water-filling members (evictions move members; unpooled
                # rows never move), so arbitration over this carve is
                # bit-identical to arbitration over the full instance —
                # global row order is preserved, and each member's candidate
                # schemes are all present in the carve's (smaller) union.
                pooled = np.flatnonzero(pool_set.pool_of_tier[tier] >= 0)
                sub = Assignment(
                    candidate.carve(pooled),
                    tier[pooled],
                    scheme[pooled],
                    schemes,
                    priced[:, pooled],
                    solver,
                )
                repaired = repair_pools(
                    sub, pool_set, reserved_gb=reserved_gb, tolerance=self.tolerance
                )
                if repaired is not sub:
                    tier = tier.copy()
                    scheme = scheme.copy()
                    priced = priced.copy()
                    tier[pooled] = repaired.tier
                    scheme[pooled] = recode(
                        repaired.scheme, repaired.schemes, schemes
                    )
                    priced[:, pooled] = repaired.priced
                    assignment = Assignment(
                        candidate, tier, scheme, schemes, priced, repaired.solver
                    )
                reduce_span.set(
                    pooled_rows=int(pooled.size),
                    repaired=repaired is not sub,
                )
        return SolveReport(
            assignment=assignment,
            solver="greedy+shards",
            latency_relaxation=factor,
        )

    def _pools_violated(
        self, pool_set, tier_vec, stored_vec, reserved_gb
    ) -> bool:
        """The vectorized budget precheck (mirrors ``repair_pools``' math)."""
        tier_usage = np.bincount(
            tier_vec, weights=stored_vec, minlength=len(pool_set.catalog)
        )
        budgets = pool_set.capacities
        if reserved_gb is not None:
            reserved_gb = np.asarray(reserved_gb, dtype=np.float64)
            budgets = np.maximum(budgets - reserved_gb, 0.0)
        return bool((pool_set.usage(tier_usage) > budgets + self.tolerance).any())
