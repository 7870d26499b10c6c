"""The delta solver on rows, pinned to the name-keyed path it replaced.

* Drift hints travel as rows: a policy's ``drifted_rows``, offset by each
  firing tenant's span in a fleet, select exactly the rows the name-keyed
  hint (tenant tagging plus the membership filter, ``tests/oracles/delta.py``)
  names, for random fleets, firing subsets and drift, and for a lone engine.
* The changed rows are priced and chosen from the instance's own columns;
  the choice equals the greedy on the reference carve of those rows
  (``tests/oracles/problems.py``) bit for bit — tier, scheme, priced block
  and stored GB — and a changed row with no feasible cell still falls back
  to the full solve.
* Every re-solved row is counted once under its first reason, and the
  reason counts add up to ``optassign.delta.rows_resolved``.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.delta import drifted_names, fleet_hint_names
from oracles.problems import carve
from repro import obs
from repro.cloud import (
    AccessEvent,
    CompressionProfile,
    CostModel,
    DataPartition,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.optassign import (
    DeltaSolver,
    InfeasibleError,
    OptAssignProblem,
    solve_greedy,
    solve_optassign,
)
from repro.core.optassign.delta import RESOLVE_REASONS
from repro.engine import DriftTriggered, EngineConfig, EpochBatch, OnlineTieringEngine
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.fleet import scheduler as scheduler_module

SCHEMES = ("gzip", "snappy", "zstd")


def random_problem(seed: int, count: int, catalog=None) -> OptAssignProblem:
    """Random rows with per-row scheme subsets, pinned codecs, SLO caps,
    provider affinity and banned tiers."""
    rng = np.random.default_rng(seed)
    catalog = catalog if catalog is not None else multi_cloud_catalog()
    partitions, profiles, slo, affinity = [], {}, {}, {}
    providers = catalog.provider_names
    for i in range(count):
        name = f"p{i:03d}"
        own = [scheme for scheme in SCHEMES if rng.uniform() < 0.5]
        profiles[name] = {
            scheme: CompressionProfile(
                scheme,
                ratio=float(rng.uniform(1.2, 6.0)),
                decompression_s_per_gb=float(rng.uniform(0.02, 2.0)),
            )
            for scheme in own
        }
        pinned = own[0] if own and rng.uniform() < 0.2 else None
        if rng.uniform() < 0.2:
            slo[name] = float(rng.choice([0.01, 0.1, 3600.0]))
        if rng.uniform() < 0.2:
            affinity[name] = providers[int(rng.integers(len(providers)))]
        partitions.append(
            DataPartition(
                name=name,
                size_gb=float(rng.lognormal(2.0, 1.5)),
                predicted_accesses=float(rng.lognormal(1.0, 2.0)),
                latency_threshold_s=float(rng.choice([0.001, 0.05, 60.0, np.inf])),
                current_tier=int(rng.integers(-1, len(catalog))),
                read_fraction=float(rng.uniform(0.05, 1.0)),
                pushdown_fraction=float(rng.uniform(0.0, 0.6)),
                current_codec=pinned,
            )
        )
    banned = [int(rng.integers(len(catalog)))] if rng.uniform() < 0.3 else None
    return OptAssignProblem(
        partitions,
        CostModel(catalog, duration_months=6.0),
        profiles,
        latency_slo_s=slo,
        provider_affinity=affinity,
        banned_tiers=banned,
    )


class TestChangedRowSolve:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 30), data=st.data())
    def test_equals_the_greedy_on_the_reference_carve(self, seed, count, data):
        problem = random_problem(seed, count)
        rows = np.array(
            sorted(
                data.draw(
                    st.sets(st.integers(0, count - 1), min_size=1, max_size=count)
                )
            )
        )
        if data.draw(st.booleans()):
            problem._profile_columns()  # a cached parent is sliced, else built
        solver = DeltaSolver()
        got = solver._solve_rows(problem, problem.partition_arrays(), rows)
        try:
            want = solve_greedy(carve(problem, rows), enforce_unbounded=False)
        except InfeasibleError:
            assert got is None
            return
        tier, scheme, priced, stored = got
        assert tier.tobytes() == want.tier.tobytes()
        assert [solver._schemes[code] for code in scheme.tolist()] == [
            want.schemes[code] for code in want.scheme.tolist()
        ]
        assert priced.tobytes() == want.priced.tobytes()
        assert stored.tobytes() == want.stored_gb().tobytes()

    def test_an_infeasible_changed_row_falls_back_to_the_full_solve(self):
        catalog = azure_tier_catalog()
        model = CostModel(catalog, duration_months=6.0)
        partitions = [
            DataPartition(f"p{i}", size_gb=10.0 + i, predicted_accesses=5.0 * i)
            for i in range(6)
        ]
        solver = DeltaSolver()
        report = solver.solve(OptAssignProblem(partitions, model))
        for _ in range(3):  # settle the warm start
            partitions = [
                replace(p, current_tier=int(report.assignment.tier[i]))
                for i, p in enumerate(partitions)
            ]
            report = solver.solve(OptAssignProblem(partitions, model))
        assert report.mode == "delta" and report.num_changed == 0
        # No tier answers within 4 ms (premium takes 5.3 ms): the changed
        # row has no feasible cell, while the facade's latency relaxation
        # (x2) finds one.
        partitions[2] = replace(partitions[2], latency_threshold_s=0.004)
        problem = OptAssignProblem(partitions, model)
        rows = np.array([2])
        assert solver._solve_rows(problem, problem.partition_arrays(), rows) is None
        with pytest.raises(InfeasibleError):
            solve_greedy(carve(problem, rows), enforce_unbounded=False)
        report = solver.solve(problem)
        assert report.mode == "full"
        assert report.reason == "changed rows infeasible"
        full = solve_optassign(problem, prefer="greedy").assignment
        assert report.assignment.tier.tobytes() == full.tier.tobytes()
        assert report.assignment.priced.tobytes() == full.priced.tobytes()


class TestOneScan:
    """The cache update writes what the change scan found, once."""

    @staticmethod
    def settled(solver, partitions, model, profiles):
        report = solver.solve(OptAssignProblem(partitions, model, profiles))
        for _ in range(4):
            partitions = [
                replace(p, current_tier=int(report.assignment.tier[i]))
                for i, p in enumerate(partitions)
            ]
            report = solver.solve(OptAssignProblem(partitions, model, profiles))
            if report.mode == "delta" and report.num_changed == 0:
                return partitions
        raise AssertionError("the cache did not settle")

    def test_a_codec_edit_is_remembered_on_an_aligned_instance(self):
        model = CostModel(azure_tier_catalog(), duration_months=6.0)
        profile = {"gzip": CompressionProfile("gzip", ratio=3.0, decompression_s_per_gb=0.5)}
        partitions = [
            DataPartition(f"p{i}", size_gb=10.0 + i, predicted_accesses=2.0 * i)
            for i in range(6)
        ]
        profiles = {p.name: profile for p in partitions}
        solver = DeltaSolver()
        partitions = self.settled(solver, partitions, model, profiles)
        partitions[3] = replace(partitions[3], current_codec="gzip")
        report = solver.solve(OptAssignProblem(partitions, model, profiles))
        assert report.mode == "delta" and report.num_changed == 1
        assert solver._codec[3] == "gzip"
        # The same instance again: nothing is left to re-solve.
        report = solver.solve(OptAssignProblem(partitions, model, profiles))
        assert report.mode == "delta" and report.num_changed == 0


# -- hints as rows -----------------------------------------------------------------

def tenant(name: str, kind: int) -> TenantSpec:
    rng = np.random.default_rng(kind)
    partitions = [
        DataPartition(
            f"{name}_d{i}",
            size_gb=float(rng.uniform(5.0, 80.0)),
            predicted_accesses=float(rng.uniform(0.0, 30.0)),
            current_tier=int(rng.integers(-1, 3)),
        )
        for i in range(3 + kind)
    ]
    return TenantSpec(
        name=name,
        partitions=partitions,
        policy=DriftTriggered(threshold=0.05),
        stream=iter(()),
        config=EngineConfig(horizon_months=3.0, reopt_mode="delta"),
    )


reads = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from([0.0, 1.0, 4.0, 25.0])), max_size=8
)


class TestRowHints:
    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        epochs=st.lists(st.lists(reads, min_size=4, max_size=4), min_size=2, max_size=6),
    )
    def test_fleet_hints_select_the_tagged_names(self, kinds, epochs):
        specs = [tenant(f"t{k}", kind) for k, kind in enumerate(kinds)]
        fleet = FleetScheduler(
            specs,
            azure_tier_catalog(),
            config=FleetConfig(engine=EngineConfig(horizon_months=3.0, reopt_mode="delta")),
        )
        seen = []
        solve_stacked = scheduler_module.solve_stacked
        delta_solve = fleet._delta.solve

        def recording_solve_stacked(stacked, *args):
            threshold = fleet.config.engine.delta_drift_threshold
            seen.append([stacked, fleet_hint_names(fleet, stacked, threshold), None])
            return solve_stacked(stacked, *args)

        def recording_delta_solve(problem, changed=None, **kwargs):
            seen[-1][2] = changed
            return delta_solve(problem, changed=changed, **kwargs)

        fleet._delta.solve = recording_delta_solve
        with mock.patch.object(scheduler_module, "solve_stacked", recording_solve_stacked):
            for epoch, per_tenant in enumerate(epochs):
                fleet.step_epoch(
                    {
                        spec.name: EpochBatch(
                            epoch=epoch,
                            events=tuple(
                                AccessEvent(
                                    epoch, spec.partitions[k % len(spec.partitions)].name, r
                                )
                                for k, r in picks
                            ),
                        )
                        for spec, picks in zip(specs, per_tenant)
                    }
                )
        assert seen
        for stacked, want, changed in seen:
            names = stacked.problem.partition_arrays().names
            rows = [] if changed is None else sorted(changed.tolist())
            assert len(set(rows)) == len(rows)
            assert {names[row] for row in rows} == want

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.integers(0, 4),
        epochs=st.lists(reads, min_size=2, max_size=8),
        profiled=st.booleans(),
    )
    def test_lone_engine_hints_are_its_rows(self, kind, epochs, profiled):
        spec = tenant("solo", kind)
        engine = OnlineTieringEngine(
            spec.partitions,
            azure_tier_catalog(),
            spec.policy,
            config=spec.config,
            profile_provider=(lambda epoch: {}) if profiled else None,
        )
        seen = []
        solve = DeltaSolver.solve

        def recording(solver, problem, changed=None, **kwargs):
            want = (
                set(problem.partition_names)
                if profiled
                else drifted_names(engine.policy, engine.config.delta_drift_threshold)
            )
            seen.append((problem, want, changed))
            return solve(solver, problem, changed=changed, **kwargs)

        with mock.patch.object(DeltaSolver, "solve", recording):
            for epoch, picks in enumerate(epochs):
                engine.step(
                    EpochBatch(
                        epoch=epoch,
                        events=tuple(
                            AccessEvent(epoch, spec.partitions[k % len(spec.partitions)].name, r)
                            for k, r in picks
                        ),
                    )
                )
        assert seen
        for problem, want, changed in seen:
            names = problem.partition_arrays().names
            assert names == engine._arrays.names
            if want is None:
                assert changed is None
                continue
            rows = [] if changed is None else sorted(changed.tolist())
            assert len(set(rows)) == len(rows)
            assert {names[row] for row in rows} == want


# -- why rows re-solve -------------------------------------------------------------

def reason_counts(metrics) -> dict[str, float]:
    counts = {}
    for name, labels, instrument in metrics.collect():
        if name == "optassign.delta.rows_by_reason":
            counts[dict(labels)["reason"]] = instrument.value
    return counts


def counter(metrics, wanted: str) -> float:
    return sum(
        instrument.value for name, _, instrument in metrics.collect() if name == wanted
    )


class TestResolveReasons:
    def test_reasons_add_up_to_the_rows_resolved(self):
        catalog = multi_cloud_catalog()
        model = CostModel(catalog, duration_months=6.0)
        profile = {"gzip": CompressionProfile("gzip", ratio=3.0, decompression_s_per_gb=0.5)}
        partitions = [
            DataPartition(
                f"p{i}",
                size_gb=10.0 + 7.0 * i,
                predicted_accesses=float(3 ** (i % 5)),
                latency_threshold_s=7200.0,
            )
            for i in range(12)
        ]
        profiles = {p.name: profile for p in partitions}
        solver = DeltaSolver(drift_threshold=0.1)

        def settle(partitions, report):
            return [
                replace(p, current_tier=int(report.assignment.tier[i]))
                for i, p in enumerate(partitions)
            ]

        with obs.observed() as handle:
            metrics = handle.metrics
            report = solver.solve(OptAssignProblem(partitions, model, profiles))
            assert reason_counts(metrics) == {"novel": 12}
            for _ in range(3):
                partitions = settle(partitions, report)
                report = solver.solve(OptAssignProblem(partitions, model, profiles))
            assert report.mode == "delta" and report.num_changed == 0
            before = reason_counts(metrics)

            # One row per reason, each also matching every later reason so
            # that only the first counts.
            on_tier = int(report.assignment.tier[3])
            edited = list(partitions)
            drift = lambda p: replace(p, predicted_accesses=p.predicted_accesses * 9 + 1)
            edited[0] = drift(replace(edited[0], size_gb=edited[0].size_gb + 1.0))
            edited[1] = drift(edited[1])
            edited[2] = drift(edited[2])  # hinted too
            grown = edited + [
                DataPartition("p_new", size_gb=5.0, predicted_accesses=1.0)
            ]
            solver.invalidate({"p4"})
            banned = [on_tier]
            slo = {"p5": 3600.0}
            problem = OptAssignProblem(
                grown,
                model,
                {**profiles, "p_new": profile},
                latency_slo_s=slo,
                banned_tiers=banned,
            )
            on_banned = {
                i
                for i in range(12)
                if int(report.assignment.tier[i]) == on_tier
            }
            report = solver.solve(problem, changed=[2, 4, 5, 12])
            assert report.mode == "delta"
            now = reason_counts(metrics)
            delta = {r: now.get(r, 0) - before.get(r, 0) for r in RESOLVE_REASONS}
            want_banned = len(on_banned - {4})
            assert delta["novel"] == 1  # p_new, though hinted too
            assert delta["forced"] == 1  # p4, though hinted too
            assert delta["banned_tier"] == want_banned
            assert delta["constraint"] == (0 if 5 in on_banned else 1)
            assert delta["structural"] == (0 if 0 in on_banned else 1)
            assert delta["hint"] == (0 if 2 in on_banned else 1)
            assert delta["drift"] == (0 if 1 in on_banned else 1)
            assert delta["full"] == 0
            assert report.num_changed == sum(delta.values())

            # A fallback re-solves the rows its detector pinned: "full".
            partitions = settle(grown, report)
            report = solver.solve(
                OptAssignProblem(partitions, model, {**profiles, "p_new": profile})
            )
            partitions = settle(partitions, report)
            solver.solve(OptAssignProblem(partitions, model, {**profiles, "p_new": profile}))
            before = reason_counts(metrics)
            partitions[7] = replace(partitions[7], latency_threshold_s=0.004)
            report = solver.solve(
                OptAssignProblem(partitions, model, {**profiles, "p_new": profile})
            )
            assert report.reason == "changed rows infeasible"
            now = reason_counts(metrics)
            delta = {r: now.get(r, 0) - before.get(r, 0) for r in RESOLVE_REASONS}
            assert delta["structural"] >= 1 and delta["full"] >= 1
            assert sum(delta.values()) == report.num_changed == 13

            assert sum(reason_counts(metrics).values()) == counter(
                metrics, "optassign.delta.rows_resolved"
            )
