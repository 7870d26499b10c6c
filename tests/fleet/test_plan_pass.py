"""One plan pass per fleet window against the per-tenant plan it replaced.

A fleet forecasts, builds and applies every firing tenant of a window in one
:class:`~repro.engine.WindowPlan` over its block's columns.  The reference
(``tests/oracles/plan.py``) is the per-tenant plan: each engine's
``forecast_monthly``, the object build of its instance, the oracle
``stack``, the same ``solve_stacked``, ``split_placements`` and the
per-partition scan.
Hypothesis drives two identical fleets over the same windows or epochs — one
through the plan pass, one through the reference — and requires, window by
window, bit-identical stacked instances (names, columns, maps and their
order, profile columns, tier mask, banned tiers), migration reports record
by record, records and bills, placements, residency clocks, each row's
recorded tier and codec, forecasts and policy baselines, tier usage, and
block prices equal to a placement compiled afresh.  Every engine keeps one
record of where its partitions live: its partitions stay as given
(``check_placement_record``), and a block built after a roster change holds
every surviving engine's record, clocks and prices as the block before it
did.  The draws cover full and delta mode, fleets of either ring width,
alpha and blend, pools with and without contention, new data, pinned
codecs, tenants with different scheme sets,
both timelines and chaos (an outage and its recovery, price and pool
shocks, a tenant leaving and one joining) and tenants banning different
tiers.  A second battery prices random placement changes through
a block against the per-partition scan.
"""

from __future__ import annotations

import copy
import struct
from contextlib import ExitStack
from dataclasses import asdict, astuple
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles.plan
from oracles.plan import check_placement_record, placement_record, plan_each_tenant
from oracles.results import scan_apply
from repro.chaos import (
    ChaosInjector,
    DisruptionSchedule,
    PoolShock,
    PriceShock,
    ProviderOutage,
    ProviderRecovery,
    TenantJoin,
    TenantLeave,
)
from repro.cloud import (
    AccessEvent,
    CloudStorageSimulator,
    CompressionProfile,
    DataPartition,
    NO_COMPRESSION_PROFILE,
    PlacementColumns,
    PlacementDecision,
    PoolSet,
    TimedEvent,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.engine import (
    DriftTriggered,
    EngineConfig,
    EpochBatch,
    OnlineTieringEngine,
    PeriodicReoptimize,
    SettleBlock,
    StaticOnce,
    StreamWindow,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.fleet import scheduler as scheduler_module

NAMES = ("p0", "p1", "p2", "p3", "p4", "p5")
READS = (0.0, 1.0, 2.5, 6.0, 20.0)
#: Per tenant kind: the schemes its profile tables offer (besides "none").
SCHEMES = {0: ("gzip",), 1: ("snappy", "zstd"), 2: ("gzip", "zstd")}
JOINER = "zeta"


def bits(value) -> bytes:
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value).tobytes()
    return struct.pack("<d", value)


def partitions(tenant: str, kind: int) -> list[DataPartition]:
    """Six partitions: new data, placed data and (for some kinds) data
    already compressed with a codec its profiles offer."""
    pinned = SCHEMES[kind][-1]
    return [
        DataPartition(
            name=f"{tenant}_{name}",
            size_gb=15.0 + 23.5 * i + 4.0 * kind,
            predicted_accesses=(30.0, 2.0, 0.0, 12.5, 80.0, 5.0)[i],
            latency_threshold_s=(7200.0, 60.0, float("inf"))[i % 3],
            current_tier=-1 if i % 3 == 0 else (i + kind) % 4,
            current_codec=pinned if kind and i == 4 else None,
            read_fraction=(1.0, 0.25, 0.6)[i % 3],
            pushdown_fraction=(0.0, 0.3)[i % 2],
        )
        for i, name in enumerate(NAMES)
    ]


def profiles(tenant: str, kind: int) -> dict:
    table = {}
    for i, name in enumerate(NAMES):
        row = {}
        for j, scheme in enumerate(SCHEMES[kind]):
            if (i + j) % 3 or scheme == SCHEMES[kind][-1]:
                row[scheme] = CompressionProfile(
                    scheme, ratio=1.5 + 0.75 * j + 0.1 * i, decompression_s_per_gb=0.2 + j
                )
        table[f"{tenant}_{name}"] = row
    return table


def make_policy(kind: str):
    if kind == "periodic":
        return PeriodicReoptimize(2)
    if kind == "drift":
        return DriftTriggered(threshold=0.15)
    return StaticOnce()


def engine_config(window_months, alpha, blend, mode):
    return EngineConfig(
        horizon_months=3.0,
        window_months=window_months,
        forecast_alpha=alpha,
        forecast_blend=blend,
        reopt_mode=mode,
    )


# One (window_months, forecast_alpha, forecast_blend) per fleet, and a
# policy and a scheme kind per tenant.
tenant_specs = st.tuples(
    st.sampled_from((2, 3)), st.sampled_from((0.4, 0.15)), st.sampled_from((0.6, 1.0))
).flatmap(
    lambda config: st.lists(
        st.tuples(
            st.sampled_from(("periodic", "drift", "static")),
            st.sampled_from(sorted(SCHEMES)),
        ).map(lambda tenant: (*config, *tenant)),
        min_size=1,
        max_size=4,
    )
)
events = st.lists(
    st.tuples(st.integers(0, len(NAMES) - 1), st.sampled_from(READS)), max_size=6
)


@st.composite
def fleet_runs(draw):
    tenants = draw(tenant_specs)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from((0.25, 0.5, 1.0)),
                st.sampled_from(("time", "drift")),
                st.lists(events, min_size=len(tenants) + 1, max_size=len(tenants) + 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    # An aws_s3 outage strands the residency pins of kind-1 tenants, whose
    # affinity is then lifted; a gcp_gcs one only evacuates.  "ban" bans
    # gcp_gcs for the first tenant alone, so the tenants of one window hold
    # different banned sets.
    chaos = draw(
        st.sets(
            st.sampled_from(
                ("outage:gcp_gcs", "outage:aws_s3", "price", "pool", "leave", "join", "ban")
            ),
            max_size=5,
        )
    )
    mode = draw(st.sampled_from(("full", "delta")))
    pools = draw(st.sampled_from((None, "slack", "tight")))
    dense = draw(st.booleans())
    return tenants, steps, chaos, mode, pools, dense


def build_fleet(tenants, chaos_kinds, mode, pools):
    """A fleet of ``tenants`` — ``(window_months, alpha, blend, policy,
    kind)`` each, one ``(window_months, alpha, blend)`` for all — whose
    joiner runs the same config."""
    catalog = multi_cloud_catalog()
    names = [f"t{k}" for k in range(len(tenants))]
    config = engine_config(*tenants[0][:3], mode)
    specs = [
        TenantSpec(
            name=name,
            partitions=partitions(name, kind),
            policy=make_policy(policy),
            stream=iter(()),
            profiles=profiles(name, kind),
            config=engine_config(window_months, alpha, blend, mode),
            provider_affinity={f"{name}_p1": "aws_s3"} if kind == 1 else None,
            latency_slo_s={f"{name}_p2": 30.0} if kind == 2 else None,
        )
        for name, (window_months, alpha, blend, policy, kind) in zip(names, tenants)
    ]
    pool_set = None
    if pools is not None:
        total = sum(p.size_gb for spec in specs for p in spec.partitions)
        share = 2.0 if pools == "slack" else 0.15
        pool_set = PoolSet.per_provider(
            catalog, {provider: share * total for provider in catalog.provider_names}
        )
    events_ = []
    for kind in sorted(chaos_kinds):
        if kind.startswith("outage:"):
            provider = kind.partition(":")[2]
            events_ += [
                ProviderOutage(epoch=1, provider=provider),
                ProviderRecovery(epoch=3, provider=provider),
            ]
    if "price" in chaos_kinds:
        events_.append(PriceShock(epoch=2, provider="aws_s3", storage_factor=1.8))
    if "pool" in chaos_kinds and pool_set is not None:
        events_.append(PoolShock(epoch=2, pool="azure_blob", capacity_factor=0.5))
    if "leave" in chaos_kinds and len(names) > 1:
        events_.append(TenantLeave(epoch=2, tenant=names[0]))
    if "join" in chaos_kinds:
        events_.append(
            TenantJoin(
                epoch=1,
                spec=TenantSpec(
                    name=JOINER,
                    partitions=partitions(JOINER, 2),
                    policy=PeriodicReoptimize(1),
                    stream=iter(()),
                    profiles=profiles(JOINER, 2),
                    config=config,
                ),
            )
        )
    chaos = ChaosInjector(DisruptionSchedule(events_)) if events_ else None
    scheduler = FleetScheduler(
        specs,
        catalog,
        pools=pool_set,
        config=FleetConfig(engine=config),
        chaos=chaos,
    )
    if "ban" in chaos_kinds:
        scheduler.engines[names[0]].set_banned_tiers(catalog.tier_indices_of("gcp_gcs"))
    return scheduler


def record_stacked(fleets, stack: ExitStack) -> list[list]:
    """Keep every stacked instance each fleet solves, while ``stack`` is
    open: the fleet's ``solve_stacked`` and the reference plan's are
    wrapped, and each call goes to the fleet whose engines it solves."""
    seen = [[] for _ in fleets]

    def recording(solve):
        def recorded(stacked, engines, *args):
            (k,) = [
                k for k, fleet in enumerate(fleets) if engines[0] in fleet.engines.values()
            ]
            seen[k].append(stacked)
            return solve(stacked, engines, *args)

        return recorded

    for module in (scheduler_module, oracles.plan):
        stack.enter_context(
            mock.patch.object(module, "solve_stacked", recording(module.solve_stacked))
        )
    return seen


def record_migrations(scheduler) -> list:
    """Keep every window's migration reports."""
    seen = []
    reoptimize = scheduler._reoptimize

    def recording(*args):
        migrations = reoptimize(*args)
        seen.append(migrations)
        return migrations

    scheduler._reoptimize = recording
    return seen


def stacked_view(stacked) -> dict:
    problem = stacked.problem
    arrays = problem.partition_arrays()
    schemes, ratio, decompression, available = problem._profile_columns()
    mask = problem._tier_mask()
    model = problem.cost_model
    return {
        "names": arrays.names,
        "numeric": [
            bits(getattr(arrays, column))
            for column in (
                "size_gb",
                "predicted_accesses",
                "latency_threshold_s",
                "current_tier",
                "read_fraction",
                "pushdown_fraction",
            )
        ],
        "dtypes": [arrays.current_tier.dtype, arrays.size_gb.dtype],
        "codecs": arrays.current_codec,
        "file_ids": arrays.file_ids,
        "profiles": list(problem._profiles.items()),
        "slo": list(problem._latency_slo.items()),
        "affinity": list(problem._provider_affinity.items()),
        "banned": problem.banned_tiers,
        "columns": (schemes, bits(ratio), bits(decompression), bits(available)),
        "mask": None if mask is None else (mask.shape, bits(mask)),
        # The plan codes its mask from the block's codec codes; the oracle's
        # instance codes its codec names.
        "codec_mask": (problem._codec_mask().shape, bits(problem._codec_mask())),
        "model": (model.duration_months, model.compute_cost_per_s, model.weights),
        "tenants": stacked.tenants,
        "spans": stacked.tenant_spans,
    }


def record_bits(record) -> tuple:
    return tuple(
        bits(value) if isinstance(value, float) else (type(value), value)
        for value in astuple(record)
    )


def migration_view(migrations: dict) -> dict:
    return {
        name: (
            report.epoch,
            [record_bits(move) for move in report.moves],
            report.num_moved,
            bits(report.moved_gb),
            bits(report.migration_cost),
            bits(report.egress_cost),
            bits(report.early_deletion_penalty),
        )
        for name, report in migrations.items()
    }


def forecast_view(forecast):
    if forecast is None:
        return None
    return forecast.names, bits(forecast.dense())


def engine_view(engine) -> dict:
    placement = engine.placement
    policy = engine.policy
    baseline = getattr(policy, "_predicted", None)
    return {
        "placement": None
        if placement is None
        else (dict(placement), bits(placement.ratio), bits(placement.decompression_s_per_gb)),
        "months_in_tier": bits(engine.months_in_tier),
        "record": placement_record(engine),
        "pending": forecast_view(engine._pending_forecast),
        "applied": forecast_view(engine.last_applied_forecast),
        "baseline": None if baseline is None else dict(baseline),
        "usage": bits(engine.tier_usage_gb()),
    }


def fleet_view(scheduler) -> dict:
    return {name: engine_view(engine) for name, engine in scheduler.engines.items()}


PRICES = (
    "stored_gb",
    "storage_per_month",
    "read_cost_per_read",
    "decompression_cost_per_read",
    "latency_s",
    "violates_sla",
)


def block_prices(block, k: int) -> dict:
    """Engine ``k``'s tier and compiled price columns in ``block``, compiled
    first when they are stale."""
    stale = block._stale([k])
    if stale:
        block._compile(stale)
    rows = block._ranges[k]
    return {
        "tier_index": bits(block.tier[rows]),
        **{field: bits(column[rows]) for field, column in zip(PRICES, block._prices)},
    }


def check_prices(scheduler) -> None:
    """Every engine's block prices equal its placement compiled afresh."""
    for engine in scheduler.engines.values():
        if engine.placement is None:
            continue
        fresh = CloudStorageSimulator(
            engine.tiers, engine.config.compute_cost_per_s
        ).compile_placement(engine._arrays, dict(engine.placement))
        assert block_prices(engine._block, engine._block_k) == {
            field: bits(getattr(fresh, field)) for field in ("tier_index", *PRICES)
        }


def guard_block_builds(scheduler) -> None:
    """Check every block ``scheduler`` builds against the blocks that held
    its engines before: each engine's placement record, codecs, clocks and
    prices carry over bit for bit."""
    build = scheduler._fleet_block

    def block():
        before = [(engine._block, engine._block_k) for engine in scheduler.engines.values()]
        new = build()
        for (old, j), engine in zip(before, scheduler.engines.values()):
            if old is not None and old is not new:
                k = engine._block_k
                theirs, ours = old._ranges[j], new._ranges[k]
                assert (new._held[k], new.read_placement(k)) == (
                    old._held[j],
                    old.read_placement(j),
                )
                assert [new._schemes[c] for c in new.scheme[ours].tolist()] == [
                    old._schemes[c] for c in old.scheme[theirs].tolist()
                ]
                assert new._codecs(ours) == old._codecs(theirs)
                for column in ("tier", "ratio", "decompression", "placed", "months_in_tier"):
                    assert bits(getattr(new, column)[ours]) == bits(
                        getattr(old, column)[theirs]
                    ), column
                if new._held[k]:
                    assert block_prices(new, k) == block_prices(old, j)
        return new

    scheduler._fleet_block = block


def steps_of(names, steps, dense):
    """Per-step tenant inputs: epoch batches (dense) or stream windows."""
    start = 0.0
    for index, (duration, cause, per_tenant) in enumerate(steps):
        if dense:
            yield {
                name: EpochBatch(
                    epoch=index,
                    events=tuple(
                        AccessEvent(index, f"{name}_{NAMES[k]}", reads)
                        for k, reads in picks
                    ),
                )
                for name, picks in zip(names, per_tenant)
            }
            continue
        end = start + duration
        yield {
            name: StreamWindow(
                index=index,
                start_month=start,
                end_month=end,
                events=tuple(
                    TimedEvent(start, f"{name}_{NAMES[k]}", reads) for k, reads in picks
                ),
                cause=cause,
            )
            for name, picks in zip(names, per_tenant)
        }
        start = end


def records_view(report) -> dict:
    return {
        name: [
            {k: v for k, v in asdict(record).items() if k != "wall_clock_s"}
            for record in tenant.records
        ]
        for name, tenant in report.tenant_reports.items()
    }


class TestPlanPassMatchesEachTenant:
    @settings(max_examples=200, deadline=None)
    @given(run=fleet_runs())
    def test_instances_moves_and_state(self, run):
        tenants, steps, chaos_kinds, mode, pools, dense = run
        plan = build_fleet(tenants, chaos_kinds, mode, pools)
        each = build_fleet(tenants, chaos_kinds, mode, pools)
        plan_each_tenant(each)
        fleets = (plan, each)
        given = {
            name: partitions(name, kind)
            for name, kind in [
                *((f"t{k}", tenant[4]) for k, tenant in enumerate(tenants)),
                (JOINER, 2),
            ]
        }
        for fleet in fleets:
            guard_block_builds(fleet)
        with ExitStack() as patches:
            stacked = record_stacked(fleets, patches)
            migrations = [record_migrations(fleet) for fleet in fleets]
            names = [f"t{k}" for k in range(len(tenants))] + [JOINER]
            for inputs in steps_of(names, steps, dense):
                outcomes = []
                for fleet in fleets:
                    live = {name: value for name, value in inputs.items() if name in fleet.engines}
                    try:
                        if dense:
                            fleet.step_epoch(live)
                        else:
                            fleet.step_window(live)
                    except Exception as error:  # both fleets must fail alike
                        outcomes.append(repr(error))
                    else:
                        outcomes.append(None)
                assert outcomes[0] == outcomes[1]
                if outcomes[0] is not None:
                    return
                assert [stacked_view(s) for s in stacked[0]] == [
                    stacked_view(s) for s in stacked[1]
                ]
                assert [migration_view(m) for m in migrations[0]] == [
                    migration_view(m) for m in migrations[1]
                ]
                assert fleet_view(plan) == fleet_view(each)
                check_prices(plan)
                for fleet in fleets:
                    for name, engine in fleet.engines.items():
                        check_placement_record(engine, given[name])
            got, want = plan.report(), each.report()
            assert records_view(got) == records_view(want)
            assert bits(got.total_bill) == bits(want.total_bill)
            assert [
                (record.used_gb, record.capacity_gb, record.num_reoptimized)
                for record in got.pool_usage
            ] == [
                (record.used_gb, record.capacity_gb, record.num_reoptimized)
                for record in want.pool_usage
            ]
            if plan.chaos is not None:
                assert [
                    (r.epoch, r.events, r.actions, r.slo_violations, bits(r.bill_impact_cents))
                    for r in plan.chaos.reports
                ] == [
                    (r.epoch, r.events, r.actions, r.slo_violations, bits(r.bill_impact_cents))
                    for r in each.chaos.reports
                ]


# -- the pricing battery -----------------------------------------------------------

CATALOGS = {"azure": azure_tier_catalog, "multi": multi_cloud_catalog}
PROFILE_SCHEMES = ("none", "gzip", "snappy")


@st.composite
def block_changes(draw):
    """Engines with random standing placements, clocks and bans, and a
    random new placement for some of them."""
    catalog = draw(st.sampled_from(sorted(CATALOGS)))
    tiers = len(CATALOGS[catalog]())
    engines = []
    for e in range(draw(st.integers(1, 3))):
        count = draw(st.integers(1, 5))
        names = [f"e{e}p{i}" for i in range(count)]
        table = {
            name: {
                "none": NO_COMPRESSION_PROFILE,
                "gzip": CompressionProfile("gzip", draw(st.sampled_from((2.0, 3.5))), 0.5),
                "snappy": CompressionProfile("snappy", draw(st.floats(1.1, 3.0)), 0.1),
            }
            for name in names
        }
        parts = [
            DataPartition(
                name=name,
                size_gb=draw(st.sampled_from((1.0, 7.0, 12.5, 40.0))),
                predicted_accesses=1.0,
                current_tier=draw(st.integers(-1, tiers - 1)),
                current_codec=draw(st.sampled_from((None, "gzip", "snappy"))),
            )
            for name in names
        ]

        def decision(name):
            return PlacementDecision(
                draw(st.integers(0, tiers - 1)),
                table[name][draw(st.sampled_from(PROFILE_SCHEMES))],
            )

        standing = draw(st.sampled_from(("none", "partial", "full")))
        old = None
        if standing != "none":
            old = {
                name: decision(name)
                for name in names
                if standing == "full" or draw(st.booleans())
            }
        new = {name: decision(name) for name in names}
        clocks = [draw(st.sampled_from((0.0, 0.5, 2.0, 12.0, float("inf")))) for _ in names]
        banned = draw(st.sampled_from((frozenset(), frozenset({0}), frozenset({1, 3}))))
        engines.append((parts, table, old, new, clocks, banned))
    applied = draw(
        st.lists(st.integers(0, len(engines) - 1), min_size=1, unique=True).map(sorted)
    )
    return catalog, engines, applied


class TestBlockPricingMatchesTheScan:
    @settings(max_examples=150, deadline=None)
    @given(case=block_changes(), epoch=st.integers(0, 4))
    def test_apply_equals_the_per_partition_scan(self, case, epoch):
        catalog_name, specs, applied = case
        catalog = CATALOGS[catalog_name]()
        engines, wants = [], []
        for parts, table, old, new, clocks, banned in specs:
            engine = OnlineTieringEngine(parts, catalog, StaticOnce(), profiles=table)
            engine.months_in_tier[:] = clocks
            engine.set_banned_tiers(banned)
            if old is not None:
                engine.placement = old
            engines.append(engine)
            wants.append(
                (copy.deepcopy(engine._partitions), dict(zip(engine._arrays.names, clocks)))
            )
        block = SettleBlock(engines)
        ks = applied
        rows = block.rows(ks)
        news = [PlacementColumns.from_mapping(engines[k]._arrays.names, specs[k][3]) for k in ks]
        schemes = tuple(sorted({s for columns in news for s in columns.schemes}))
        index = {scheme: code for code, scheme in enumerate(schemes)}
        placement = PlacementColumns(
            (),
            np.concatenate([columns.tier for columns in news]),
            np.concatenate(
                [
                    np.array([index[columns.schemes[c]] for c in columns.scheme.tolist()])
                    for columns in news
                ]
            ),
            schemes,
            np.concatenate([columns.ratio for columns in news]),
            np.concatenate([columns.decompression_s_per_gb for columns in news]),
            {},
        )
        got = block.apply(epoch, ks, rows, placement, [specs[k][1] for k in ks])
        for k, report in zip(ks, got):
            parts, months = wants[k]
            old = specs[k][2]
            want = scan_apply(
                catalog,
                parts,
                old,
                specs[k][3],
                months,
                epoch=epoch,
                waive_early_deletion_tiers=specs[k][5] or None,
            )
            engine = engines[k]
            assert [record_bits(m) for m in report.moves] == [
                record_bits(m) for m in want.moves
            ]
            for total in ("moved_gb", "migration_cost", "egress_cost", "early_deletion_penalty"):
                assert bits(getattr(report, total)) == bits(getattr(want, total)), total
            # A moved row is recorded where the scan moves its partition;
            # every row lives where the new placement puts it.
            tiers, codecs, _ = placement_record(engine)
            for move in want.moves:
                row = engine._arrays.names.index(move.partition)
                moved = parts[row]
                assert (tiers[row], codecs[row]) == (moved.current_tier, moved.current_codec)
            assert engine.months_in_tier.tolist() == [
                months[name] for name in engine._arrays.names
            ]
            assert dict(engine.placement) == specs[k][3]
            check_placement_record(engine, specs[k][0])
        for k, engine in enumerate(engines):
            if engine.placement is not None and not engine.placement.unplaced():
                fresh = engine.simulator.compile_placement(
                    engine._arrays, dict(engine.placement)
                )
                prices = block_prices(block, k)
                assert prices["storage_per_month"] == bits(fresh.storage_per_month)
                assert prices["read_cost_per_read"] == bits(fresh.read_cost_per_read)

    def test_evacuation_charges_read_the_columns(self):
        catalog = multi_cloud_catalog()
        parts = [DataPartition(f"p{i}", size_gb=10.0 + i, predicted_accesses=1.0) for i in range(4)]
        engine = OnlineTieringEngine(parts, catalog, StaticOnce())
        engine.placement = {p.name: PlacementDecision(i) for i, p in enumerate(parts)}
        block = SettleBlock([engine])
        placement = PlacementColumns.from_mapping(
            engine._arrays.names, {p.name: PlacementDecision(5) for p in parts}
        )
        (report,) = block.apply(0, [0], block.rows([0]), placement, [{}])
        evacuated = {0, 2}
        want = float(
            sum(m.cost + m.egress_cost for m in report.moves if m.from_tier in evacuated)
        )
        assert report.evacuation_cost(evacuated) == want
        assert report.evacuation_cost({9}) is None


class TestKeptPlacements:
    def test_a_kept_placement_survives_the_next_plan(self):
        """A fleet engine's ``placement`` holds its own columns: a later plan
        that re-places the tenant, with a scheme new to its block, leaves a
        placement kept from before as it was."""
        table = {
            partition.name: {"none": NO_COMPRESSION_PROFILE}
            for partition in partitions("t0", 0)
        }
        config = engine_config(3, 0.4, 0.6, "full")
        spec = TenantSpec(
            name="t0",
            partitions=partitions("t0", 0),
            policy=PeriodicReoptimize(1),
            stream=iter(()),
            profiles=table,
            config=config,
        )
        fleet = FleetScheduler(
            [spec], multi_cloud_catalog(), config=FleetConfig(engine=config)
        )
        windows = steps_of(
            ["t0"], [(0.5, "time", [[(0, 2.5)]]), (0.5, "time", [[(1, 20.0)]])], False
        )
        fleet.step_window(next(windows))
        engine = fleet.engines["t0"]
        kept = engine.placement
        want = dict(kept)
        # An in-place edit offers the uncompressed data a far better codec:
        # the next plan moves it there, a scheme the block had not seen.
        for row in table.values():
            row["lz4"] = CompressionProfile("lz4", ratio=50.0, decompression_s_per_gb=0.01)
        fleet.step_window(next(windows))
        assert engine.placement is not kept
        assert "lz4" in {d.profile.scheme for d in engine.placement.values()}
        assert dict(kept) == want
