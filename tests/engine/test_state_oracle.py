"""The engine's columnar per-partition state against the name-keyed oracles.

Settling, forecasting and drift scoring run on numpy columns in partition
row order.  ``tests/oracles/engine_state.py`` keeps the dict-keyed
implementations they replaced; every float here must match them bit for bit
— forecasts, drift scores, drifted-partition hints, window series, lifetime
reads and residency clocks — over silent partitions, gaps wider than the
window, zero-width windows, fractional rates, warm caller-supplied
forecasters and dict inputs.  A forecast's window sum is one rule on every
Python version: left to right from 0.0 (``window_sums``; the oracle's
``left_to_right_sum``), which is Python 3.11's built-in ``sum``.  Rows such
as ``[1e16, 1.0, -1e16]`` sum differently left to right and compensated,
and nine entries differently left to right and in numpy's blocks of eight,
so a compensated sum (the built-in of Python 3.12 and later) or a numpy sum
standing in for the rule fails here on every version.  The drift totals
keep the built-in ``sum`` of the running Python, in the oracle as in the
library.
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud import AccessEvent, DataPartition, TimedEvent, azure_tier_catalog
from repro.core.access_predict import WindowedAccessForecaster
from repro.core.access_predict.forecast import window_sums
from repro.engine import (
    DriftTrigger,
    DriftTriggered,
    EngineConfig,
    EpochBatch,
    FeatureStore,
    OnlineTieringEngine,
    RateColumns,
    StreamWindow,
    drift_score,
    partition_drift_scores,
    windowed,
)
from oracles.engine_state import (
    DictForecaster,
    ScalarFeatureStore,
    dict_drift_score,
    dict_partition_drift_scores,
    left_to_right_sum,
)
from oracles.delta import row_hint_names
from oracles.plan import reference_forecast

NAMES = tuple(f"p{i}" for i in range(10))
# Left to right it sums to 0.0; the compensated built-in of Python 3.12+
# gives 1.0.
SUMMATION_TRAP = (1e16, 1.0, -1e16)
# Left to right it sums to 0.0; numpy's blocked sum (eight entries and up)
# and the compensated built-in of Python 3.12+ both give 7.0.
BLOCKED_TRAP = (1e16,) + (1.0,) * 7 + (-1e16,)

rates = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0, 1e16]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)
signed = st.one_of(rates, st.sampled_from(SUMMATION_TRAP))
rate_maps = st.dictionaries(st.sampled_from(NAMES), rates, max_size=len(NAMES))
signed_maps = st.dictionaries(st.sampled_from(NAMES), signed, max_size=len(NAMES))


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def map_bits(mapping: Mapping[str, float]) -> dict[str, bytes]:
    return {name: bits(value) for name, value in mapping.items()}


@st.composite
def rate_inputs(draw, values=rate_maps):
    """A rate mapping as a dict or as columns over a wider row space."""
    mapping = draw(values)
    if draw(st.booleans()):
        return mapping
    extra = [name for name in ("x", "y") if draw(st.booleans())]
    space = draw(st.permutations(list(mapping) + extra))
    return RateColumns.from_mapping(space, mapping)


@st.composite
def engine_like_pair(draw):
    """Columns on one row space: a full forecast and a window's rows read."""
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    predicted = np.array(draw(st.lists(signed, min_size=len(names), max_size=len(names))))
    touched = draw(st.permutations(range(len(names))))[: draw(st.integers(0, len(names)))]
    observed = np.array(draw(st.lists(rates, min_size=len(touched), max_size=len(touched))))
    return (
        RateColumns(names, predicted),
        RateColumns(names, observed, np.array(touched, dtype=np.intp)),
    )


class TestDriftScores:
    @settings(max_examples=200, deadline=None)
    @given(predicted=rate_inputs(signed_maps), observed=rate_inputs())
    def test_mixed_inputs(self, predicted, observed):
        want = dict_drift_score(dict(predicted), dict(observed))
        assert bits(drift_score(predicted, observed)) == bits(want)
        assert map_bits(partition_drift_scores(predicted, observed)) == map_bits(
            dict_partition_drift_scores(dict(predicted), dict(observed))
        )

    @settings(max_examples=150, deadline=None)
    @given(pair=engine_like_pair())
    def test_columns_on_one_row_space(self, pair):
        predicted, observed = pair
        want = dict_drift_score(dict(predicted), dict(observed))
        assert bits(drift_score(predicted, observed)) == bits(want)
        assert map_bits(partition_drift_scores(predicted, observed)) == map_bits(
            dict_partition_drift_scores(dict(predicted), dict(observed))
        )

    def test_totals_keep_the_built_in_sum(self):
        for trap in (SUMMATION_TRAP, BLOCKED_TRAP):
            names = tuple(f"r{i}" for i in range(len(trap) + 1))
            predicted = RateColumns(names, np.array(trap + (0.0,)))
            observed = RateColumns(
                names, np.array([2.0]), np.array([len(trap)], dtype=np.intp)
            )
            want = dict_drift_score(dict(predicted), dict(observed))
            assert bits(drift_score(predicted, observed)) == bits(want)
            assert bits(drift_score(dict(predicted), observed)) == bits(want)
            assert bits(drift_score(observed, predicted)) == bits(
                dict_drift_score(dict(observed), dict(predicted))
            )

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.booleans(), rate_inputs(), st.sampled_from([0.05, 0.3, 0.9])),
            min_size=1,
            max_size=8,
        ),
        threshold=st.sampled_from([0.1, 0.4, 1.0]),
    )
    def test_drift_triggered_policy(self, steps, threshold):
        policy = DriftTriggered(threshold=threshold)
        predicted = scored = None
        for epoch, (reoptimize, rates_seen, hint) in enumerate(steps):
            if reoptimize or predicted is None:
                policy.notify_reoptimized(epoch, rates_seen)
                predicted = dict(rates_seen)
                continue
            policy.should_reoptimize(epoch, rates_seen)
            scored = dict_partition_drift_scores(predicted, dict(rates_seen))
            want = dict_drift_score(predicted, dict(rates_seen))
            assert bits(policy.last_score) == bits(want)
            assert row_hint_names(policy, hint) == (
                {name for name, score in scored.items() if score > hint}
                if scored
                else None
            )
        if scored is None:
            assert policy.drifted_rows(0.1) is None

    @settings(max_examples=60, deadline=None)
    @given(
        baseline=rate_maps.filter(bool),
        picks=st.lists(st.integers(0, len(NAMES) - 1), min_size=1, max_size=300),
        reads=st.sampled_from([1.0, 0.5, 2.25]),
    )
    def test_drift_trigger_cuts_alike_on_dict_and_column_baselines(
        self, baseline, picks, reads
    ):
        events = [
            TimedEvent(t=0.01 * k, partition=NAMES[pick], reads=reads)
            for k, pick in enumerate(picks)
        ]
        columns = RateColumns.from_mapping(NAMES, baseline)
        runs = []
        for source in (baseline, columns):
            trigger = DriftTrigger(
                0.3, min_width_months=0.02, check_every=4, baseline_provider=lambda s=source: s
            )
            cuts = [
                (window.end_month, window.cause, len(window.events))
                for window in windowed(events, trigger)
            ]
            runs.append((cuts, trigger.last_score))
        assert runs[0] == runs[1]


@st.composite
def window_matrices(draw):
    rows = draw(st.integers(1, 5))
    months = draw(st.integers(1, 10))
    values = draw(st.lists(signed, min_size=rows * months, max_size=rows * months))
    return np.array(values, dtype=np.float64).reshape(rows, months)


# Entries of summed rows: the traps' entries, signed zeros and magnitudes
# far apart, so that summing in any other order shows.
sum_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 0.1, 3e-300, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def summed_windows(draw):
    """A window 1 to 12 months wide (numpy blocks rows of eight and more)
    whose rows are drawn entries, all-zero rows or rows led by -0.0."""
    width = draw(st.integers(1, 12))
    entries = st.lists(sum_entries, min_size=width, max_size=width)
    row = st.one_of(
        entries,
        st.sampled_from([[0.0] * width, [-0.0] * width]),
        entries.map(lambda values: [-0.0, *values[1:]]),
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=6)), dtype=np.float64)


class TestForecaster:
    @settings(max_examples=200, deadline=None)
    @given(window=summed_windows())
    @example(window=np.array([SUMMATION_TRAP, SUMMATION_TRAP[::-1]]))
    @example(window=np.array([BLOCKED_TRAP, BLOCKED_TRAP[::-1]]))
    @example(window=np.array([[-0.0] * 9, [-0.0] + [0.0] * 8, [0.0] * 9]))
    def test_window_sums_are_the_left_to_right_rule(self, window):
        want = [left_to_right_sum(row) for row in window.tolist()]
        assert [bits(v) for v in window_sums(window).tolist()] == [bits(v) for v in want]
        # With blend 0 a forecast is each row's window mean alone, through
        # the rows and through the names, whole and cut short.
        names = [f"r{k}" for k in range(len(window))]
        fast = WindowedAccessForecaster(blend=0.0)
        oracle = DictForecaster(blend=0.0)
        for forecaster in (fast, oracle):
            forecaster.seed(dict.fromkeys(names, 0.0))
        series = dict(zip(names, map(tuple, window.tolist())))
        got = fast.forecast_rows(fast.rows(names), window)
        assert [bits(v) for v in got.tolist()] == list(
            map_bits(oracle.forecast_monthly(names, series)).values()
        )
        ragged = {name: series[name][: 1 + k] for k, name in enumerate(names)}
        for window_series in (series, ragged):
            assert map_bits(fast.forecast_monthly(names, window_series)) == map_bits(
                oracle.forecast_monthly(names, window_series)
            )

    def test_window_mean_of_the_summation_traps(self):
        # With blend 0 the forecast is each row's window mean alone.
        forecaster = WindowedAccessForecaster(blend=0.0)
        for trap in (SUMMATION_TRAP, BLOCKED_TRAP):
            matrix = np.array([trap, trap[::-1]])
            got = forecaster.forecast_rows(np.zeros(2, dtype=np.intp), matrix)
            want = [
                left_to_right_sum(trap) / len(trap),
                left_to_right_sum(trap[::-1]) / len(trap),
            ]
            assert [bits(v) for v in got.tolist()] == [bits(v) for v in want]

    @settings(max_examples=120, deadline=None)
    @given(
        alpha=st.sampled_from([0.4, 0.3, 1.0, 0.05]),
        blend=st.sampled_from([0.6, 0.0, 1.0, 0.25]),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("seed"), rate_maps, st.integers(-3, 4)),
                st.tuples(st.just("update"), rate_maps, st.integers(1, 12)),
                st.tuples(st.just("forecast"), window_matrices(), st.integers(-3, 40)),
            ),
            max_size=10,
        ),
    )
    def test_matches_the_dict_forecaster(self, alpha, blend, ops):
        fast = WindowedAccessForecaster(alpha=alpha, blend=blend)
        oracle = DictForecaster(alpha=alpha, blend=blend)
        epoch = -1
        for kind, payload, number in ops:
            if kind == "seed":
                fast.seed(payload, epoch=number)
                oracle.seed(payload, epoch=number)
            elif kind == "update":
                epoch += number
                fast.update(epoch, payload)
                oracle.update(epoch, payload)
            else:
                names = [name for name in NAMES if name in oracle][: len(payload)]
                series = dict(zip(names, map(tuple, payload.tolist())))
                want = oracle.forecast_monthly(names, series, epoch=number)
                got = fast.forecast_rows(fast.rows(names), payload[: len(names)], epoch=number)
                assert [bits(v) for v in got.tolist()] == [bits(want[n]) for n in names]
            probe = list(NAMES) + ["ghost"]
            for through in (None, epoch, epoch + 3):
                assert map_bits(fast.forecast_monthly(probe, epoch=through)) == map_bits(
                    oracle.forecast_monthly(probe, epoch=through)
                )
            series = {name: SUMMATION_TRAP[: 1 + i % 3] for i, name in enumerate(NAMES)}
            series["p0"] = ()
            assert map_bits(fast.forecast_monthly(probe, series)) == map_bits(
                oracle.forecast_monthly(probe, series)
            )
            for name in probe:
                assert (name in fast) == (name in oracle)


class TestFeatureStore:
    @settings(max_examples=100, deadline=None)
    @given(
        window=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["counts", "rows", "accumulate", "batch"]),
                st.integers(0, 7),
                rate_maps,
                st.lists(st.tuples(st.sampled_from(NAMES), rates), max_size=6),
            ),
            max_size=10,
        ),
    )
    def test_matches_the_scalar_store(self, window, ops):
        ring = FeatureStore(window_months=window, initial_capacity=2)
        scalar = ScalarFeatureStore(window_months=window)
        for kind, gap, counts, events in ops:
            epoch = max(ring.current_epoch + gap, 0)
            if kind != "accumulate":
                epoch = max(epoch, ring.current_epoch + 1)
            if kind == "accumulate":
                ring.accumulate(epoch, counts)
                scalar.accumulate(epoch, counts)
            elif kind == "batch":
                batch = EpochBatch(
                    epoch=epoch,
                    events=tuple(AccessEvent(epoch, name, reads) for name, reads in events),
                )
                ring.observe(batch)
                scalar.observe(batch)
            elif kind == "rows":
                ring.observe_rows(
                    epoch, ring.register(counts), np.array(list(counts.values()))
                )
                scalar.observe_counts(epoch, counts)
            else:
                ring.observe_counts(epoch, counts)
                scalar.observe_counts(epoch, counts)
            assert ring.current_epoch == scalar.current_epoch
            assert ring.tracked_partitions() == scalar.tracked_partitions()
            names = list(NAMES) + ["ghost"]
            matrix = ring.window_matrix(ring.register(NAMES)).tolist()
            for row, name in enumerate(names):
                want = scalar.window_series(name)
                assert [bits(v) for v in ring.window_series(name)] == [bits(v) for v in want]
                if row < len(NAMES):
                    assert [bits(v) for v in matrix[row]] == [bits(v) for v in want]
                assert bits(ring.lifetime_reads(name)) == bits(scalar.lifetime_reads(name))
                assert ring.epochs_since_access(name) == scalar.epochs_since_access(name)


PRIORS = (12.0, 0.5, 0.0, 3.25, 40.0)


def partitions() -> list[DataPartition]:
    return [
        DataPartition(
            name=f"p{i}",
            size_gb=10.0 + 7.5 * i,
            predicted_accesses=prior,
            current_tier=-1 if i % 2 else 0,
        )
        for i, prior in enumerate(PRIORS)
    ]


def warm_pair(alpha: float, blend: float):
    """The same caller-supplied warm state in both forecasters: a name the
    engine does not know first, so the engine's rows are not 0..n-1."""
    fast = WindowedAccessForecaster(alpha=alpha, blend=blend)
    oracle = DictForecaster(alpha=alpha, blend=blend)
    for forecaster in (fast, oracle):
        forecaster.seed({"elsewhere": 5.0, "p3": 80.0}, epoch=-6)
        forecaster.update(-4, {"p1": 2.5, "elsewhere": 1.0})
    return fast, oracle


windows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.25, 0.7, 1.0]),
        st.lists(
            st.tuples(st.integers(0, len(PRIORS) - 1), st.sampled_from([1.0, 0.5, 2.25, 3.0])),
            max_size=12,
        ),
        st.sampled_from(["time", "count", "drift"]),
    ),
    min_size=1,
    max_size=7,
)


class TestEngineState:
    @settings(max_examples=100, deadline=None)
    @given(
        steps=windows,
        dense=st.booleans(),
        warm=st.booleans(),
        window_months=st.integers(1, 4),
        alpha=st.sampled_from([0.4, 0.15]),
        blend=st.sampled_from([0.6, 1.0]),
        threshold=st.sampled_from([0.05, 0.4]),
        hint=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_engine_matches_the_name_keyed_oracles(
        self, steps, dense, warm, window_months, alpha, blend, threshold, hint
    ):
        parts = partitions()
        names = [partition.name for partition in parts]
        if warm:
            supplied, oracle_forecaster = warm_pair(alpha, blend)
        else:
            supplied, oracle_forecaster = None, DictForecaster(alpha=alpha, blend=blend)
        engine = OnlineTieringEngine(
            parts,
            azure_tier_catalog(),
            DriftTriggered(threshold=threshold),
            config=EngineConfig(
                horizon_months=3.0,
                window_months=window_months,
                forecast_alpha=alpha,
                forecast_blend=blend,
            ),
            forecaster=supplied,
        )
        oracle_forecaster.seed(
            {p.name: p.predicted_accesses for p in parts if p.name not in oracle_forecaster},
            epoch=-1,
        )
        oracle_store = ScalarFeatureStore(window_months=window_months)
        months = {p.name: 0.0 if p.is_new else float("inf") for p in parts}
        moves = []
        reoptimize = engine._reoptimize

        def recording_reoptimize(window):
            report = reoptimize(window)
            if report is not None:
                moves.extend(move.partition for move in report.moves)
            return report

        engine._reoptimize = recording_reoptimize
        predicted = observed = None
        start = 0.0
        for index, (duration, picks, cause) in enumerate(steps):
            forecast = oracle_forecaster.forecast_monthly(
                names, oracle_store.window_series_map(names), epoch=index - 1
            )
            if dense:
                duration = 1.0
                batch = EpochBatch(
                    epoch=index,
                    events=tuple(AccessEvent(index, names[k], reads) for k, reads in picks),
                )
                record = engine.step(batch)
                seen = batch.reads_by_partition()
                oracle_store.observe(batch)
            else:
                window = StreamWindow(
                    index=index,
                    start_month=start,
                    end_month=start + duration,
                    events=tuple(TimedEvent(start, names[k], reads) for k, reads in picks),
                    cause=cause,
                )
                start = window.end_month
                duration = window.duration_months
                record = engine.step_window(window)
                counts = window.reads_by_partition()
                seen = (
                    {name: count / duration for name, count in counts.items()}
                    if duration > 0
                    else counts
                )
                oracle_store.observe_counts(index, seen)
            oracle_forecaster.update(index, seen)

            if index > 0:
                assert bits(engine.policy.last_score) == bits(
                    dict_drift_score(predicted, observed)
                )
                scores = dict_partition_drift_scores(predicted, observed)
                # The hint's rows are the engine's rows.
                rows = engine.policy.drifted_rows(hint)
                assert {engine._arrays.names[row] for row in rows.tolist()} == {
                    name for name, score in scores.items() if score > hint
                }
            if record.reoptimized:
                assert map_bits(engine.last_applied_forecast) == map_bits(forecast)
                predicted = forecast
            observed = seen
            for name in moves:
                months[name] = 0.0
            moves.clear()
            for name in names:
                months[name] += duration

            assert engine.months_in_tier.tolist() == [months[name] for name in names]
            for name in names:
                assert [bits(v) for v in engine.feature_store.window_series(name)] == [
                    bits(v) for v in oracle_store.window_series(name)
                ]
                assert bits(engine.feature_store.lifetime_reads(name)) == bits(
                    oracle_store.lifetime_reads(name)
                )
            assert map_bits(reference_forecast(engine, index + 1)) == map_bits(
                oracle_forecaster.forecast_monthly(
                    names, oracle_store.window_series_map(names), epoch=index
                )
            )
