"""Tracer/span semantics: nesting, per-thread stacks, errors, the global switch."""

import threading

import pytest

from repro import obs
from repro.obs import NOOP_TRACER, Tracer


class TestNesting:
    def test_spans_nest_through_the_stack(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        by_name = {record.name: record for record in tracer.records()}
        assert by_name["parent"].parent_id is None
        assert by_name["child"].parent_id == by_name["parent"].span_id
        assert by_name["grandchild"].parent_id == by_name["child"].span_id
        assert by_name["sibling"].parent_id == by_name["parent"].span_id

    def test_span_ids_are_deterministic_creation_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [record.span_id for record in tracer.records()] == [0, 1, 2]
        # Children close before parents, but records() re-sorts by id.
        assert [record.name for record in tracer.records()] == ["a", "b", "c"]

    def test_span_on_a_fresh_thread_is_a_root(self):
        # Each thread nests through its own stack: a span opened on another
        # thread never nests under this thread's open span.
        tracer = Tracer()

        def worker():
            with tracer.span("worker"):
                pass

        with tracer.span("fleet.epoch"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        by_name = {record.name: record for record in tracer.records()}
        assert by_name["worker"].parent_id is None
        assert by_name["worker"].span_id != by_name["fleet.epoch"].span_id

    def test_current_span_id_none_outside_spans(self):
        tracer = Tracer()
        assert tracer.current_span_id is None
        with tracer.span("a"):
            assert tracer.current_span_id == 0
        assert tracer.current_span_id is None


class TestRecords:
    def test_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("solve", solver="greedy") as span:
            span.set(rounds=2).set(relaxed=False)
        [record] = tracer.records()
        assert record.duration_s >= 0.0
        assert record.attrs == {"solver": "greedy", "rounds": 2, "relaxed": False}
        assert record.error is None
        assert record.memory_peak_kb is None

    def test_error_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        [record] = tracer.records()
        assert record.error == "RuntimeError: boom"

    def test_reset_restarts_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert len(tracer) == 0
        with tracer.span("b"):
            pass
        assert tracer.records()[0].span_id == 0

    def test_track_memory_records_innermost_peak(self):
        tracer = Tracer(track_memory=True)
        try:
            with tracer.span("allocating"):
                _ = [0] * 50_000
            [record] = tracer.records()
            assert record.memory_peak_kb is not None
            assert record.memory_peak_kb > 50.0  # 50k pointers >> 50 KiB
        finally:
            tracer.close()


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert obs.get_tracer() is NOOP_TRACER
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False

    def test_noop_span_is_free_and_shared(self):
        span_a = NOOP_TRACER.span("anything", attr=1)
        span_b = NOOP_TRACER.span("else")
        assert span_a is span_b
        with span_a as entered:
            assert entered.set(x=1) is entered
        assert NOOP_TRACER.records() == []
        assert len(NOOP_TRACER) == 0

    def test_observed_enables_and_disables(self):
        with obs.observed() as run:
            assert obs.is_enabled()
            assert obs.get_tracer() is run.tracer
            with obs.get_tracer().span("inside"):
                pass
        assert not obs.is_enabled()
        assert [record.name for record in run.tracer.records()] == ["inside"]

    def test_nested_observed_shares_one_tracer(self):
        with obs.observed() as outer:
            with obs.observed() as inner:
                assert inner.tracer is outer.tracer
            # Inner exit must not disable the outer block.
            assert obs.is_enabled()
        assert not obs.is_enabled()

    def test_enable_is_idempotent(self):
        first = obs.enable()
        second = obs.enable(track_memory=True)  # ignored while enabled
        assert first is second
        assert first.tracer.track_memory is False
        obs.disable()
        obs.disable()  # double-disable is fine

    def test_handle_snapshot_collects_both(self):
        with obs.observed() as run:
            with obs.get_tracer().span("phase"):
                obs.get_metrics().counter("hits").add()
        snap = run.snapshot()
        assert [record.name for record in snap.spans] == ["phase"]
        assert [sample.name for sample in snap.metrics] == ["hits"]
