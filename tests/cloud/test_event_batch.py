"""EventBatch: columnar timed events, their adapter and the chunked merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.streams import sorted_first_occurrence
from repro.cloud import (
    CHUNK_SIZE,
    AccessEvent,
    CloudStorageSimulator,
    DataPartition,
    EventBatch,
    PlacementDecision,
    TimedEvent,
    azure_tier_catalog,
    iter_batches,
    merge_batches,
)
from repro.cloud.events import first_occurrence, stable_order


def events(*rows, tenant=None):
    return [TimedEvent(t=t, partition=p, reads=r, tenant=tenant) for t, p, r in rows]


class TestConstruction:
    def test_validation_matches_timed_event(self):
        with pytest.raises(ValueError, match="event time must be non-negative"):
            EventBatch([-0.1], [0], [1.0], ["a"])
        with pytest.raises(ValueError, match="reads must be non-negative"):
            EventBatch([0.1], [0], [-1.0], ["a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_and_reads_are_rejected(self, bad):
        with pytest.raises(ValueError, match="event time must be"):
            EventBatch([0.1, bad], [0, 0], [1.0, 1.0], ["a"])
        with pytest.raises(ValueError, match="reads must be"):
            EventBatch([0.1, 0.2], [0, 0], [1.0, bad], ["a"])
        with pytest.raises(ValueError, match="event time must be"):
            TimedEvent(t=bad, partition="a")
        with pytest.raises(ValueError, match="reads must be"):
            TimedEvent(t=0.1, partition="a", reads=bad)

    def test_shape_and_code_checks(self):
        with pytest.raises(ValueError, match="equal length"):
            EventBatch([0.1, 0.2], [0], [1.0], ["a"])
        with pytest.raises(ValueError, match="outside the vocab"):
            EventBatch([0.1], [1], [1.0], ["a"])
        with pytest.raises(ValueError, match="unique"):
            EventBatch([0.1], [0], [1.0], ["a", "a"])
        with pytest.raises(ValueError, match="one tenant"):
            EventBatch([0.1], [0], [1.0], ["a"], tenants=("x", "y"))
        with pytest.raises(ValueError, match="outside the tenants"):
            EventBatch([0.1], [0], [1.0], ["a"], tenant=[2], tenants=("x", "y"))

    def test_from_events_round_trips(self):
        rows = events((0.1, "a", 1.0), (0.2, "b", 0.5)) + events(
            (0.3, "a", 2.0), tenant="acme"
        )
        batch = EventBatch.from_events(rows)
        assert batch.vocab == ("a", "b")
        assert batch.tenants == (None, "acme")
        assert list(batch) == rows
        assert len(batch) == 3

    def test_from_access_events_uses_the_month(self):
        batch = EventBatch.from_events([AccessEvent(month=3, partition="a", reads=2.0)])
        assert batch.t.tolist() == [3.0]
        assert batch.reads_by_partition() == {"a": 2.0}

    def test_empty(self):
        batch = EventBatch.from_events([])
        assert len(batch) == 0 and list(batch) == []
        assert batch.total_reads == 0.0 and batch.reads_by_partition() == {}


class TestAggregation:
    @settings(max_examples=200, deadline=None)
    @given(codes=st.lists(st.integers(0, 12), max_size=40))
    def test_first_occurrence_keeps_the_order_of_first_sight(self, codes):
        got = first_occurrence(np.array(codes, dtype=np.intp))
        assert got.dtype == np.intp
        assert got.tolist() == list(dict.fromkeys(codes))

    @staticmethod
    def assert_sorts_as_the_comparison_sort(keys):
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))
        distinct, first = np.unique(keys, return_index=True)
        want = distinct[np.argsort(first, kind="stable")]
        got = sorted_first_occurrence(keys)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 40), max_size=60),
        offset=st.sampled_from([0, 65_495, 65_496, 65_536, 1 << 40]),
    )
    def test_radix_and_comparison_paths_match_the_old_expressions(self, codes, offset):
        self.assert_sorts_as_the_comparison_sort(np.array(codes, dtype=np.intp) + offset)

    @pytest.mark.parametrize("top", [65_535, 65_536])
    def test_keys_at_the_uint16_bound(self, top):
        # 65,535 is the largest key the radix sort takes; 65,536 would wrap
        # to 0 as uint16 and tie with the real 0s.
        keys = np.array([top, 3, top, 0, 3, top - 1, 0, top], dtype=np.intp)
        self.assert_sorts_as_the_comparison_sort(keys)
        assert first_occurrence(keys).tolist() == [top, 3, 0, top - 1]

    def test_by_tenant_with_a_tenant_code_past_the_uint16_bound(self):
        tenants = tuple(f"t{i}" for i in range(65_537))
        batch = EventBatch(
            [0.1, 0.2, 0.3, 0.4], [0, 1, 2, 0], [1.0, 2.0, 3.0, 4.0], ("a", "b", "c"),
            tenant=[65_536, 0, 65_536, 1], tenants=tenants,
        )
        split = batch.by_tenant()
        assert list(split) == ["t0", "t1", "t65536"]
        for name, part in split.items():
            assert list(part) == list(batch.for_tenant(name))

    def test_reads_by_partition_in_first_occurrence_order(self):
        batch = EventBatch.from_events(
            events((0.1, "b", 0.1), (0.2, "a", 0.2), (0.3, "b", 0.2), (0.4, "c", 0.0))
        )
        totals = batch.reads_by_partition()
        assert list(totals) == ["b", "a", "c"]
        assert totals["b"] == 0.0 + 0.1 + 0.2  # accumulated in event order

    def test_slices_and_tenants(self):
        rows = events((0.1, "a", 1.0), tenant="x") + events((0.2, "b", 1.0), tenant="y")
        batch = EventBatch.from_events(rows)
        assert list(batch[1:]) == rows[1:]
        assert list(batch.for_tenant("y")) == rows[1:]
        assert len(batch.for_tenant("nobody")) == 0
        assert {event.tenant for event in batch.with_tenant("z")} == {"z"}

    @settings(max_examples=150, deadline=None)
    @given(
        tenant_codes=st.lists(st.integers(0, 3), max_size=30),
        tenants=st.sampled_from([("x", "y", "z", "w"), (None, "y", "z", "w")]),
    )
    def test_by_tenant_equals_a_selection_per_tenant(self, tenant_codes, tenants):
        size = len(tenant_codes)
        batch = EventBatch(
            np.arange(size) / 8,
            np.arange(size) % 3,
            np.arange(size) * 0.5,
            ("a", "b", "c"),
            tenant=tenant_codes,
            tenants=tenants,
        )
        split = batch.by_tenant()
        assert list(split) == [t for t in tenants if t in split]
        for tenant in tenants:
            selected = batch.for_tenant(tenant)
            if not len(selected):
                assert tenant not in split
                continue
            part = split[tenant]
            assert part.tenants == (tenant,) and part.vocab == batch.vocab
            assert list(part) == list(selected)

    def test_by_tenant_of_a_one_tenant_batch_is_the_batch(self):
        batch = EventBatch.from_events(events((0.1, "a", 1.0), tenant="x"))
        assert batch.by_tenant() == {"x": batch}
        assert EventBatch.empty("x").by_tenant() == {}

    def test_concat_recodes_different_vocabs(self):
        first = EventBatch.from_events(events((0.1, "a", 1.0), tenant="x"))
        second = EventBatch.from_events(events((0.2, "b", 1.0), (0.3, "a", 1.0)))
        joined = EventBatch.concat([first, second])
        assert list(joined) == list(first) + list(second)


class TestIterBatches:
    def test_objects_are_chunked(self):
        rows = events(*((i / 1e4, "a", 1.0) for i in range(CHUNK_SIZE + 1)))
        chunks = list(iter_batches(rows))
        assert [len(chunk) for chunk in chunks] == [CHUNK_SIZE, 1]

    def test_mixed_batches_and_objects_keep_order(self):
        head = events((0.1, "a", 1.0))
        batch = EventBatch.from_events(events((0.2, "b", 1.0)))
        tail = events((0.3, "c", 1.0))
        chunks = list(iter_batches([*head, batch, EventBatch.empty(), *tail]))
        names = [event.partition for chunk in chunks for event in chunk]
        assert names == ["a", "b", "c"]


def hundreds(offset, total=20_000, size=100):
    """A source of ``total`` events in ``size``-event chunks, one every
    millimonth from ``offset`` millimonths on."""
    for start in range(0, total, size):
        t = (np.arange(start, start + size) + offset) / 1000.0
        yield EventBatch(t, np.zeros(size, dtype=int), np.ones(size), ["a"])


class TestMergeBatches:
    def test_memory_stays_bounded_by_the_chunks(self):
        # Two long sources in 100-event chunks: no emitted chunk holds more
        # than one stride plus one chunk per source, however long the
        # streams run.
        sizes = [len(chunk) for chunk in merge_batches([hundreds(0.0), hundreds(0.5)])]
        assert sum(sizes) == 40_000
        assert max(sizes) <= CHUNK_SIZE + 2 * 100

    def test_small_chunks_merge_in_strides(self):
        # Four sources of 100-event chunks: every merged chunk but the last
        # holds at least CHUNK_SIZE events, not one source chunk's worth.
        sizes = [
            len(chunk)
            for chunk in merge_batches([hundreds(k / 4) for k in range(4)])
        ]
        assert sum(sizes) == 80_000
        assert len(sizes) > 1
        assert min(sizes[:-1]) >= CHUNK_SIZE

    def test_long_ties_in_one_event_chunks(self):
        # 5,000 one-event chunks per source at one time: the stride is
        # reached inside the tie run, which is emitted whole, lower source
        # first, with each piece passed over once (not once per pull).
        def source(name, after):
            tied = [EventBatch([0.5], [0], [1.0], [name]) for _ in range(5_000)]
            return tied + [EventBatch([after], [0], [1.0], [name])]

        merged = list(merge_batches([source("a", 0.7), source("b", 0.6)]))
        assert [len(chunk) for chunk in merged] == [10_000, 2]
        names = [event.partition for chunk in merged for event in chunk]
        assert names == ["a"] * 5_000 + ["b"] * 5_000 + ["b", "a"]

    @pytest.mark.parametrize("alone", [True, False])
    def test_a_source_going_backwards_in_a_chunk_raises(self, alone):
        # Sorted together with another source's chunk, the 0.3 would come
        # out in order; the merge checks each source as it is pulled.
        backwards = EventBatch([0.1, 0.5, 0.3], [0, 0, 0], [1.0] * 3, ["a"])
        sources = [[backwards]] if alone else [hundreds(0.0, total=1_000), [backwards]]
        index = 0 if alone else 1
        with pytest.raises(
            ValueError, match=f"source {index}: events must be time-ordered: 0.3 after 0.5"
        ):
            list(merge_batches(sources))

    @pytest.mark.parametrize("alone", [True, False])
    def test_a_source_going_backwards_across_its_chunks_raises(self, alone):
        first = EventBatch([0.1, 0.5], [0, 0], [1.0] * 2, ["a"])
        second = EventBatch([0.3, 0.6], [0, 0], [1.0] * 2, ["a"])
        sources = [[first, second]]
        if not alone:
            sources.insert(0, hundreds(0.0, total=1_000))
        index = 0 if alone else 1
        with pytest.raises(
            ValueError, match=f"source {index}: events must be time-ordered: 0.3 after 0.5"
        ):
            list(merge_batches(sources))


class TestColumnarBilling:
    def test_unknown_name_raises_key_error(self):
        partitions = [DataPartition(name="a", size_gb=10.0, predicted_accesses=1.0)]
        simulator = CloudStorageSimulator(azure_tier_catalog())
        compiled = simulator.compile_placement(
            partitions, {"a": PlacementDecision(tier_index=0)}
        )
        batch = EventBatch.from_events(events((0.1, "a", 1.0), (0.2, "ghost", 1.0)))
        with pytest.raises(KeyError, match="ghost"):
            compiled.step(batch)
        # Names outside the placement are fine while no event uses them.
        assert compiled.step(batch[:1]).access_count == 1

    def test_half_reads_round_to_even_like_round(self):
        partitions = [DataPartition(name="a", size_gb=10.0, predicted_accesses=1.0)]
        simulator = CloudStorageSimulator(azure_tier_catalog())
        compiled = simulator.compile_placement(
            partitions, {"a": PlacementDecision(tier_index=0)}
        )
        rows = events((0.1, "a", 0.5), (0.2, "a", 1.5), (0.3, "a", 2.5))
        assert compiled.step(EventBatch.from_events(rows)).access_count == sum(
            round(event.reads) for event in rows
        )
