"""The shared-vocab fast paths of the event path, pinned to the slow paths.

``EventBatch.concat`` joins the columns of pieces that share one vocab and
one tenants tuple as they are, where it used to re-code every piece into a
merged vocab; ``PartitionArrays.codes_for`` returns the last lookup when it
is asked for the same vocab object again, before hashing the vocab into its
cache.  Both must give what the slow path gives, bit for bit, including
when the vocab grows between pieces or calls.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import DataPartition, EventBatch, PartitionArrays
from repro.cloud.events import _Recoder

NAMES = tuple(f"p{i}" for i in range(8))
TENANTS = ("acme", "globex", "initech")


def recoded(batches: list[EventBatch]) -> EventBatch:
    """``concat``'s re-coding path: every piece into one merged vocab."""
    recoder = _Recoder()
    columns = [recoder.columns(batch) for batch in batches]
    return recoder.batch(*(np.concatenate(column) for column in zip(*columns)))


def assert_same_batch(got: EventBatch, want: EventBatch) -> None:
    for column in ("t", "code", "reads"):
        left, right = getattr(got, column), getattr(want, column)
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    assert got.vocab == want.vocab
    assert got.tenants == want.tenants
    if want.tenant is None:
        assert got.tenant is None
    else:
        assert got.tenant.dtype == want.tenant.dtype
        assert got.tenant.tobytes() == want.tenant.tobytes()


@st.composite
def pieces(draw):
    """Two to four time-ordered pieces over one vocab and tenants tuple, or
    (``grow``) over a vocab that grows from piece to piece, or over equal
    but distinct tuples."""
    how = draw(st.sampled_from(["shared", "equal", "grow"]))
    tenants = TENANTS[: draw(st.integers(1, len(TENANTS)))]
    count = draw(st.integers(2, 4))
    vocab = NAMES[: draw(st.integers(2, 4))]
    batches = []
    clock = 0.0
    for k in range(count):
        if how == "grow":
            piece_vocab = NAMES[: min(len(NAMES), len(vocab) + k)]
        elif how == "equal":
            piece_vocab = tuple(list(vocab))
        else:
            piece_vocab = vocab
        size = draw(st.integers(0, 5))
        codes = draw(
            st.lists(st.integers(0, len(piece_vocab) - 1), min_size=size, max_size=size)
        )
        reads = draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.25]), min_size=size, max_size=size)
        )
        times = clock + np.cumsum(np.full(size, 0.01))
        clock = float(times[-1]) if size else clock
        if len(tenants) == 1:
            batches.append(EventBatch(times, codes, reads, piece_vocab, tenants=tenants))
        else:
            owner = draw(
                st.lists(st.integers(0, len(tenants) - 1), min_size=size, max_size=size)
            )
            batches.append(
                EventBatch(times, codes, reads, piece_vocab, tenant=owner, tenants=tenants)
            )
    return how, batches


class TestConcatFastPath:
    @settings(max_examples=150, deadline=None)
    @given(drawn=pieces())
    def test_concat_equals_the_recoding_path(self, drawn):
        how, batches = drawn
        got = EventBatch.concat(batches)
        assert_same_batch(got, recoded(batches))
        # Independently of either path: the events, piece after piece.
        assert list(got) == [event for batch in batches for event in batch]
        if how == "shared":
            assert got.vocab is batches[0].vocab

    def test_a_vocab_that_grows_is_recoded(self):
        first = EventBatch([0.1, 0.2], [1, 0], [1.0, 2.0], ("a", "b"))
        second = EventBatch([0.3], [2], [4.0], ("a", "b", "c"))
        third = EventBatch([0.4], [0], [8.0], ("a", "b"))
        got = EventBatch.concat([first, second, third])
        assert got.vocab == ("a", "b", "c")
        assert got.code.tolist() == [1, 0, 2, 0]
        assert_same_batch(got, recoded([first, second, third]))

    def test_shared_tenants_keep_their_codes(self):
        tenants = ("x", "y")
        first = EventBatch([0.1], [0], [1.0], ("a",), tenant=[1], tenants=tenants)
        second = EventBatch([0.2], [0], [1.0], ("a",), tenant=[0], tenants=tenants)
        got = EventBatch.concat([first, second])
        assert got.tenant.tolist() == [1, 0]
        assert got.tenants is tenants
        assert_same_batch(got, recoded([first, second]))


class TestCodesForFastPath:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, len(NAMES)),
        calls=st.lists(
            st.tuples(st.sampled_from(["same", "equal", "other", "grow"]), st.integers(1, 8)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_lookups_equal_the_per_name_table(self, rows, calls):
        arrays = PartitionArrays.from_partitions(
            [DataPartition(name, size_gb=1.0, predicted_accesses=1.0) for name in NAMES[:rows]]
        )
        index = {name: row for row, name in enumerate(NAMES[:rows])}
        vocab = ("q", *NAMES[::-1][:3])
        for how, size in calls:
            if how == "equal":
                vocab = tuple(list(vocab))
            elif how == "other":
                vocab = tuple(reversed(NAMES[:size])) + ("z",)
            elif how == "grow":
                vocab = vocab + tuple(f"n{len(vocab) + k}" for k in range(size))
            got = arrays.codes_for(vocab)
            want = np.array([index.get(name, -1) for name in vocab], dtype=np.intp)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert arrays.codes_for(vocab) is got

    def test_an_equal_vocab_object_hits_the_cache_not_the_last_lookup(self):
        arrays = PartitionArrays.from_partitions(
            [DataPartition(name, size_gb=1.0, predicted_accesses=1.0) for name in ("a", "b")]
        )
        first = ("b", "c", "a")
        lookup = arrays.codes_for(first)
        assert lookup.tolist() == [1, -1, 0]
        other = arrays.codes_for(("c",))
        assert other.tolist() == [-1]
        again = arrays.codes_for(tuple(list(first)))
        assert again is lookup
