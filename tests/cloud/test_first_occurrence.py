"""The first-occurrence kernel and its callers against the sort oracle.

:func:`~repro.cloud.events.first_occurrence` scatters each event's position
into a buffer over the codes' range and sorts only the distinct codes'
first positions; ``sorted_first_occurrence`` in
``tests/oracles/streams.py`` stably sorts every event.  Both must give the
same codes in the same order, for every caller: the settle block's
``_observed_rates`` (block rows), ``DriftTrigger``'s ``_fold`` and
``EventBatch.reads_by_partition`` (vocab codes).  The settle bills each
engine's reads with ``ndarray.dot``, which must equal ``@`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.engine_state import reference_observed_rates
from oracles.streams import sorted_first_occurrence
from repro.cloud import EventBatch
from repro.cloud.events import first_occurrence
from repro.engine.engine import _observed_rates
from repro.engine.events import _fold

READS = np.array([0.0, 1e-9, 0.1, 0.5, 1.0, 2.5, 3.0, 1e6])


@st.composite
def code_columns(draw):
    """``(codes, size)``: intp codes in ``[0, size)`` (a block's rows or a
    vocabulary's codes) of any length up to several thousand, in random
    orders or in the shapes the scatter could get wrong (one value, the
    range's two ends, runs, sorted orders)."""
    size = draw(st.integers(1, 5_000))
    length = draw(st.integers(0, 6_000))
    shape = draw(
        st.sampled_from(("random", "few", "equal", "ends", "sorted", "reversed"))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "few":
        codes = rng.choice(rng.integers(0, size, 3), length)
    elif shape == "equal":
        codes = np.full(length, rng.integers(0, size))
    elif shape == "ends":
        codes = rng.choice([0, size - 1], length)
    else:
        codes = rng.integers(0, size, length)
        if shape == "sorted":
            codes.sort()
        elif shape == "reversed":
            codes = np.sort(codes)[::-1].copy()
    return codes.astype(np.intp), size


def left_to_right_totals(keys, reads, start=None) -> dict:
    """Per-key read totals added one event at a time, keyed in order of
    first sight (after the keys of ``start``, whose totals lead)."""
    totals = dict(start or {})
    for key, read in zip(keys, reads.tolist()):
        totals[key] = totals.get(key, 0.0) + read
    return totals


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(column=code_columns())
    def test_scatter_matches_the_sort_oracle(self, column):
        codes, _ = column
        got = first_occurrence(codes)
        want = sorted_first_occurrence(codes)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)
        assert got.tolist() == list(dict.fromkeys(codes.tolist()))

    @pytest.mark.parametrize(
        "codes, want",
        [
            ([], []),
            ([4], [4]),
            ([0], [0]),
            ([3, 3, 3, 3], [3]),
            ([0, 9, 0, 9, 9], [0, 9]),
            ([9, 0, 0, 9], [9, 0]),
            ([2, 1, 0, 1, 2], [2, 1, 0]),
            ([999, 1, 999, 0], [999, 1, 0]),
        ],
    )
    def test_edges(self, codes, want):
        codes = np.array(codes, dtype=np.intp)
        got = first_occurrence(codes)
        assert got.dtype == np.intp
        assert got.tolist() == want == sorted_first_occurrence(codes).tolist()

    def test_codes_are_not_modified(self):
        codes = np.array([5, 1, 5, 0], dtype=np.intp)
        first_occurrence(codes)
        assert codes.tolist() == [5, 1, 5, 0]


class TestCallers:
    @settings(max_examples=100, deadline=None)
    @given(
        column=code_columns(),
        seed=st.integers(0, 2**32 - 1),
        duration=st.sampled_from((0.0, 0.1, 0.25, 1.0)),
    )
    def test_observed_rates(self, column, seed, duration):
        """Settle's rows and rates: the oracle's, and each row's reads added
        in event order."""
        rows, _ = column
        reads = np.random.default_rng(seed).choice(READS, len(rows))
        touched, rates = _observed_rates(rows, reads, duration)
        want_touched, want_rates = reference_observed_rates(rows, reads, duration)
        assert np.array_equal(touched, want_touched)
        assert bits(rates) == bits(want_rates)
        totals = left_to_right_totals(rows.tolist(), reads)
        assert touched.tolist() == list(totals)
        counts = np.array(list(totals.values()))
        assert bits(rates) == bits(counts / duration if duration > 0 else counts)

    @settings(max_examples=100, deadline=None)
    @given(column=code_columns(), seed=st.integers(0, 2**32 - 1))
    def test_drift_fold(self, column, seed):
        """``_fold`` adds each name's reads after its running total, names
        new to the counts in first-occurrence order."""
        codes, size = column
        rng = np.random.default_rng(seed)
        vocab = tuple(f"p{k}" for k in range(size))
        reads = rng.choice(READS, len(codes))
        batch = EventBatch._of(
            np.zeros(len(codes)), codes, reads, vocab, None, (None,)
        )
        start = {vocab[k]: float(rng.choice(READS)) for k in rng.integers(0, size, 3)}
        counts = dict(start)
        _fold(counts, batch)
        want = left_to_right_totals([vocab[k] for k in codes.tolist()], reads, start)
        assert list(counts) == list(want)
        assert bits(list(counts.values())) == bits(list(want.values()))

    @settings(max_examples=100, deadline=None)
    @given(column=code_columns(), seed=st.integers(0, 2**32 - 1))
    def test_reads_by_partition(self, column, seed):
        codes, size = column
        vocab = tuple(f"p{k}" for k in range(size))
        reads = np.random.default_rng(seed).choice(READS, len(codes))
        batch = EventBatch._of(
            np.zeros(len(codes)), codes, reads, vocab, None, (None,)
        )
        got = batch.reads_by_partition()
        want = left_to_right_totals([vocab[k] for k in codes.tolist()], reads)
        assert list(got) == list(want)
        assert bits(list(got.values())) == bits(list(want.values()))


@pytest.mark.parametrize("seed", range(8))
def test_dot_equals_matmul_bit_for_bit(seed):
    """The settle's per-engine read and decompression totals: ``a.dot(b)``
    over contiguous segments of gathered price and read columns is
    ``a @ b``, bit for bit, at every length from 0 to 4,096."""
    rng = np.random.default_rng(seed)
    prices = rng.choice([0.0, 1e-7, 3.3e-4, 0.0125, 1.0], 10_000) * rng.random(10_000)
    reads = rng.choice(READS, 10_000) * rng.random(10_000) * 10.0 ** rng.integers(-3, 4)
    signed = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 8, 10_000)
    lengths = [*range(0, 40), *rng.integers(0, 4_097, 200).tolist(), 4_096]
    for length in lengths:
        start = int(rng.integers(0, 10_000 - length + 1))
        segment = slice(start, start + length)
        for a, b in ((prices, reads), (signed, reads), (signed, signed[::-1].copy())):
            left, right = a[segment], b[segment]
            assert bits(float(left.dot(right))) == bits(float(left @ right)), length
