"""The running-minimum subset scan against the chunked gather scan, as bytes.

:func:`repro.kernels.subset.best_subset` must return the combination and
the *bit pattern* of the total that
:func:`repro.kernels._reference.best_subset` (every combination gathered
and reduced, lexicographic order) returns: ``min`` is exact and both
sides sum a client row with the same pairwise primitive, so there is no
tolerance to grant.  Client counts straddle numpy's pairwise-sum regimes
(< 8 sequential, <= 128 unrolled, > 128 recursive).
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import _reference as ref
from repro.kernels import subset

from tests.data.kernel_twins import kernel_path

CLIENT_COUNTS = (1, 7, 8, 9, 127, 128, 129, 206)
LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    # every second row and column of a twice-as-large array
    "sliced": lambda a: np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)[::2, ::2],
}


def rtt_block(n_clients, n, seed=0):
    return np.random.default_rng(seed).uniform(1.0, 300.0, (n_clients, n))


def assert_scan_equals_gather(block, k):
    positions, total = subset.best_subset(block, k)
    want_positions, want_total = ref.best_subset(
        np.asarray(block, dtype=float), k)
    assert positions == want_positions, (block.shape, k)
    assert np.float64(total).tobytes() == np.float64(want_total).tobytes(), (
        block.shape, k, total, want_total)
    return positions, total


# ----------------------------------------------------------------------
# Scan == gather
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_scan_equals_gather_for_every_k(n_clients, layout):
    for n in range(1, 9):
        block = LAYOUTS[layout](rtt_block(n_clients, n, seed=n))
        for k in range(1, n + 1):
            assert_scan_equals_gather(block, k)


@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
def test_scan_equals_gather_on_twenty_candidates(n_clients):
    block = rtt_block(n_clients, 20, seed=n_clients)
    # The middle k (10^5 combinations and up) run in the slow job.
    for k in (1, 2, 3, 4, 5, 16, 17, 18, 19, 20):
        assert_scan_equals_gather(block, k)


@pytest.mark.parametrize("elements", [40, 2_000, 5_000])
def test_every_split_path_agrees(monkeypatch, elements):
    # Level pieces of a few rows: a piece fills up in the middle of one
    # last element's run (40: every piece is a single row), at its end,
    # and across several — on every level, the level-1 slices of `rows`
    # included.
    monkeypatch.setattr(subset, "_WORKING_SET_ELEMENTS", elements)
    for n_clients, n in ((9, 8), (129, 7), (5, 12)):
        block = rtt_block(n_clients, n, seed=elements)
        for k in range(1, n + 1):
            assert_scan_equals_gather(block, k)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7])
def test_scan_equals_gather_at_paper_scale(seed):
    block = rtt_block(206, 20, seed=seed)
    for k in range(1, 21):
        assert_scan_equals_gather(block, k)


@pytest.mark.slow
def test_scan_peak_memory_no_larger_than_gather():
    block = rtt_block(206, 20)

    def peak(fn):
        tracemalloc.start()
        try:
            fn(block, 7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    scan, gather = peak(subset.best_subset), peak(ref.best_subset)
    assert scan <= gather, (scan, gather)
    # k pieces of _WORKING_SET_ELEMENTS float64, plus the transposed block.
    assert scan <= 8 * (7 * subset._WORKING_SET_ELEMENTS + 2 * block.size)


# ----------------------------------------------------------------------
# Ties
# ----------------------------------------------------------------------
def test_duplicated_columns_resolve_to_the_first_combination():
    base = rtt_block(30, 4, seed=2)
    block = base[:, [0, 1, 0, 2, 1, 3, 0]]      # 0 ≡ 2 ≡ 6, 1 ≡ 4
    for k in range(1, 8):
        positions, _ = assert_scan_equals_gather(block, k)
        totals = {c: block[:, list(c)].min(axis=1).sum()
                  for c in itertools.combinations(range(7), k)}
        least = min(totals.values())
        assert positions == min(c for c, t in totals.items() if t == least)
    assert subset.best_subset(np.ones((9, 6)), 3) == ((0, 1, 2), 9.0)


def test_dominated_candidate_never_displaces_an_earlier_tie():
    # Column 0 is every client's minimum, so whatever joins it is
    # useless and all those subsets tie; the first of them wins.
    block = np.array([[1.0, 9.0, 5.0, 9.0],
                      [2.0, 9.0, 6.0, 9.0],
                      [1.0, 8.0, 7.0, 8.0]])
    assert assert_scan_equals_gather(block, 1) == ((0,), 4.0)
    assert assert_scan_equals_gather(block, 2) == ((0, 1), 4.0)
    assert assert_scan_equals_gather(block, 3) == ((0, 1, 2), 4.0)
    # The same ties inside one batch of the scan (a shared last element).
    flipped = block[:, ::-1]
    assert assert_scan_equals_gather(flipped, 2) == ((0, 3), 4.0)
    assert assert_scan_equals_gather(flipped, 3) == ((0, 1, 3), 4.0)


def test_unreachable_clients_still_yield_the_first_combination():
    block = np.full((3, 4), np.inf)
    assert assert_scan_equals_gather(block, 2) == ((0, 1), np.inf)
    block[:, 2] = 5.0
    assert assert_scan_equals_gather(block, 2) == ((0, 2), 15.0)


# ----------------------------------------------------------------------
# Edges and validation
# ----------------------------------------------------------------------
def test_k_equals_n_takes_every_column():
    block = rtt_block(17, 6)
    positions, total = assert_scan_equals_gather(block, 6)
    assert positions == tuple(range(6))
    assert total == block.min(axis=1).sum()


# The twin takes validated input, so only the kernel's arm is left.
@pytest.mark.parametrize("backend", ["numpy"])
def test_arguments_are_validated_ahead_of_the_dispatch_point(backend):
    block = rtt_block(4, 3)
    with kernel_path(backend):
        for k in (0, 4):
            with pytest.raises(ValueError, match="k must be in 1..3"):
                subset.best_subset(block, k)
        for bad in (block[0], block[:0], np.empty((4, 0))):
            with pytest.raises(ValueError, match="non-empty"):
                subset.best_subset(bad, 1)
        block[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            subset.best_subset(block, 1)


# ----------------------------------------------------------------------
# Property: nothing beats the returned subset
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(block=hnp.arrays(
           np.float64,
           st.tuples(st.integers(1, 12), st.integers(1, 7)),
           elements=st.one_of(
               st.floats(0.0, 1e6, allow_nan=False),
               st.sampled_from([0.0, 1.0, 2.0]))),      # provoke ties
       data=st.data())
def test_returned_total_is_the_least_over_all_subsets(block, data):
    n = block.shape[1]
    k = data.draw(st.integers(1, n))
    positions, total = subset.best_subset(block, k)
    assert total == block[:, list(positions)].min(axis=1).sum()
    assert list(positions) == sorted(set(positions)) and len(positions) == k
    for combo in itertools.combinations(range(n), k):
        other = block[:, list(combo)].min(axis=1).sum()
        assert total <= other
        if total == other:
            assert positions <= combo
