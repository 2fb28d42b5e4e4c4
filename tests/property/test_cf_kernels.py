"""Hypothesis property tests for the micro-cluster CF vectors and kernel.

The CF vector (count, weight, linear_sum, square_sum) is an additive
summary whose recovered variance must never go negative however the
floating point falls.  The block kernel
:func:`repro.kernels.cf.absorb_stream` must agree with its scalar twin
and across its two regimes, and must not depend on how a stream is cut
into blocks.  Adversarial streams check the list regime's certified
merge-backs against both.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.core import ReplicaAccessSummary
from repro.kernels import _reference as ref
from repro.kernels import cf as cfk

from tests.data.absorb_instances import absorb_in_blocks
from tests.data.kernel_twins import PATHS, kernel_path

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coord = st.floats(min_value=-1e3, max_value=1e3,
                  allow_nan=False, allow_infinity=False)
point2 = st.tuples(coord, coord).map(lambda t: np.array(t, dtype=float))
weight = st.floats(min_value=1e-3, max_value=1e3,
                   allow_nan=False, allow_infinity=False)


@st.composite
def cluster_features(draw, min_points=1, max_points=6):
    """A one-cluster record folded from a short stream of weighted
    points (the radius floor absorbs every point)."""
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    summary = ReplicaAccessSummary(1, radius_floor=1e9)
    summary.record_batch(np.stack([draw(point2) for _ in range(n)]),
                         np.array([draw(weight) for _ in range(n)]))
    return summary.clusters


# ----------------------------------------------------------------------
# Variance clamping
# ----------------------------------------------------------------------
@given(cluster_features())
def test_recovered_variance_never_negative(cf):
    assert np.isfinite(cf.deviations).all()
    assert (cf.deviations >= 0.0).all()


# ----------------------------------------------------------------------
# Batched stream maintenance: kernel == twin as a property
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(point2, weight), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=6))
def test_absorb_stream_backend_equivalence(stream, budget):
    points = np.stack([p for p, _ in stream])
    weights = np.array([w for _, w in stream])
    fast, slow = (
        impl.absorb_stream(
            np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
            points=points, point_weights=weights,
            radius_floor=5.0, max_clusters=budget)
        for impl in (cfk, ref))
    for a, b in zip(fast[:4], slow[:4]):
        np.testing.assert_array_equal(a, b)
    assert fast[4] == slow[4]
    assert fast[0].shape[0] <= budget


# ----------------------------------------------------------------------
# Block invariance: how a stream is cut into blocks changes nothing
# ----------------------------------------------------------------------
@st.composite
def letter_streams(draw):
    """A stream over 2–6 integer-valued letters in d = 1 … 7, and cuts.

    Every sum is exact, so a repeated letter lands *exactly* one
    deviation from a two-member centroid — and, when the letters lie on
    one axis, exactly as far from two centroids: the ties where a block
    boundary could part the decisions if any state leaked across it.
    On an equally spaced axis lattice, spaced wider than any radius
    floor, every letter is a cluster of its own and neighbours tie: the
    closest-pair ties where a merge rule could part the decisions.
    Every letter occurs, first in a drawn order, then the stream goes on
    with up to 34 more picks.  ``cuts`` are ascending indices inside the
    stream where a block ends.
    """
    d = draw(st.integers(min_value=1, max_value=7))
    letters = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        min_size=2, max_size=6))
    layout = draw(st.sampled_from(["free", "axis", "lattice"]))
    if layout == "axis":
        letters = [[row[0]] + [0] * (d - 1) for row in letters]
    elif layout == "lattice":
        letters = [[3 * i] + [0] * (d - 1)
                   for i in draw(st.permutations(range(len(letters))))]
    picks = draw(st.permutations(range(len(letters)))) + draw(st.lists(
        st.integers(0, len(letters) - 1), max_size=34))
    weights = draw(st.lists(weight, min_size=len(picks),
                            max_size=len(picks)))
    cuts = sorted(draw(st.sets(st.integers(1, max(len(picks) - 1, 1)),
                               max_size=6)) - {len(picks)})
    return (draw(st.integers(min_value=1, max_value=12)),
            draw(st.sampled_from([0.0, 1.0, 2.0])),
            np.array([letters[i] for i in picks], dtype=float),
            np.array(weights), cuts)


@settings(deadline=None, max_examples=200)
@given(letter_streams())
def test_block_kernel_equals_sequential_add_on_tied_letters(case):
    """One block through the kernel equals a summary fed one point per
    call, from a carried start, counters included."""
    m, floor, points, weights, cuts = case
    split = cuts[0] if cuts else 0
    summary = ReplicaAccessSummary(m, floor)
    for p, w in zip(points[:split], weights[:split]):
        summary.record_batch(p[None, :], [w])
    start = summary.clusters
    *block, stats = cfk.absorb_stream(
        start.counts, start.weights, start.linear, start.square,
        points[split:], weights[split:], floor, m)

    with obs.observe() as (registry, _):
        for p, w in zip(points[split:], weights[split:]):
            summary.record_batch(p[None, :], [w])
    assert stats == {event: int(registry.counter(
        f"clustering.micro.{event}").snapshot())
        for event in ("spawned", "absorbed", "merged")}
    want = summary.clusters
    for got, expected in zip(block, (want.counts, want.weights, want.linear,
                                     want.square)):
        np.testing.assert_array_equal(got, expected)


@settings(deadline=None, max_examples=200)
@given(letter_streams())
# 0 lies exactly as far from the clusters at -2 and 2: the first absorbs it.
@example((4, 2.0, np.array([[-2.0], [2.0], [0.0]]), np.ones(3), []))
def test_absorb_stream_equals_its_twin_on_tied_letters(case):
    """Up to d = 2 the kernel and its twin sum squares in one order, so
    exact ties fall the same way in both: nearest-centroid ties on an
    axis, closest-pair ties on the lattice."""
    m, floor, points, weights, _cuts = case
    points = points[:, :2]
    d = points.shape[1]
    start = (np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d)))
    fast, slow = (impl.absorb_stream(*start, points, weights, floor, m)
                  for impl in (cfk, ref))
    assert fast[4] == slow[4]
    for a, b in zip(fast[:4], slow[:4]):
        np.testing.assert_array_equal(a, b)


@settings(deadline=None, max_examples=200)
@given(letter_streams(), st.sampled_from(PATHS))
def test_absorb_stream_is_block_invariant_on_tied_letters(case, backend):
    m, floor, points, weights, cuts = case
    d = points.shape[1]
    start = (np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d)))
    with kernel_path(backend):
        whole = cfk.absorb_stream(*start, points, weights, floor, m)
        for blocks in (range(1, len(points)), cuts):
            got = absorb_in_blocks(start, points, weights, floor, m, blocks)
            assert got[4] == whole[4]
            for a, b in zip(got[:4], whole[:4]):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)


@settings(deadline=None, max_examples=200)
@given(letter_streams())
def test_list_and_column_regimes_agree_on_tied_letters(case):
    """The python-list regime and the numpy column regime make the same
    decisions on the ties where a summation order or a tie rule could
    part them: bitwise-equal rows and equal event counts, at every
    budget up to the drawn one (the small ones force the merges)."""
    top, floor, points, weights, _ = case
    d = points.shape[1]
    start = (np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d)))
    for m in range(1, top + 1):
        results = []
        for crossover in (m + 1, 0):        # lists, then columns
            with mock.patch.object(cfk, "CROSSOVER", crossover):
                results.append(cfk.absorb_stream(*start, points, weights,
                                                  floor, m))
        lists, columns = results
        assert lists[4] == columns[4], m
        for a, b in zip(lists[:4], columns[:4]):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Certified merge-backs on adversarial streams
# ----------------------------------------------------------------------
#: Stream families where a bound on the old pairs could be wrong: exact
#: ties on a lattice, every point three times, squared distances near
#: underflow, coordinates that cancel at 1e12, and free draws; the
#: family's distance scale sizes its radius floor.
FAMILIES = {"lattice": 2.0, "repeats": 10.0, "tiny": 1e-140,
            "offset": 1e-3, "free": 10.0}
FLOOR_FACTORS = (0.0, 0.5, 1.0, 3.0)
WEIGHTINGS = ("ones", "bytes")


def adversarial_stream(family, d, n, seed):
    """``n`` points of one family of :data:`FAMILIES` in ``d`` dims."""
    rng = np.random.default_rng(seed)
    if family == "lattice":
        return 2.0 * rng.integers(-3, 4, size=(n, d))
    if family == "repeats":
        return np.repeat(rng.uniform(-50, 50, size=(n, d)), 3, axis=0)[:n]
    if family == "tiny":
        return 1e-140 * rng.uniform(-1, 1, size=(n, d))
    if family == "offset":
        return 1e12 + rng.uniform(-1e-3, 1e-3, size=(n, d))
    return rng.normal(0, 30, size=(n, d))


def check_merge_backs(family, d, n, seed, budget, floor_factor, carried,
                      weighting):
    """From rows the kernel left after the first ``carried`` points, the
    rest of the stream through the list regime, the column regime and,
    for d <= 2, the scalar twin: rows and event counts all equal.  At
    d = 3 the twin sums squares in another order, so a point one
    deviation out can absorb in one and spawn in the other, and on a
    lattice with floor 0 the spawn can then merge an equally close old
    pair: rows part too, with or without certificates."""
    points = adversarial_stream(family, d, n, seed)
    weights = (np.ones(n) if weighting == "ones" else
               np.random.default_rng(seed).integers(1, 2 ** 20, n) * 1.0)
    floor = floor_factor * FAMILIES[family]
    start = cfk.absorb_stream(
        np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d)),
        points[:carried], weights[:carried], floor, budget)[:4]
    args = (*start, points[carried:], weights[carried:], floor, budget)
    results = []
    for crossover in (budget + 1, 0):       # lists, then columns
        with mock.patch.object(cfk, "CROSSOVER", crossover):
            results.append(cfk.absorb_stream(*args))
    lists, columns = results
    others = [columns]
    if d <= 2:
        others.append(ref.absorb_stream(*args))
    for other in others:
        assert other[4] == lists[4]
        for a, b in zip(lists[:4], other[:4]):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)


@st.composite
def adversarial_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return (draw(st.sampled_from(sorted(FAMILIES))),
            draw(st.integers(min_value=1, max_value=3)), n,
            draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
            draw(st.integers(min_value=1, max_value=8)),
            draw(st.sampled_from(FLOOR_FACTORS)),
            draw(st.integers(min_value=0, max_value=n)),
            draw(st.sampled_from(WEIGHTINGS)))


@settings(deadline=None, max_examples=300)
@given(adversarial_cases())
def test_certified_merge_backs_equal_the_twin_and_the_columns(case):
    check_merge_backs(*case)


@pytest.mark.slow
def test_certified_merge_backs_on_ten_thousand_seeded_streams():
    rng = np.random.default_rng(43)
    families = sorted(FAMILIES)
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        check_merge_backs(
            families[rng.integers(len(families))], int(rng.integers(1, 4)),
            n, int(rng.integers(2 ** 32)), int(rng.integers(1, 9)),
            FLOOR_FACTORS[rng.integers(len(FLOOR_FACTORS))],
            int(rng.integers(0, n + 1)),
            WEIGHTINGS[rng.integers(len(WEIGHTINGS))])
