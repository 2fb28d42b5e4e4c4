"""Hypothesis property tests for the micro-cluster CF algebra and kernel.

The CF vector (count, weight, linear_sum, square_sum) is an additive
summary: merging must commute and associate, and recovered variance
must never go negative however the floating point falls.  The block
kernel :func:`repro.kernels.cf.absorb_stream` must agree with its scalar
twin and across its two regimes, and must not depend on how a
stream is cut into blocks.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.clustering.stream import ClusterFeature, OnlineClusterer
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
    """A ClusterFeature built from a short stream of weighted points."""
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    cf = ClusterFeature.from_point(draw(point2), weight=draw(weight))
    for _ in range(n - 1):
        cf.absorb(draw(point2), weight=draw(weight))
    return cf


def assert_cf_close(a, b):
    np.testing.assert_allclose(a.count, b.count, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(a.weight, b.weight, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(a.linear_sum, b.linear_sum,
                               rtol=1e-12, atol=1e-6)
    np.testing.assert_allclose(a.square_sum, b.square_sum,
                               rtol=1e-12, atol=1e-6)


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------
@given(cluster_features(), cluster_features())
def test_merge_commutes(a, b):
    ab = a.copy()
    ab.merge(b)
    ba = b.copy()
    ba.merge(a)
    assert_cf_close(ab, ba)


@given(cluster_features(), cluster_features(), cluster_features())
def test_merge_associates(a, b, c):
    left = a.copy()
    left.merge(b)
    left.merge(c)
    bc = b.copy()
    bc.merge(c)
    right = a.copy()
    right.merge(bc)
    assert_cf_close(left, right)


# ----------------------------------------------------------------------
# Variance clamping
# ----------------------------------------------------------------------
@given(cluster_features())
def test_recovered_variance_never_negative(cf):
    assert np.isfinite(cf.deviation)
    assert cf.deviation >= 0.0


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


def as_rows(cfs, d):
    """Stack ClusterFeatures into the kernel's SoA arrays."""
    if not cfs:
        return (np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d)))
    return (np.array([c.count for c in cfs], dtype=float),
            np.array([c.weight for c in cfs], dtype=float),
            np.stack([c.linear_sum for c in cfs]),
            np.stack([c.square_sum for c in cfs]))


@settings(deadline=None, max_examples=200)
@given(letter_streams())
def test_block_kernel_equals_sequential_add_on_tied_letters(case):
    """One block through the kernel equals a clusterer fed one point per
    call, from a carried start, counters included."""
    m, floor, points, weights, cuts = case
    split = cuts[0] if cuts else 0
    d = points.shape[1]
    start = OnlineClusterer(m, floor)
    for p, w in zip(points[:split], weights[:split]):
        start.extend(p[None, :], [w])
    counts, cl_weights, linear, square, stats = cfk.absorb_stream(
        *as_rows(start.clusters, d), points[split:], weights[split:],
        floor, m)

    sequential = OnlineClusterer(m, floor)
    sequential.replace_clusters(start.snapshot())
    with obs.observe() as (registry, _):
        for p, w in zip(points[split:], weights[split:]):
            sequential.extend(p[None, :], [w])
    assert stats == {event: int(registry.counter(
        f"clustering.micro.{event}").snapshot())
        for event in ("spawned", "absorbed", "merged")}
    want = as_rows(sequential.clusters, d)
    for got, expected in zip((counts, cl_weights, linear, square), want):
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
