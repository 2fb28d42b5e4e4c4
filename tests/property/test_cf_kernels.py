"""Hypothesis property tests for the micro-cluster CF kernel algebra.

The CF vector (count, weight, linear_sum, square_sum) is an additive
summary: merging must commute and associate, splitting must conserve
what the paper's coordinator sums over, and recovered variance must
never go negative however the floating point falls.  These invariants
gate the batched :mod:`repro.kernels.cf` kernels.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.clustering.stream import ClusterFeature, OnlineClusterer
from repro.kernels import _reference as ref
from repro.kernels import cf as cfk

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


def as_rows(*cfs):
    """Stack ClusterFeatures into the kernel's SoA arrays."""
    return (np.array([c.count for c in cfs], dtype=float),
            np.array([c.weight for c in cfs], dtype=float),
            np.stack([c.linear_sum for c in cfs]),
            np.stack([c.square_sum for c in cfs]))


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


@given(cluster_features(), cluster_features())
def test_merge_rows_matches_object_merge(a, b):
    counts, weights, linear, square = as_rows(a, b)
    counts, weights, linear, square = cfk.merge_rows(
        counts, weights, linear, square, keep=0, drop=1)
    merged = a.copy()
    merged.merge(b)
    assert counts.shape == (1,)
    np.testing.assert_allclose(counts[0], merged.count, rtol=1e-12)
    np.testing.assert_allclose(weights[0], merged.weight, rtol=1e-12)
    np.testing.assert_allclose(linear[0], merged.linear_sum, rtol=1e-12)
    np.testing.assert_allclose(square[0], merged.square_sum, rtol=1e-12)


# ----------------------------------------------------------------------
# Split conservation
# ----------------------------------------------------------------------
@given(cluster_features(min_points=2))
def test_absorb_then_split_conserves_mass(cf):
    first, second = cf.split()
    # Count and weight are conserved *exactly*: counts split integrally
    # and the proportional weight split keeps w1 within [w/2, w], so the
    # subtraction w - w1 is exact by Sterbenz's lemma.  The linear sum's
    # second half is also computed by subtraction, but the halves sit
    # ±sigma from the mean and can cancel, so re-adding them only
    # round-trips to within one ulp.
    assert first.count + second.count == cf.count
    assert first.weight + second.weight == cf.weight
    total = first.linear_sum + second.linear_sum
    scale = np.maximum.reduce([np.abs(cf.linear_sum),
                               np.abs(first.linear_sum),
                               np.abs(second.linear_sum)])
    assert np.all(np.abs(total - cf.linear_sum)
                  <= 4 * np.finfo(float).eps * scale)
    assert np.all(first.square_sum >= 0.0)
    assert np.all(second.square_sum >= 0.0)
    assert first.count >= second.count >= 0


@given(cluster_features(min_points=2))
def test_split_halves_recover_valid_deviation(cf):
    for half in cf.split():
        if half.count > 0:
            assert np.isfinite(half.deviation)
            assert half.deviation >= 0.0


# ----------------------------------------------------------------------
# Variance clamping
# ----------------------------------------------------------------------
@given(cluster_features())
def test_recovered_variance_never_negative(cf):
    dev = cfk.deviations(*[np.atleast_1d(x) for x in
                           (cf.count,)],
                         cf.linear_sum[None, :], cf.square_sum[None, :])
    assert dev.shape == (1,)
    assert np.isfinite(dev[0])
    assert dev[0] >= 0.0


@given(st.lists(st.tuples(point2, weight), min_size=1, max_size=20))
def test_deviation_backends_agree(stream):
    cf = ClusterFeature.from_point(stream[0][0], weight=stream[0][1])
    for p, w in stream[1:]:
        cf.absorb(p, weight=w)
    args = (np.atleast_1d(cf.count), cf.linear_sum[None, :],
            cf.square_sum[None, :])
    np.testing.assert_array_equal(cfk.deviations(*args),
                                  ref.deviations(*args))


# ----------------------------------------------------------------------
# Batched stream maintenance: backend equivalence as a property
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
# The block kernel equals the sequential ``add`` path on exact ties
# ----------------------------------------------------------------------
@st.composite
def letter_streams(draw):
    """A stream over 2–6 integer-valued letters in d = 1 … 7.

    Every sum is exact, so a repeated letter lands *exactly* one
    deviation from a two-member centroid — and, when the letters lie on
    one axis, exactly as far from two centroids: the ties where the
    block kernel and the per-point path could part.  ``split`` points
    are folded in first (the carried start), the rest form the block.
    """
    d = draw(st.integers(min_value=1, max_value=7))
    letters = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        min_size=2, max_size=6))
    if draw(st.booleans()):
        letters = [[row[0]] + [0] * (d - 1) for row in letters]
    picks = draw(st.lists(st.integers(0, len(letters) - 1),
                          min_size=1, max_size=40))
    weights = draw(st.lists(weight, min_size=len(picks),
                            max_size=len(picks)))
    split = (draw(st.integers(0, len(picks) - 1))
             if draw(st.booleans()) else 0)
    return (draw(st.integers(min_value=1, max_value=12)),
            draw(st.sampled_from([0.0, 1.0, 2.0])),
            np.array([letters[i] for i in picks], dtype=float),
            np.array(weights), split)


@settings(deadline=None, max_examples=200)
@given(letter_streams())
def test_block_kernel_equals_sequential_add_on_tied_letters(case):
    m, floor, points, weights, split = case
    start = OnlineClusterer(m, floor)
    for p, w in zip(points[:split], weights[:split]):
        start.add(p, weight=float(w))
    rows = (as_rows(*start.clusters) if len(start)
            else (np.zeros(0), np.zeros(0), np.zeros((0, points.shape[1])),
                  np.zeros((0, points.shape[1]))))
    counts, cl_weights, linear, square, stats = cfk.absorb_stream(
        *rows, points[split:], weights[split:], floor, m)

    sequential = OnlineClusterer(m, floor)
    sequential.replace_clusters(start.snapshot())
    with obs.observe() as (registry, _):
        for p, w in zip(points[split:], weights[split:]):
            sequential.add(p, weight=float(w))
    assert stats == {event: int(registry.counter(
        f"clustering.micro.{event}").snapshot())
        for event in ("spawned", "absorbed", "merged")}
    want = as_rows(*sequential.clusters)
    for got, expected in zip((counts, cl_weights, linear, square), want):
        np.testing.assert_array_equal(got, expected)
