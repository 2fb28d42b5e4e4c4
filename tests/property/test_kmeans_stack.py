"""Stacked k-means restarts == restarts one by one, bit for bit.

:func:`repro.clustering.kmeans.weighted_kmeans` seeds every restart from
one block of pre-drawn uniforms and runs Lloyd's iterations on all
restarts as one stack.  Its oracle, :mod:`tests.oracles.kmeans`, is the
per-restart code it replaced.  Both run on the same inputs and generator
state; the centroids and labels must agree byte for byte, the inertia
and iteration count exactly, and the generator must be left in the same
state.  The inputs lean on the cases where summation order shows:
lattice points with exact distance ties, zero and fractional weights,
negative-zero coordinates and Lloyd loops cut short by ``max_iter``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.clustering.kmeans import kmeans_pp_init, weighted_kmeans

from tests.oracles import kmeans as oracle

lattice = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
spread = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
counts = st.sampled_from([0.0, 1.0, 2.0, 7.0])
fractions = st.one_of(st.just(0.0),
                      st.floats(min_value=1e-3, max_value=10.0))


@st.composite
def instances(draw, max_n=300):
    # Half the draws above the paper's typical 24 pseudo-points.
    n = draw(st.one_of(st.integers(min_value=1, max_value=24),
                       st.integers(min_value=25, max_value=max_n)))
    d = draw(st.integers(min_value=1, max_value=3))
    # fill=nothing: every element drawn, not one repeated fill value.
    points = draw(hnp.arrays(np.float64, (n, d), fill=st.nothing(),
                             elements=draw(st.sampled_from([lattice,
                                                            spread]))))
    kind = draw(st.sampled_from(["none", "counts", "fractions"]))
    weights = None
    if kind != "none":
        weights = draw(hnp.arrays(
            np.float64, n, fill=st.nothing(),
            elements=counts if kind == "counts" else fractions))
        if weights.sum() == 0:
            weights[draw(st.integers(0, n - 1))] = 1.0
    return {
        "points": points,
        "k": draw(st.integers(min_value=1, max_value=8)),
        "weights": weights,
        "n_init": draw(st.integers(min_value=1, max_value=5)),
        "max_iter": draw(st.sampled_from([1, 2, 3, 100])),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
    }


def assert_same_run(case):
    seed = case.pop("seed")
    rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
    got = weighted_kmeans(rng=rng, **case)
    centroids, labels, inertia, iterations = oracle.weighted_kmeans(
        rng=oracle_rng, **case)
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.labels.tobytes() == labels.tobytes()
    assert got.inertia == inertia
    assert got.iterations == iterations
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(deadline=None, max_examples=150)
@given(instances())
def test_stacked_restarts_match_per_restart_runs(case):
    assert_same_run(case)


@settings(deadline=None, max_examples=60)
@given(instances(max_n=40))
def test_seeding_matches_sequential_choice(case):
    points, k = case["points"], case["k"]
    weights = (np.ones(len(points)) if case["weights"] is None
               else case["weights"])
    k = min(k, len(points))
    rng, oracle_rng = (np.random.default_rng(case["seed"]) for _ in range(2))
    got = kmeans_pp_init(points, k, rng, weights)
    want = oracle.kmeans_pp_init(points, k, oracle_rng, weights)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed,d,k,weighted", [
    (0, 2, 7, False), (1, 3, 4, True), (2, 1, 5, True)])
def test_table_two_sized_runs_match(seed, d, k, weighted):
    # Table II's offline baseline clusters 10 000 points; clusters of
    # hundreds of points take the per-segment sums.
    gen = np.random.default_rng(seed)
    points = gen.normal(size=(10_000, d)) * 40.0
    weights = gen.uniform(0.0, 3.0, size=10_000) if weighted else None
    assert_same_run({"points": points, "k": k, "weights": weights,
                     "n_init": 4, "max_iter": 100, "seed": seed})
