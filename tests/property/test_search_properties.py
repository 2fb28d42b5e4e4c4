"""Property-based test of the one placement search, ``swap_descent``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.search import TOLERANCE, swap_descent


@st.composite
def searches(draw):
    """A small cost matrix, a pool, a distinct start and a round limit."""
    n = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.integers(min_value=1, max_value=5))
    # Few distinct values, so ties and exact-tolerance cases are common.
    cost = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 1.0, 1.0 + 1e-13, 2.5, 7.0, 40.0]),
                 min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    pool = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    start = draw(st.lists(st.integers(0, n - 1), unique=True,
                          min_size=1, max_size=min(n, 3)))
    return cost, pool, start, draw(st.integers(min_value=0, max_value=4))


@given(searches())
@settings(max_examples=300, deadline=None)
def test_swap_descent(search):
    cost, pool, start, max_rounds = search

    def score(sites):
        return float(cost[:, sites].min(axis=1).sum())

    # Every accepted swap lowers the score, so no placement repeats and
    # a limit above the number of placements is never what stops it.
    converged, converged_value = swap_descent(start, pool, score,
                                              max_rounds=1000)
    limited, limited_value = swap_descent(start, pool, score,
                                          max_rounds=max_rounds)
    for sites, value in ((converged, converged_value),
                         (limited, limited_value)):
        assert len(set(sites)) == len(sites) == len(start)
        assert set(sites) <= set(pool) | set(start)
        assert value == score(sites) <= score(start)
    # The limited run is a prefix of the converged one's trajectory.
    assert converged_value <= limited_value
    if max_rounds == 0:
        assert limited == start

    # Converged: no single swap from the pool improves by more than the
    # tolerance.
    for slot in range(len(converged)):
        for candidate in set(pool) - set(converged):
            trial = list(converged)
            trial[slot] = candidate
            assert not score(trial) < converged_value - TOLERANCE
    # A run that stopped before its limit is that converged placement.
    if limited != converged:
        again, _ = swap_descent(start, pool, score, max_rounds=max_rounds + 1)
        assert again != limited
