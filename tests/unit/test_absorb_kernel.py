"""The block absorb kernel against its three references.

* the sequential :meth:`OnlineClusterer.add` path (both on the numpy
  backend) — the contract ``extend`` documents;
* the kernel it replaced (``absorb_stream_pr14``, kept only as a test
  fixture) — bitwise on the four CF arrays *and* the event counts;
* the scalar oracle at d = 3, where event counts are known to differ
  (pinned, not fixed — see ROADMAP aim 3).

Plus the closest-pair tie rule, Table II's batch ingest, and a
work-count guard against a distinct-point cliff.
"""

import numpy as np
import pytest

from repro.analysis import experiment
from repro.clustering.stream import ClusterFeature, OnlineClusterer
from repro.core.summarizer import ReplicaAccessSummary
from repro.kernels import _reference as ref
from repro.kernels import cf as cfk
from repro.runner import seed_sequence

from tests.unit.absorb_stream_pr14 import absorb_stream_pr14

DIMS = (2, 3, 5)
BUDGETS = (1, 2, 4, 7, 10, 11, 100)
RADIUS_FLOOR = 5.0


def empty_rows(d):
    return np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d))


def make_stream(kind, d, rng):
    """``(points, weights)`` of one of the shapes the repo feeds the kernel."""
    if kind == "blobs":                 # store flushes: clustered clients
        centers = rng.uniform(-200, 200, size=(6, d))
        points = centers[rng.integers(0, 6, size=240)] + rng.normal(
            0, 6, size=(240, d))
    elif kind == "repeated":            # placement.online: each row x 3
        points = np.repeat(rng.uniform(-150, 150, size=(70, d)), 3, axis=0)
    elif kind == "distinct":            # Table II: no point twice
        points = rng.uniform(-300, 300, size=(260, d))
    else:                               # "ties": equally spaced lattice
        points = np.zeros((90, d))
        points[:, 0] = 20.0 * rng.permutation(90)
    return points, rng.uniform(0.25, 4.0, size=len(points))


def carried_rows(d, m, rng):
    """CF rows a previous block left behind (at most ``m`` of them)."""
    points = rng.uniform(-200, 200, size=(3 * m + 5, d))
    rows = cfk.absorb_stream(*empty_rows(d), points, np.ones(len(points)),
                             RADIUS_FLOOR, m)
    return rows[:4]


def clusterer_from(rows, m):
    clusterer = OnlineClusterer(m, RADIUS_FLOOR)
    clusterer.replace_clusters([
        ClusterFeature(int(c), float(w), ls.copy(), ss.copy())
        for c, w, ls, ss in zip(*rows)])
    return clusterer


def assert_rows_equal(got, want):
    for g, w in zip(got[:4], want[:4]):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("kind", ["blobs", "repeated", "distinct", "ties"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("carried", [False, True], ids=["empty", "carried"])
def test_kernel_matches_sequential_add_and_previous_kernel(kind, d, carried):
    for m in BUDGETS:
        rng = np.random.default_rng([d, m, carried])
        points, weights = make_stream(kind, d, rng)
        start = carried_rows(d, m, rng) if carried else empty_rows(d)

        got = cfk.absorb_stream(*start, points, weights, RADIUS_FLOOR, m)
        want = absorb_stream_pr14(*start, points, weights, RADIUS_FLOOR, m)
        assert_rows_equal(got, want)
        assert got[4] == want[4]
        assert got[4]["spawned"] + got[4]["absorbed"] == len(points)
        assert got[0].shape[0] <= m

        sequential = clusterer_from(start, m)
        batched = clusterer_from(start, m)
        for p, w in zip(points, weights):
            sequential.add(p, weight=float(w))
        batched.extend(points, weights)
        assert len(batched) == len(sequential)
        for a, b in zip(batched.clusters, sequential.clusters):
            assert (a.count, a.weight) == (b.count, b.weight)
            np.testing.assert_array_equal(a.linear_sum, b.linear_sum)
            np.testing.assert_array_equal(a.square_sum, b.square_sum)


def test_closest_pair_ties_take_the_first_pair_and_keep_insertion_order():
    # Unit spacing 10 on a line, floor 0.1: every point spawns, and the
    # adjacent pairs tie at squared distance 100.
    def run(*xs):
        points = np.array([[float(x), 0.0] for x in xs])
        return cfk.absorb_stream(*empty_rows(2), points, np.ones(len(xs)),
                                 0.1, 3)

    counts, _, linear, _, stats = run(0, 10, 20, 30)
    # (0,1), (1,2), (2,3) tie: the first in row-major order merges.
    assert counts.tolist() == [2.0, 1.0, 1.0]
    assert linear[:, 0].tolist() == [10.0, 20.0, 30.0]
    assert stats == {"spawned": 4, "absorbed": 0, "merged": 1}

    counts, _, linear, _, stats = run(0, 10, 20, 30, 40)
    # Rows are now 5, 20, 30, 40: (1,2) and (2,3) tie, (1,2) wins; the
    # survivors stay in insertion order.
    assert counts.tolist() == [2.0, 2.0, 1.0]
    assert linear[:, 0].tolist() == [10.0, 50.0, 40.0]
    assert stats == {"spawned": 5, "absorbed": 0, "merged": 2}

    # Inserted out of order, the *row* order decides, not the geometry.
    counts, _, linear, _, _ = run(30, 0, 20, 10)
    # Rows 30, 0, 20, 10: pairs (0,2), (1,3), (2,3) tie; (0,2) merges.
    assert counts.tolist() == [2.0, 1.0, 1.0]
    assert linear[:, 0].tolist() == [50.0, 0.0, 10.0]


# ----------------------------------------------------------------------
# d = 3: numpy and the scalar oracle agree on rows, not on events
# ----------------------------------------------------------------------
def _three_d_tie_stream():
    """Seeded 12-point, 4-letter, m = 2 stream in 3-D.

    Two-point clusters put a repeated letter *exactly* one deviation
    from the centroid; ``einsum`` reduces the 3-vector of squares as
    ``(x² + z²) + y²`` while the oracle folds left to right, so the two
    land on opposite sides of ``distance <= radius``.
    """
    rng = np.random.default_rng(12)
    letters = rng.uniform(-100, 100, size=(4, 3))
    points = letters[rng.integers(0, 4, size=12)]
    args = (*empty_rows(3), points, np.ones(12), RADIUS_FLOOR, 2)
    return points, cfk.absorb_stream(*args), ref.absorb_stream(*args)


def test_three_d_backends_agree_on_rows():
    points, fast, oracle = _three_d_tie_stream()
    # spawn + merge-into-nearest adds the same terms as absorb.
    assert_rows_equal(fast, oracle)
    for stats in (fast[4], oracle[4]):
        assert stats["spawned"] + stats["absorbed"] == len(points)
        assert stats["merged"] == stats["spawned"] - 2


@pytest.mark.xfail(strict=True, reason=(
    "at d = 3 einsum's reduction order differs from the oracle's "
    "left-to-right fold; exact one-deviation ties flip absorb <-> spawn "
    "(ROADMAP aim 3: fold left to right in the numpy kernel and "
    "regenerate golden.json in a change of its own)"))
def test_three_d_backends_agree_on_events():
    _, fast, oracle = _three_d_tie_stream()
    assert fast[4] == oracle[4]


# ----------------------------------------------------------------------
# Table II ingests each replica's shard through the block kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_accesses", [100, 1_000])
def test_table2_batch_ingest_equals_per_access_ingest(n_accesses, monkeypatch):
    k, m, dim, seed = 3, 100, 3, 0
    pooled = []

    def capture(clusters, *args, **kwargs):
        pooled.extend(clusters)
        return place_replicas(clusters, *args, **kwargs)

    place_replicas = experiment.place_replicas
    monkeypatch.setattr(experiment, "place_replicas", capture)
    row = experiment.compute_table2_row(n_accesses, k, m, dim, seed)

    # The row's stream, drawn as compute_table2_row draws it.
    rng = np.random.default_rng(seed_sequence(seed, n_accesses))
    blob_centers = rng.uniform(-200, 200, size=(max(k, 2), dim))
    assignment = rng.integers(0, blob_centers.shape[0], size=n_accesses)
    points = blob_centers[assignment] + rng.normal(0, 15,
                                                   size=(n_accesses, dim))
    shard = rng.integers(0, k, size=n_accesses)
    summaries = [ReplicaAccessSummary(m, radius_floor=10.0)
                 for _ in range(k)]
    for point, s in zip(points, shard):
        summaries[s].record_access(point)
    want = [c for summary in summaries for c in summary.snapshot()]

    assert row.online_bytes == sum(s.wire_size_bytes() for s in summaries)
    assert len(pooled) == len(want)
    for got, ref_cluster in zip(pooled, want):
        assert (got.count, got.weight) == (ref_cluster.count,
                                           ref_cluster.weight)
        np.testing.assert_array_equal(got.linear_sum, ref_cluster.linear_sum)
        np.testing.assert_array_equal(got.square_sum, ref_cluster.square_sum)


# ----------------------------------------------------------------------
# No distinct-point cliff: numpy work per point does not depend on how
# many different points the block holds
# ----------------------------------------------------------------------
def test_distinct_points_cost_no_more_numpy_work_than_repeated_ones(
        monkeypatch):
    m, npts = 100, 5_000
    rng = np.random.default_rng(15)
    letters = rng.uniform(-300, 300, size=(20, 3))
    repeated = letters[rng.integers(0, 20, size=npts)]
    # The same decisions on 5 000 different points: each letter jittered
    # well inside the absorption radius.
    distinct = repeated + rng.uniform(-0.5, 0.5, size=(npts, 3))
    assert len(np.unique(distinct, axis=0)) == npts

    rows_per_call = []
    einsum = np.einsum

    def counting(subscripts, *operands, **kwargs):
        rows_per_call.append(operands[0].shape[0])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    calls = {}
    for name, block in (("repeated", repeated), ("distinct", distinct)):
        rows_per_call.clear()
        stats = cfk.absorb_stream(*empty_rows(3), block, np.ones(npts),
                                  RADIUS_FLOOR, m)[4]
        assert stats == {"spawned": 20, "absorbed": npts - 20, "merged": 0}
        assert max(rows_per_call) <= m + 1
        calls[name] = len(rows_per_call)
    assert calls["distinct"] <= calls["repeated"] <= npts
