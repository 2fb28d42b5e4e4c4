"""Unit tests for repro.clustering.stream."""

import numpy as np
import pytest

from repro.clustering import ClusterFeature, OnlineClusterer
from repro.kernels import cf


class TestClusterFeature:
    def test_singleton_stats(self):
        cf = ClusterFeature.from_point(np.array([3.0, 4.0]), weight=2.0)
        assert cf.count == 1
        assert cf.weight == 2.0
        assert np.allclose(cf.centroid, [3.0, 4.0])
        assert cf.deviation == 0.0
        assert cf.dim == 2

    def test_rejects_matrix_point(self):
        with pytest.raises(ValueError, match="1-D"):
            ClusterFeature.from_point(np.zeros((2, 2)))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            ClusterFeature.from_point(np.zeros(2), weight=-1.0)
        cf = ClusterFeature.from_point(np.zeros(2))
        with pytest.raises(ValueError, match="non-negative"):
            cf.absorb(np.ones(2), weight=-0.5)

    def test_absorb_updates_centroid(self):
        cf = ClusterFeature.from_point(np.array([0.0, 0.0]))
        cf.absorb(np.array([2.0, 2.0]))
        assert np.allclose(cf.centroid, [1.0, 1.0])
        assert cf.count == 2

    def test_deviation_matches_numpy_std(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 3))
        cf = ClusterFeature.from_point(points[0])
        for p in points[1:]:
            cf.absorb(p)
        # deviation = sqrt(sum over dims of per-dim variance)
        expected = np.sqrt(np.sum(points.var(axis=0)))
        assert cf.deviation == pytest.approx(expected, rel=1e-9)

    def test_merge_equals_bulk_absorb(self):
        rng = np.random.default_rng(1)
        a_pts = rng.normal(size=(10, 2))
        b_pts = rng.normal(size=(7, 2))
        a = ClusterFeature.from_point(a_pts[0])
        for p in a_pts[1:]:
            a.absorb(p)
        b = ClusterFeature.from_point(b_pts[0], weight=2.0)
        for p in b_pts[1:]:
            b.absorb(p, weight=2.0)
        merged = a.copy()
        merged.merge(b)
        combined = ClusterFeature.from_point(a_pts[0])
        for p in a_pts[1:]:
            combined.absorb(p)
        for p in b_pts:
            combined.absorb(p, weight=2.0)
        assert merged.count == combined.count
        assert merged.weight == pytest.approx(combined.weight)
        assert np.allclose(merged.linear_sum, combined.linear_sum)
        assert np.allclose(merged.square_sum, combined.square_sum)

    def test_dimension_mismatch_rejected(self):
        cf = ClusterFeature.from_point(np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            cf.absorb(np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            cf.merge(ClusterFeature.from_point(np.zeros(3)))

    def test_copy_is_independent(self):
        cf = ClusterFeature.from_point(np.array([1.0, 1.0]))
        dup = cf.copy()
        dup.absorb(np.array([3.0, 3.0]))
        assert cf.count == 1
        assert dup.count == 2

    def test_wire_size_under_1kb(self):
        # The paper states each micro-cluster serializes under 1 KB.
        cf = ClusterFeature.from_point(np.zeros(4))
        assert cf.wire_size_bytes < 1024


class TestOnlineClusterer:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            OnlineClusterer(0)
        with pytest.raises(ValueError, match="radius floor"):
            OnlineClusterer(3, radius_floor=-1.0)

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(2)
        clusterer = OnlineClusterer(max_clusters=4, radius_floor=0.1)
        for _ in range(500):
            clusterer.extend(rng.uniform(-100, 100, size=(1, 2)))
            assert len(clusterer) <= 4

    def test_counts_conserved(self):
        rng = np.random.default_rng(3)
        clusterer = OnlineClusterer(max_clusters=5)
        n = 200
        clusterer.extend(rng.normal(size=(n, 2)), np.full(n, 2.0))
        assert clusterer.total_count == n
        assert clusterer.total_weight == pytest.approx(2.0 * n)
        assert clusterer.points_seen == n

    def test_nearby_points_absorbed_into_one_cluster(self):
        clusterer = OnlineClusterer(max_clusters=10, radius_floor=5.0)
        rng = np.random.default_rng(4)
        clusterer.extend(rng.normal(0.0, 0.5, size=(100, 2)))
        assert len(clusterer) == 1

    def test_separated_blobs_get_separate_clusters(self):
        clusterer = OnlineClusterer(max_clusters=10, radius_floor=2.0)
        rng = np.random.default_rng(5)
        blobs = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        clusterer.extend([blobs[rng.integers(0, 3)]
                          + rng.normal(0, 0.5, size=2) for _ in range(60)])
        assert len(clusterer) == 3
        centroids = sorted(tuple(np.round(c.centroid, -1)) for c in clusterer)
        assert centroids == [(0.0, 0.0), (0.0, 100.0), (100.0, 0.0)]

    def test_merge_picks_closest_pair(self):
        clusterer = OnlineClusterer(max_clusters=2, radius_floor=0.5)
        # The third point is near the origin but outside the floor: it
        # spawns a cluster and forces a merge of the two closest (the
        # two near the origin).
        clusterer.extend(np.array([[0.0, 0.0], [100.0, 0.0], [3.0, 0.0]]))
        assert len(clusterer) == 2
        counts = sorted(c.count for c in clusterer)
        assert counts == [1, 2]
        merged = max(clusterer.clusters, key=lambda c: c.count)
        assert np.allclose(merged.centroid, [1.5, 0.0])

    def test_snapshot_is_deep(self):
        clusterer = OnlineClusterer(max_clusters=3)
        clusterer.extend(np.array([[1.0, 1.0]]))
        snap = clusterer.snapshot()
        clusterer.extend(np.array([[1.1, 1.1]]))
        assert snap[0].count == 1

    def test_reset(self):
        clusterer = OnlineClusterer(max_clusters=3)
        clusterer.extend(np.zeros((1, 2)))
        clusterer.reset()
        assert len(clusterer) == 0
        assert clusterer.points_seen == 0

    def test_extend_with_weights(self):
        clusterer = OnlineClusterer(max_clusters=3)
        points = [np.zeros(2), np.ones(2)]
        clusterer.extend(points, weights=[1.0, 3.0])
        assert clusterer.total_weight == pytest.approx(4.0)

    def test_extend_without_weights(self):
        clusterer = OnlineClusterer(max_clusters=3)
        clusterer.extend([np.zeros(2), np.ones(2)])
        assert clusterer.total_count == 2

    def test_iteration_yields_clusters(self):
        clusterer = OnlineClusterer(max_clusters=3, radius_floor=0.1)
        clusterer.extend(np.array([[0.0, 0.0], [50.0, 50.0]]))
        assert all(isinstance(c, ClusterFeature) for c in clusterer)

    @pytest.mark.parametrize("budget, points, row", [
        (2, [[0, 0], [1e200, 0], [-1e200, 0], [3, 0]], 1),
        (1, [[1e160, 0], [-1e160, 0]], 0),
        (4, [[0, 0], [1, 0], [0, -1.5e150]], 2),
    ])
    def test_points_whose_squares_overflow_are_refused(self, budget, points,
                                                       row):
        # Finite points this far apart have squared distances of inf: the
        # closest pair is undefined, and a merge used to fold a cluster
        # into itself and delete it, losing its points.
        clusterer = OnlineClusterer(budget)
        clusterer.extend([[5.0, 5.0]])
        with pytest.raises(ValueError, match=f"row {row} exceeds the "
                                             "coordinate bound 1e\\+150"):
            clusterer.extend(points)
        assert (clusterer.points_seen, clusterer.total_count) == (1, 1)

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_points_at_the_coordinate_bound_keep_every_point(self, d):
        bound = cf.COORD_BOUND
        corners = np.array([[bound] * d, [-bound] * d, [0.0] * d,
                            [-bound] * d, [bound] * d])
        for budget in (1, 2, 100):
            clusterer = OnlineClusterer(budget, radius_floor=0.0)
            clusterer.extend(corners)
            assert clusterer.total_count == clusterer.points_seen == 5
            assert all(np.isfinite(c.square_sum).all() for c in clusterer)
