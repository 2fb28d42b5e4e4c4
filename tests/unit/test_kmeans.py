"""Unit tests for repro.clustering.kmeans."""

import numpy as np
import pytest

from repro.clustering import KMeansResult, kmeans_pp_init, weighted_kmeans


def three_blobs(rng, n_per=30, spread=0.5):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([
        c + rng.normal(0, spread, size=(n_per, 2)) for c in centers
    ])
    return points, centers


class TestInit:
    def test_returns_k_centers(self):
        rng = np.random.default_rng(0)
        points, _ = three_blobs(rng)
        centers = kmeans_pp_init(points, 3, rng)
        assert centers.shape == (3, 2)

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(0)
        points = np.zeros((5, 2))
        with pytest.raises(ValueError, match="k must be"):
            kmeans_pp_init(points, 0, rng)
        with pytest.raises(ValueError, match="k must be"):
            kmeans_pp_init(points, 6, rng)

    def test_rejects_bad_weights(self):
        rng = np.random.default_rng(0)
        points = np.zeros((4, 2))
        with pytest.raises(ValueError, match="weights"):
            kmeans_pp_init(points, 2, rng, weights=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="weights"):
            kmeans_pp_init(points, 2, rng, weights=np.zeros(4))

    def test_duplicate_points_handled(self):
        rng = np.random.default_rng(0)
        points = np.zeros((10, 2))
        centers = kmeans_pp_init(points, 3, rng)
        assert centers.shape == (3, 2)
        assert np.all(centers == 0)

    def test_heavy_point_usually_seeds_first(self):
        rng = np.random.default_rng(0)
        points = np.array([[0.0, 0.0], [100.0, 100.0]])
        weights = np.array([1e-9, 1.0])
        hits = 0
        for _ in range(20):
            centers = kmeans_pp_init(points, 1, rng, weights)
            if np.allclose(centers[0], [100.0, 100.0]):
                hits += 1
        assert hits >= 19


class TestWeightedKMeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        points, true_centers = three_blobs(rng)
        result = weighted_kmeans(points, 3, rng=rng)
        # Each true center should have a recovered centroid within 1.0.
        for c in true_centers:
            dists = np.linalg.norm(result.centroids - c, axis=1)
            assert dists.min() < 1.0

    def test_unit_weights_equivalent_to_none(self):
        rng_points = np.random.default_rng(2)
        points, _ = three_blobs(rng_points)
        r1 = weighted_kmeans(points, 3, rng=np.random.default_rng(5))
        r2 = weighted_kmeans(points, 3, weights=np.ones(len(points)),
                             rng=np.random.default_rng(5))
        assert np.allclose(r1.centroids, r2.centroids)
        assert r1.inertia == pytest.approx(r2.inertia)

    def test_weights_pull_centroid(self):
        # Two points, one cluster: centroid is the weighted mean.
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        weights = np.array([1.0, 3.0])
        result = weighted_kmeans(points, 1, weights=weights,
                                 rng=np.random.default_rng(0))
        assert result.centroids[0, 0] == pytest.approx(7.5)

    def test_k_equal_n_returns_points(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        result = weighted_kmeans(points, 2, rng=np.random.default_rng(0))
        assert result.inertia == 0.0
        assert sorted(result.labels.tolist()) == [0, 1]

    def test_k_greater_than_n_degenerates(self):
        points = np.array([[1.0, 2.0]])
        result = weighted_kmeans(points, 5, rng=np.random.default_rng(0))
        assert result.centroids.shape == (1, 2)
        assert result.inertia == 0.0

    def test_labels_consistent_with_centroids(self):
        rng = np.random.default_rng(3)
        points, _ = three_blobs(rng)
        result = weighted_kmeans(points, 3, rng=rng)
        d = np.linalg.norm(points[:, None] - result.centroids[None], axis=-1)
        assert np.array_equal(result.labels, np.argmin(d, axis=1))

    def test_inertia_nonincreasing_in_k(self):
        rng = np.random.default_rng(4)
        points, _ = three_blobs(rng)
        inertias = [
            weighted_kmeans(points, k, rng=np.random.default_rng(0), n_init=6).inertia
            for k in (1, 2, 3, 5)
        ]
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-6

    def test_zero_weight_points_ignored_for_centroids(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
        weights = np.array([1.0, 1.0, 0.0])
        result = weighted_kmeans(points, 1, weights=weights,
                                 rng=np.random.default_rng(0))
        assert result.centroids[0, 0] == pytest.approx(0.5)

    def test_input_validation(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k must be positive"):
            weighted_kmeans(points, 0)
        with pytest.raises(ValueError, match="weights"):
            weighted_kmeans(points, 2, weights=np.ones(2))
        with pytest.raises(ValueError, match="non-negative"):
            weighted_kmeans(points, 2, weights=np.array([1.0, -2.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            weighted_kmeans(points, 2, weights=np.zeros(3))

    def test_cluster_weights_sum(self):
        rng = np.random.default_rng(5)
        points, _ = three_blobs(rng, n_per=10)
        w = rng.uniform(0.5, 2.0, size=len(points))
        result = weighted_kmeans(points, 3, weights=w, rng=rng)
        assert result.cluster_weights(w).sum() == pytest.approx(w.sum())
        assert result.cluster_weights().sum() == pytest.approx(len(points))

    def test_result_k_property(self):
        result = KMeansResult(np.zeros((4, 2)), np.zeros(8, dtype=int), 0.0, 1)
        assert result.k == 4

    def test_deterministic_given_rng(self):
        rng_points = np.random.default_rng(6)
        points, _ = three_blobs(rng_points)
        r1 = weighted_kmeans(points, 3, rng=np.random.default_rng(9))
        r2 = weighted_kmeans(points, 3, rng=np.random.default_rng(9))
        assert np.allclose(r1.centroids, r2.centroids)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_non_finite_points_are_refused(self, bad, k):
        points = np.array([[0.0, 0.0], [1.0, bad], [2.0, 0.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            weighted_kmeans(points, k)
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans_pp_init(points, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_refused(self, bad):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        weights = np.array([1.0, bad, 1.0])
        for k in (1, 2):
            with pytest.raises(ValueError, match="weights must be finite"):
                weighted_kmeans(points, k, weights=weights)
        with pytest.raises(ValueError, match="weights must be finite"):
            kmeans_pp_init(points, 2, np.random.default_rng(0), weights)

    def test_weights_summing_past_the_float_range_are_refused(self):
        points = np.array([[0.0], [1.0], [2.0]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="finite sum"):
            weighted_kmeans(points, 2, weights=np.full(3, 1e308))

    @pytest.mark.parametrize("n_init", [0, -1])
    def test_n_init_below_one_is_refused(self, n_init):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="n_init"):
            weighted_kmeans(points, 2, n_init=n_init)

    def test_overflowing_distances_are_refused(self):
        # Finite points whose squared distances overflow would give the
        # seeding a NaN CDF; Generator.choice raised here before.
        points = np.array([[0.0], [1e200], [-1e200]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="overflow"):
            weighted_kmeans(points, 2)

    @pytest.mark.parametrize("weights", [None, [1.0, 0.0, 1.0]])
    @pytest.mark.parametrize("k", [1, 2])
    def test_overflow_is_refused_for_every_k(self, k, weights):
        # k = 1 draws no k-means++ step after its first center; it used
        # to run every Lloyd iteration and return inertia inf (or nan:
        # 0 x inf with the zero weight).
        points = np.array([[0.0], [1e200], [-1e200]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="points too far apart: "
                              "squared distances overflow"):
            weighted_kmeans(points, k, weights=weights)

    def test_overflowing_inertia_is_refused(self):
        # Every squared distance is finite (the seeding passes), but the
        # inertia of one cluster over all ten points is not.
        points = np.array([[0.0]] * 5 + [[1.3e154]] * 5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="overflow"):
            weighted_kmeans(points, 1)

    def test_k_at_least_n_returns_the_points_unpadded(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        result = weighted_kmeans(points, 4, rng=rng)
        assert result.k == 2
        np.testing.assert_array_equal(result.centroids, points)
        assert rng.bit_generator.state == state
