"""Unit tests for repro.clustering.stream: the MicroClusters record, and
the stream rule by which a ReplicaAccessSummary maintains one."""

import numpy as np
import pytest

from repro.clustering import MicroClusters, micro_cluster_bytes
from repro.core import ReplicaAccessSummary
from repro.kernels import cf


def fold(points, weights=None, budget=1, floor=1e9):
    """The record a summary builds from ``points`` (by default one
    cluster: the radius floor absorbs every point)."""
    summary = ReplicaAccessSummary(budget, radius_floor=floor)
    summary.record_batch(points, weights)
    return summary.clusters


class TestClusterFeature:
    """One row of a record is one CF vector."""

    def test_singleton_stats(self):
        record = fold([[3.0, 4.0]], [2.0])
        assert (len(record), record.dim) == (1, 2)
        assert (record.counts[0], record.weights[0]) == (1.0, 2.0)
        np.testing.assert_array_equal(record.centroids, [[3.0, 4.0]])
        np.testing.assert_array_equal(record.deviations, [0.0])

    def test_rejects_matrix_point(self):
        with pytest.raises(ValueError, match=r"\(n, d\) block"):
            fold(np.zeros((2, 2, 2)))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            fold(np.zeros((2, 2)), [1.0, -0.5])

    def test_absorb_updates_centroid(self):
        record = fold([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(record.centroids, [[1.0, 1.0]])
        assert record.counts[0] == 2

    def test_deviation_matches_numpy_std(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 3))
        # deviation = sqrt(sum over dims of per-dim variance)
        expected = np.sqrt(np.sum(points.var(axis=0)))
        assert fold(points).deviations[0] == pytest.approx(expected,
                                                           rel=1e-9)

    def test_merge_equals_bulk_absorb(self):
        # With no radius floor the far point spawns and, over a budget
        # of one, merges back: the same CF as absorbing it.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]])
        weights = np.array([1.0, 2.0, 4.0])
        merged = fold(points, weights, floor=0.0)
        absorbed = fold(points, weights)
        for name in ("counts", "weights", "linear", "square"):
            np.testing.assert_array_equal(getattr(merged, name),
                                          getattr(absorbed, name))

    def test_dimension_mismatch_rejected(self):
        summary = ReplicaAccessSummary(4)
        summary.record_batch(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="3-dimensional .* "
                                             "2-dimensional"):
            summary.record_batch(np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"widths \[2, 3\]"):
            MicroClusters.concat([fold(np.zeros((1, 2))),
                                  fold(np.zeros((1, 3)))])

    def test_copy_is_independent(self):
        # A record copies its columns: writing to the arrays it was
        # built from does not reach it.
        counts, linear = np.array([1.0]), np.array([[1.0, 1.0]])
        record = MicroClusters(counts, counts, linear, linear)
        counts[0], linear[0, 0] = 2.0, 3.0
        assert record.counts[0] == 1.0
        np.testing.assert_array_equal(record.linear, [[1.0, 1.0]])

    def test_wire_size_under_1kb(self):
        # The paper states each micro-cluster serializes under 1 KB.
        record = fold(np.zeros((1, 4)))
        assert record.wire_size_bytes == micro_cluster_bytes(4) < 1024


class TestMicroClusters:
    def test_empty_record(self):
        assert (len(MicroClusters.empty()), MicroClusters.empty().dim) == (
            0, 0)
        empty = MicroClusters.empty(3)
        assert (len(empty), empty.dim, empty.wire_size_bytes) == (0, 3, 0)

    def test_concat_keeps_row_order(self):
        a = fold([[0.0, 0.0], [100.0, 0.0]], budget=2, floor=1.0)
        b = fold([[7.0, 7.0]])
        pooled = MicroClusters.concat([a, MicroClusters.empty(), b])
        np.testing.assert_array_equal(
            pooled.centroids, [[0.0, 0.0], [100.0, 0.0], [7.0, 7.0]])
        assert pooled.wire_size_bytes == (a.wire_size_bytes
                                          + b.wire_size_bytes)
        assert len(MicroClusters.concat([])) == 0

    def test_columns_must_agree(self):
        for columns in (([1.0, 1.0], [1.0], [[0.0]], [[0.0]]),
                        ([1.0], [1.0], [0.0, 0.0], [[0.0, 0.0]])):
            with pytest.raises(ValueError, match="expected columns"):
                MicroClusters(*columns)


class TestOnlineClusterer:
    """The paper's maintenance rule, as a summary runs it."""

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ReplicaAccessSummary(0)
        with pytest.raises(ValueError, match="radius floor"):
            ReplicaAccessSummary(3, radius_floor=-1.0)

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(2)
        summary = ReplicaAccessSummary(4, radius_floor=0.1)
        for _ in range(500):
            summary.record_batch(rng.uniform(-100, 100, size=(1, 2)))
            assert len(summary) <= 4

    def test_counts_conserved(self):
        rng = np.random.default_rng(3)
        summary = ReplicaAccessSummary(5)
        n = 200
        summary.record_batch(rng.normal(size=(n, 2)), np.full(n, 2.0))
        assert summary.clusters.counts.sum() == n == summary.accesses
        assert summary.clusters.weights.sum() == pytest.approx(2.0 * n)

    def test_nearby_points_absorbed_into_one_cluster(self):
        summary = ReplicaAccessSummary(10, radius_floor=5.0)
        rng = np.random.default_rng(4)
        summary.record_batch(rng.normal(0.0, 0.5, size=(100, 2)))
        assert len(summary) == 1

    def test_separated_blobs_get_separate_clusters(self):
        summary = ReplicaAccessSummary(10, radius_floor=2.0)
        rng = np.random.default_rng(5)
        blobs = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        summary.record_batch([blobs[rng.integers(0, 3)]
                              + rng.normal(0, 0.5, size=2)
                              for _ in range(60)])
        assert len(summary) == 3
        centroids = sorted(tuple(np.round(c, -1))
                           for c in summary.clusters.centroids)
        assert centroids == [(0.0, 0.0), (0.0, 100.0), (100.0, 0.0)]

    def test_merge_picks_closest_pair(self):
        summary = ReplicaAccessSummary(2, radius_floor=0.5)
        # The third point is near the origin but outside the floor: it
        # spawns a cluster and forces a merge of the two closest (the
        # two near the origin).
        summary.record_batch(np.array([[0.0, 0.0], [100.0, 0.0],
                                       [3.0, 0.0]]))
        record = summary.clusters
        assert sorted(record.counts) == [1, 2]
        merged = int(np.argmax(record.counts))
        np.testing.assert_allclose(record.centroids[merged], [1.5, 0.0])

    def test_snapshot_is_deep(self):
        summary = ReplicaAccessSummary(3)
        summary.record_batch(np.array([[1.0, 1.0]]))
        shipped = summary.clusters
        summary.record_batch(np.array([[1.1, 1.1]]))
        assert shipped.counts[0] == 1
        assert summary.clusters.counts[0] == 2

    def test_reset(self):
        summary = ReplicaAccessSummary(3)
        summary.record_batch(np.zeros((1, 2)))
        summary.reset()
        assert len(summary) == 0 and summary.accesses == 0
        assert summary.clusters.dim == 0

    def test_extend_with_weights(self):
        summary = ReplicaAccessSummary(3)
        summary.record_batch([np.zeros(2), np.ones(2)], [1.0, 3.0])
        assert summary.clusters.weights.sum() == pytest.approx(4.0)

    def test_extend_without_weights(self):
        summary = ReplicaAccessSummary(3)
        summary.record_batch([np.zeros(2), np.ones(2)])
        assert summary.clusters.counts.sum() == 2

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
        summary = ReplicaAccessSummary(budget)
        summary.record_batch([[5.0, 5.0]])
        with pytest.raises(ValueError, match=f"row {row} exceeds the "
                                             "coordinate bound 1e\\+150"):
            summary.record_batch(points)
        assert (summary.accesses, summary.clusters.counts.sum()) == (1, 1)

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_points_at_the_coordinate_bound_keep_every_point(self, d):
        bound = cf.COORD_BOUND
        corners = np.array([[bound] * d, [-bound] * d, [0.0] * d,
                            [-bound] * d, [bound] * d])
        for budget in (1, 2, 100):
            summary = ReplicaAccessSummary(budget, radius_floor=0.0)
            summary.record_batch(corners)
            assert summary.clusters.counts.sum() == summary.accesses == 5
            assert np.isfinite(summary.clusters.square).all()
