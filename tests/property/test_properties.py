"""Property-based tests (hypothesis) for core data structures/invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.clustering import ClusterFeature, OnlineClusterer, weighted_kmeans
from repro.coords import EuclideanSpace
from repro.core import MigrationCostModel, MigrationPolicy, estimate_average_delay
from repro.net import LatencyMatrix
from repro.placement.base import average_access_delay
from repro.sim import EventQueue

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite_coord = st.floats(min_value=-1e4, max_value=1e4,
                         allow_nan=False, allow_infinity=False)
point2 = st.tuples(finite_coord, finite_coord).map(
    lambda t: np.array(t, dtype=float))
points2 = st.lists(point2, min_size=1, max_size=40)
weights = st.floats(min_value=0.0, max_value=1e3,
                    allow_nan=False, allow_infinity=False)


def rtt_matrix(draw, n):
    vals = draw(st.lists(
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return LatencyMatrix.from_condensed(vals)


matrix_strategy = st.integers(min_value=3, max_value=12).flatmap(
    lambda n: st.builds(
        LatencyMatrix.from_condensed,
        st.lists(st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
                 min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))


# ----------------------------------------------------------------------
# ClusterFeature
# ----------------------------------------------------------------------
class TestClusterFeatureProperties:
    @given(points2)
    @settings(max_examples=60, deadline=None)
    def test_centroid_is_exact_mean(self, pts):
        cf = ClusterFeature.from_point(pts[0])
        for p in pts[1:]:
            cf.absorb(p)
        assert np.allclose(cf.centroid, np.mean(pts, axis=0), atol=1e-6)

    @given(points2)
    @settings(max_examples=60, deadline=None)
    def test_deviation_matches_numpy(self, pts):
        cf = ClusterFeature.from_point(pts[0])
        for p in pts[1:]:
            cf.absorb(p)
        arr = np.stack(pts)
        expected = float(np.sqrt(np.sum(arr.var(axis=0))))
        # The CF-vector recovers the deviation via E[X^2] - E[X]^2 (the
        # paper's footnote-1 identity), which loses precision by
        # cancellation when the deviation is tiny relative to the
        # magnitude of the coordinates — so the tolerance must scale
        # with that magnitude, not just with the expected deviation.
        magnitude = float(np.sqrt(np.mean(arr ** 2))) or 1.0
        tolerance = 1e-4 * max(expected, magnitude) + 1e-6
        assert abs(cf.deviation - expected) <= tolerance

    @given(points2, points2)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_equivalent_to_union(self, a_pts, b_pts):
        a = ClusterFeature.from_point(a_pts[0])
        for p in a_pts[1:]:
            a.absorb(p)
        b = ClusterFeature.from_point(b_pts[0])
        for p in b_pts[1:]:
            b.absorb(p)
        a.merge(b)
        union = ClusterFeature.from_point(a_pts[0])
        for p in a_pts[1:] + b_pts:
            union.absorb(p)
        assert a.count == union.count
        assert np.allclose(a.linear_sum, union.linear_sum)
        assert np.allclose(a.square_sum, union.square_sum)

    @given(points2)
    @settings(max_examples=60, deadline=None)
    def test_deviation_never_negative(self, pts):
        cf = ClusterFeature.from_point(pts[0])
        for p in pts[1:]:
            cf.absorb(p)
        assert cf.deviation >= 0.0


# ----------------------------------------------------------------------
# OnlineClusterer
# ----------------------------------------------------------------------
class TestOnlineClustererProperties:
    @given(points2, st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_budget_and_conservation(self, pts, m, floor):
        clusterer = OnlineClusterer(m, radius_floor=floor)
        for p in pts:
            clusterer.add(p)
        assert len(clusterer) <= m
        assert clusterer.total_count == len(pts)
        # Total linear sum is conserved exactly.
        total = sum((c.linear_sum for c in clusterer),
                    start=np.zeros(2))
        assert np.allclose(total, np.sum(np.stack(pts), axis=0), atol=1e-6)

    @given(points2, st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_centroid_cache_consistent(self, pts, m):
        clusterer = OnlineClusterer(m, radius_floor=1.0)
        for p in pts:
            clusterer.add(p)
        cache = clusterer._centroid_cache
        assert cache is not None
        assert cache.shape == (len(clusterer), 2)
        for row, cluster in zip(cache, clusterer.clusters):
            assert np.allclose(row, cluster.centroid, atol=1e-9)


# ----------------------------------------------------------------------
# Weighted k-means
# ----------------------------------------------------------------------
class TestKMeansProperties:
    @given(points2, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_labels_valid_and_inertia_nonnegative(self, pts, k):
        arr = np.stack(pts)
        result = weighted_kmeans(arr, k, rng=np.random.default_rng(0))
        assert result.inertia >= 0.0
        assert result.labels.shape == (len(pts),)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.k

    @given(points2)
    @settings(max_examples=40, deadline=None)
    def test_k1_centroid_is_weighted_mean(self, pts):
        arr = np.stack(pts)
        w = np.arange(1.0, len(pts) + 1.0)
        result = weighted_kmeans(arr, 1, weights=w,
                                 rng=np.random.default_rng(0))
        expected = np.average(arr, axis=0, weights=w)
        assert np.allclose(result.centroids[0], expected, atol=1e-6)


# ----------------------------------------------------------------------
# Coordinate spaces
# ----------------------------------------------------------------------
class TestSpaceProperties:
    @given(point2, point2)
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetry_and_identity(self, a, b):
        space = EuclideanSpace(2)
        assert space.distance(a, b) == space.distance(b, a)
        assert space.distance(a, a) == 0.0

    @given(point2, point2, point2)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        space = EuclideanSpace(2)
        assert (space.distance(a, c)
                <= space.distance(a, b) + space.distance(b, c) + 1e-6)

    @given(point2, point2,
           st.floats(min_value=0, max_value=100, allow_nan=False),
           st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_height_distance_exceeds_planar(self, a, b, ha, hb):
        planar = EuclideanSpace(2)
        heighted = EuclideanSpace(2, use_height=True)
        pa = np.append(a, ha)
        pb = np.append(b, hb)
        assert (heighted.distance(pa, pb)
                >= planar.distance(a, b) - 1e-9)


# ----------------------------------------------------------------------
# Placement / delays
# ----------------------------------------------------------------------
class TestDelayProperties:
    @given(matrix_strategy, st.data())
    @settings(max_examples=40, deadline=None)
    def test_more_sites_never_increase_delay(self, matrix, data):
        n = matrix.n
        sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=n, unique=True))
        clients = list(range(n))
        full = average_access_delay(matrix, clients, sites)
        sub = average_access_delay(matrix, clients, sites[:1])
        assert full <= sub + 1e-9

    @given(matrix_strategy)
    @settings(max_examples=40, deadline=None)
    def test_delay_bounded_by_matrix_extremes(self, matrix):
        clients = list(range(matrix.n))
        delay = average_access_delay(matrix, clients, [0])
        assert 0.0 <= delay <= matrix.rtt.max() + 1e-9


# ----------------------------------------------------------------------
# Migration policy
# ----------------------------------------------------------------------
class TestMigrationProperties:
    @given(st.floats(min_value=0, max_value=1e4, allow_nan=False),
           st.floats(min_value=0, max_value=1e4, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_never_migrates_to_worse_placement(self, current, proposed):
        policy = MigrationPolicy(min_relative_gain=0.0,
                                 min_absolute_gain_ms=0.0)
        verdict = policy.decide(current, proposed, MigrationCostModel(),
                                (0,), (1,))
        if verdict.migrate:
            assert proposed <= current

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True),
           st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_cost_monotone_in_new_sites(self, old, new):
        model = MigrationCostModel(dollars_per_gb=0.1, object_size_gb=1.0)
        cost = model.cost_of_move(old, new)
        assert cost == len(set(new) - set(old)) * 0.1
        assert cost >= 0


# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------
class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_pops_in_time_order(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while q:
            popped.append(q.pop().time)
        assert popped == sorted(times)

    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.floats(0, 50, allow_nan=False),
                  st.booleans(), st.sampled_from([None, "a", "b"])),
        st.tuples(st.just("cancel"), st.integers(0, 100)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("track"))), max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_scope_barrier_time_is_brute_force_minimum(self, ops):
        """For scope ``s`` the barrier time is the least time of a queued,
        live, non-inert event whose scope is ``None`` or ``s``; untracked,
        the queue answers its head conservatively."""
        q = EventQueue()
        pushed, queued, tracking = [], [], False
        for op in ops:
            if op[0] == "push":
                event = q.push(op[1], lambda: None, inert=op[2], scope=op[3])
                pushed.append(event)
                queued.append(event)
            elif op[0] == "cancel" and pushed:
                pushed[op[1] % len(pushed)].cancel()
            elif op[0] == "pop" and q:
                popped = q.pop()
                queued = [e for e in queued if e is not popped]
            elif op[0] == "compact":
                q.compact()
            elif op[0] == "track":
                q.enable_barrier_tracking()
                tracking = True
            barriers = [e for e in queued if not e.inert and not e.cancelled]
            for scope in (None, "a", "b", "c"):
                if tracking:
                    expected = min((e.time for e in barriers
                                    if e.scope in (None, scope)),
                                   default=float("inf"))
                else:
                    expected = q.peek_time() if q else float("inf")
                assert q.scope_barrier_time(scope) == expected
            if tracking:
                assert q.next_barrier_time() == min(
                    (e.time for e in barriers), default=float("inf"))


# ----------------------------------------------------------------------
# estimate_average_delay
# ----------------------------------------------------------------------
class TestEstimateProperties:
    @given(points2, points2)
    @settings(max_examples=40, deadline=None)
    def test_estimate_bounded_by_extremes(self, user_pts, replica_pts):
        micros = [ClusterFeature.from_point(p) for p in user_pts]
        replicas = np.stack(replica_pts)
        est = estimate_average_delay(micros, replicas)
        per_user = [
            min(np.linalg.norm(u - r) for r in replica_pts)
            for u in user_pts
        ]
        assert min(per_user) - 1e-6 <= est <= max(per_user) + 1e-6
