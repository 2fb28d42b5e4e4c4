"""Unit tests for the :mod:`repro.kernels` layer.

Covers the backend switch API, equality of every numpy kernel with its
scalar twin in :mod:`repro.kernels._reference` (called directly),
eligibility masking, the batched CF maintenance kernel against the
sequential rule, and the deterministic empty-cluster reseed regression.
"""

import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import kernels
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.stream import ClusterFeature, OnlineClusterer
from repro.kernels import _reference as ref
from repro.kernels import cf as cfk
from repro.kernels import wkmeans as wk


# ----------------------------------------------------------------------
# Backend switch API
# ----------------------------------------------------------------------
def run_python(code, backend=None):
    """Run ``code`` in a fresh interpreter with the env default set/unset."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if backend is not None:
        env["REPRO_KERNEL_BACKEND"] = backend
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)


class TestBackendSwitch:
    def test_default_backend_is_valid(self):
        assert kernels.get_backend() in kernels.BACKENDS

    def test_use_backend_rejects_unknown(self):
        original = kernels.get_backend()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with kernels.use_backend("fortran"):
                pytest.fail("block must not run")
        assert kernels.get_backend() == original

    def test_use_backend_restores_on_exit(self):
        original = kernels.get_backend()
        other = "python" if original == "numpy" else "numpy"
        with kernels.use_backend(other):
            assert kernels.get_backend() == other
        assert kernels.get_backend() == original

    def test_use_backend_restores_on_error(self):
        original = kernels.get_backend()
        other = "python" if original == "numpy" else "numpy"
        with pytest.raises(RuntimeError):
            with kernels.use_backend(other):
                raise RuntimeError("boom")
        assert kernels.get_backend() == original

    def test_use_backend_routes_kernels_to_reference(self, monkeypatch):
        monkeypatch.setattr(ref, "closest_pair", lambda centroids: "scalar")
        rows = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert cfk.closest_pair(rows) == (0, 1)
        with kernels.use_backend("python"):
            assert cfk.closest_pair(rows) == "scalar"
        assert cfk.closest_pair(rows) == (0, 1)

    @pytest.mark.parametrize("value, expected", [("python", "python"),
                                                 (None, "numpy")])
    def test_env_var_is_the_import_time_default(self, value, expected):
        done = run_python(
            "from repro import kernels; print(kernels.get_backend())", value)
        assert (done.returncode, done.stdout.strip()) == (0, expected)

    def test_env_var_rejects_unknown_backend(self):
        done = run_python("import repro.kernels", "fortran")
        assert done.returncode != 0
        assert "unknown kernel backend" in done.stderr

    def test_numpy_path_never_imports_the_reference(self):
        done = run_python("""
            import sys
            import numpy as np
            import repro
            from repro.net import PlanetLabParams, synthetic_planetlab_matrix
            from repro.coords import embed_matrix
            from repro.placement.base import PlacementProblem
            from repro.placement.online import OnlineClusteringPlacement
            from repro.placement.optimal import OptimalPlacement
            matrix, _ = synthetic_planetlab_matrix(PlanetLabParams(n=30), seed=1)
            emb = embed_matrix(matrix, system="rnp", rounds=10,
                               rng=np.random.default_rng(2))
            problem = PlacementProblem(
                matrix=matrix, candidates=tuple(range(8)),
                clients=tuple(range(8, 30)), k=2,
                coords=emb.coords[:, :emb.space.dim])
            sites = OnlineClusteringPlacement(micro_clusters=4).place(
                problem, np.random.default_rng(3))
            assert len(sites) == 2
            sites = OptimalPlacement().place(problem, np.random.default_rng(3))
            assert len(sites) == 2
            print("repro.kernels._reference" in sys.modules)
        """)
        assert (done.returncode, done.stdout.strip()) == (0, "False"), \
            done.stderr

    def test_nothing_in_the_package_takes_a_backend_argument(
            self, package_callables):
        assert [where for where, _obj, parameters in package_callables
                if "backend" in parameters] == []


# ----------------------------------------------------------------------
# Weighted k-means kernels: numpy == scalar reference
# ----------------------------------------------------------------------
@pytest.fixture
def cloud():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(60, 3)) * 40.0
    centers = rng.normal(size=(5, 3)) * 40.0
    weights = rng.uniform(0.5, 3.0, size=60)
    return points, centers, weights


class TestWKMeansKernels:
    def test_sq_distances_backends_agree(self, cloud):
        points, centers, _ = cloud
        a = wk.sq_distances(points, centers)
        b = ref.sq_distances(points, centers)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_assign_labels_backends_agree(self, cloud):
        points, centers, _ = cloud
        sq = wk.sq_distances(points, centers)
        a = wk.assign_labels(sq)
        b = ref.assign_labels(sq)
        np.testing.assert_array_equal(a, b)

    def test_assign_labels_first_minimum_tie_rule(self):
        # Two identical centroids: every point must go to index 0.
        sq = np.array([[2.0, 2.0, 5.0], [1.0, 1.0, 1.0]])
        for impl in (wk, ref):
            labels = impl.assign_labels(sq)
            np.testing.assert_array_equal(labels, [0, 0])

    def test_assign_labels_eligibility_mask(self, cloud):
        points, centers, _ = cloud
        sq = wk.sq_distances(points, centers)
        eligible = np.array([False, True, False, True, True])
        for impl in (wk, ref):
            labels = impl.assign_labels(sq, eligible=eligible)
            assert set(np.unique(labels)) <= {1, 3, 4}
        masked = np.where(eligible[None, :], sq, np.inf)
        np.testing.assert_array_equal(
            wk.assign_labels(sq, eligible=eligible),
            np.argmin(masked, axis=1))

    def test_assign_labels_all_ineligible_raises(self):
        sq = np.ones((3, 2))
        # Validation is the kernel's, ahead of its dispatch point.
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                with pytest.raises(ValueError, match="eligible"):
                    wk.assign_labels(sq, eligible=np.zeros(2, dtype=bool))

    def test_assignment_costs_backends_agree(self, cloud):
        points, centers, weights = cloud
        sq = wk.sq_distances(points, centers)
        labels = wk.assign_labels(sq)
        a = wk.assignment_costs(sq, labels, weights)
        b = ref.assignment_costs(sq, labels, weights)
        np.testing.assert_allclose(a, b, rtol=0, atol=0)

    def test_update_centroids_backends_agree(self, cloud):
        points, centers, weights = cloud
        sq = wk.sq_distances(points, centers)
        labels = wk.assign_labels(sq)
        costs = wk.assignment_costs(sq, labels, weights)
        a = wk.update_centroids(points, labels, weights, centers, costs)
        b = ref.update_centroids(points, labels, weights, centers, costs)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_update_centroids_is_np_average_bit_for_bit(self):
        # The kernel spells out np.average's arithmetic to skip its
        # per-call validation; the means must not move by an ulp.
        rng = np.random.default_rng(3)
        for trial in range(300):
            n, d, k = (int(rng.integers(*span))
                       for span in ((1, 200), (1, 5), (1, 9)))
            points = rng.normal(0.0, 100.0, size=(n, d))
            weights = (rng.integers(1, 50, size=n).astype(float)
                       if trial % 2 else rng.uniform(0.0, 5.0, size=n))
            labels = rng.integers(0, k, size=n)
            centers = rng.normal(size=(k, d))
            costs = rng.uniform(size=n)
            got = wk.update_centroids(points, labels, weights, centers, costs)
            scalar = ref.update_centroids(points, labels, weights, centers,
                                          costs)
            np.testing.assert_allclose(got, scalar, rtol=1e-12, atol=1e-10)
            for c in range(k):
                mask = labels == c
                if weights[mask].sum() > 0:
                    want = np.average(points[mask], axis=0,
                                      weights=weights[mask])
                    assert got[c].tobytes() == want.tobytes(), (trial, c)

    def test_update_centroids_empty_cluster_reseeds_at_costliest(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 9.0]])
        weights = np.ones(3)
        centers = np.array([[0.0, 0.0], [100.0, 100.0]])
        labels = np.array([0, 0, 0])  # cluster 1 empty
        costs = np.array([0.0, 100.0, 81.0])
        for impl in (wk, ref):
            new = impl.update_centroids(points, labels, weights, centers,
                                        costs)
            np.testing.assert_array_equal(new[1], points[1])

    def test_cross_distances_backends_agree(self, cloud):
        points, centers, _ = cloud
        heights = np.abs(np.random.default_rng(1).normal(size=5))
        a = wk.cross_distances(points, centers, b_heights=heights)
        b = ref.cross_distances(points, centers, b_heights=heights)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_pairwise_distances_backends_agree(self, cloud):
        points, _, _ = cloud
        heights = np.abs(points[:, 0]) * 0.1
        # pairwise = cross + zero diagonal, so it has no twin of its own.
        a = wk.pairwise_distances(points, heights=heights)
        with kernels.use_backend("python"):
            b = wk.pairwise_distances(points, heights=heights)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(np.diag(a), np.zeros(len(points)))


# ----------------------------------------------------------------------
# CF kernels
# ----------------------------------------------------------------------
class TestCFKernels:
    def test_deviations_clamps_negative_variance(self):
        # Rounding can push sum2 slightly below n*mean^2.
        counts = np.array([4.0])
        linear = np.array([[8.0, 8.0]])
        square = np.array([[15.999999999, 16.0]])
        dev = cfk.deviations(counts, linear, square)
        assert dev.shape == (1,)
        assert dev[0] >= 0.0

    def test_absorb_stream_matches_sequential_add(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 2)) * 30.0
        weights = rng.uniform(0.5, 2.0, size=200)

        for backend in kernels.BACKENDS:
            reference = OnlineClusterer(8, radius_floor=5.0)
            batched = OnlineClusterer(8, radius_floor=5.0)
            with kernels.use_backend(backend):
                for p, w in zip(points, weights):
                    reference.add(p, weight=float(w))
                batched.extend(points, weights)

            assert len(batched) == len(reference)
            for got, want in zip(batched.clusters, reference.clusters):
                assert got.count == want.count
                np.testing.assert_array_equal(got.linear_sum, want.linear_sum)
                np.testing.assert_array_equal(got.square_sum, want.square_sum)
                assert got.weight == want.weight

    def test_absorb_stream_backends_bitwise_identical(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(150, 3)) * 25.0
        weights = rng.uniform(0.1, 4.0, size=150)
        results = {}
        for backend in kernels.BACKENDS:
            cl = OnlineClusterer(6, radius_floor=5.0)
            with kernels.use_backend(backend):
                cl.extend(points, weights)
            results[backend] = [(c.count, c.weight, c.linear_sum.copy(),
                                 c.square_sum.copy()) for c in cl.clusters]
        assert len(results["numpy"]) == len(results["python"])
        for a, b in zip(results["numpy"], results["python"]):
            assert a[0] == b[0] and a[1] == b[1]
            np.testing.assert_array_equal(a[2], b[2])
            np.testing.assert_array_equal(a[3], b[3])

    def test_absorb_stream_respects_budget(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-500, 500, size=(100, 2))
        for backend in kernels.BACKENDS:
            cl = OnlineClusterer(4, radius_floor=1.0)
            with kernels.use_backend(backend):
                cl.extend(points)
            assert len(cl) <= 4

    def test_absorb_stream_stats(self):
        counts, weights, linear, square, stats = cfk.absorb_stream(
            np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
            points=np.array([[0.0, 0.0], [0.1, 0.0], [500.0, 0.0]]),
            point_weights=np.ones(3), radius_floor=5.0, max_clusters=4)
        assert stats["spawned"] == 2
        assert stats["absorbed"] == 1
        assert stats["merged"] == 0
        assert counts.shape == (2,)

    def test_split_row_conserves_exactly(self):
        cf = ClusterFeature.from_point(np.array([3.0, -2.0]), weight=2.0)
        cf.absorb(np.array([5.0, 1.0]), weight=1.5)
        cf.absorb(np.array([4.0, 0.5]), weight=0.5)
        first, second = cf.split()
        assert first.count + second.count == cf.count
        assert first.weight + second.weight == cf.weight
        np.testing.assert_array_equal(
            first.linear_sum + second.linear_sum, cf.linear_sum)
        assert np.all(first.square_sum >= 0)
        assert np.all(second.square_sum >= 0)

    def test_closest_pair_backends_agree(self):
        rng = np.random.default_rng(9)
        centroids = rng.normal(size=(10, 3))
        assert cfk.closest_pair(centroids) == ref.closest_pair(centroids)

    def test_nearest_row_backends_agree(self):
        # Planar points (the simulator's case): bitwise, not approximate.
        rng = np.random.default_rng(13)
        centroids = rng.normal(size=(12, 2)) * 20.0
        for point in rng.normal(size=(25, 2)) * 20.0:
            assert (cfk.nearest_row(centroids, point)
                    == ref.nearest_row(centroids, point))
        # Equidistant rows: the lowest index wins in both.
        tied = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        for impl in (cfk, ref):
            assert impl.nearest_row(tied, np.zeros(2)) == (0, 1.0)

    def test_closest_pair_tie_rule(self):
        # (0,1) and (2,3) equally close: row-major first wins.
        centroids = np.array([[0.0, 0.0], [1.0, 0.0],
                              [10.0, 0.0], [11.0, 0.0]])
        for impl in (cfk, ref):
            assert impl.closest_pair(centroids) == (0, 1)


# ----------------------------------------------------------------------
# Deterministic empty-cluster reseed (satellite regression)
# ----------------------------------------------------------------------
class TestEmptyClusterDeterminism:
    def _tight_pairs(self):
        # k=3 over two tight pairs: one cluster goes empty mid-Lloyd
        # under many inits, exercising the reseed path.
        rng = np.random.default_rng(2)
        a = rng.normal(loc=0.0, scale=0.01, size=(6, 2))
        b = rng.normal(loc=100.0, scale=0.01, size=(6, 2))
        return np.vstack([a, b])

    def test_reseed_is_deterministic_per_seed(self):
        points = self._tight_pairs()
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                first = weighted_kmeans(points, 3,
                                        rng=np.random.default_rng(42))
                second = weighted_kmeans(points, 3,
                                         rng=np.random.default_rng(42))
            np.testing.assert_array_equal(first.centroids, second.centroids)
            np.testing.assert_array_equal(first.labels, second.labels)

    def test_reseed_ignores_global_rng_state(self):
        points = self._tight_pairs()
        results = []
        for salt in (0, 12345):
            random.seed(salt)
            np.random.seed(salt)
            with kernels.use_backend("python"):
                results.append(weighted_kmeans(
                    points, 3, rng=np.random.default_rng(7)))
        np.testing.assert_array_equal(results[0].centroids,
                                      results[1].centroids)
        np.testing.assert_array_equal(results[0].labels, results[1].labels)
