"""Unit tests for the :mod:`repro.kernels` layer.

Covers the absence of a backend switch and the test-side swap of the
scalar twins, equality of every numpy kernel with its scalar twin in
:mod:`repro.kernels._reference` (called directly),
eligibility masking, the batched CF maintenance kernel, and the
deterministic empty-cluster reseed regression.
"""

import ast
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import repro
from repro import kernels
from repro.clustering import MicroClusters
from repro.clustering.kmeans import weighted_kmeans
from repro.core import ReplicaAccessSummary
from repro.kernels import _reference as ref
from repro.kernels import cf as cfk
from repro.kernels import wkmeans as wk

from tests.data.kernel_twins import PATHS, kernel_path, scalar_twins, twin_pairs


# ----------------------------------------------------------------------
# No backend switch; the scalar twins are swapped in by tests
# ----------------------------------------------------------------------
SRC = pathlib.Path(repro.__file__).parent


def run_python(code):
    """Run ``code`` in a fresh interpreter on this test's ``sys.path``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)


def imported_modules(tree):
    """Dotted names of every module an AST imports, ``from`` names included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


class TestBackendSwitch:
    """There is none: one kernel path, twins swapped in by the tests."""

    def test_the_switch_is_gone(self):
        assert {"use_backend", "get_backend", "scalar_oracle",
                "BACKENDS"}.isdisjoint(vars(kernels))
        sources = sorted(SRC.rglob("*.py"))
        assert len(sources) > 50
        assert [str(path.relative_to(SRC)) for path in sources
                if "REPRO_KERNEL_BACKEND" in path.read_text()] == []
        assert [str(path.relative_to(SRC)) for path in sources
                if "repro.kernels._reference" in imported_modules(
                    ast.parse(path.read_text()))] == []

    def test_every_twin_has_one_kernel(self):
        names = {name for name, _kernel, _twin in twin_pairs()}
        assert names == {"sq_distances", "assign_labels", "assignment_costs",
                         "update_centroids", "cross_distances",
                         "absorb_stream", "embed_rounds", "best_subset"}

    def test_twin_without_a_kernel_is_refused(self, monkeypatch):
        monkeypatch.setattr(ref, "fold_rows", lambda rows: rows,
                            raising=False)
        with pytest.raises(LookupError, match="fold_rows"):
            with scalar_twins():
                pytest.fail("block must not run")
        assert wk.sq_distances.__module__ == wk.__name__

    def test_twins_are_undone_on_exit(self):
        kernels_before = [kernel for _name, kernel, _twin in twin_pairs()]
        with scalar_twins():
            assert wk.sq_distances is ref.sq_distances
        assert [kernel for _name, kernel, _twin in twin_pairs()] \
            == kernels_before

    def test_twins_are_undone_on_error(self):
        kernel = cfk.absorb_stream
        with pytest.raises(RuntimeError):
            with scalar_twins():
                assert cfk.absorb_stream is ref.absorb_stream
                raise RuntimeError("boom")
        assert cfk.absorb_stream is kernel

    def test_twins_replace_every_bound_kernel(self, monkeypatch):
        from repro.coords import embedding
        from repro.placement import optimal

        monkeypatch.setattr(ref, "absorb_stream", lambda *args: "scalar")
        args = (np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
                np.zeros((1, 2)), np.ones(1), 5.0, 3)
        assert cfk.absorb_stream(*args) != "scalar"
        with scalar_twins():
            assert cfk.absorb_stream(*args) == "scalar"
            assert embedding.embed_rounds is ref.embed_rounds
            assert optimal.best_subset is ref.best_subset
        assert cfk.absorb_stream(*args) != "scalar"
        assert embedding.embed_rounds.__module__ == "repro.kernels.embed"
        assert optimal.best_subset.__module__ == "repro.kernels.subset"

    def test_a_module_imported_inside_the_block_is_put_back(
            self, monkeypatch):
        late = types.ModuleType("repro.late")
        monkeypatch.setitem(sys.modules, late.__name__, late)
        with scalar_twins():
            # what ``from repro.kernels.wkmeans import sq_distances`` binds
            late.sq_distances = wk.sq_distances
        assert late.sq_distances is wk.sq_distances
        assert wk.sq_distances.__module__ == wk.__name__

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

    def test_stacked_kernels_equal_restart_by_restart(self, cloud):
        # A (R, k, d) stack is R one-restart calls, bit for bit; the
        # twins loop over the stack.
        points, centers, weights = cloud
        stack = np.stack([centers, centers[::-1] * 0.5, centers + 3.0])
        sq = wk.sq_distances(points, stack)
        labels = wk.assign_labels(sq)
        costs = wk.assignment_costs(sq, labels, weights)
        new = wk.update_centroids(points, labels, weights, stack, costs)
        for r, one in enumerate(stack):
            one_sq = wk.sq_distances(points, one)
            one_labels = wk.assign_labels(one_sq)
            one_costs = wk.assignment_costs(one_sq, one_labels, weights)
            assert sq[r].tobytes() == one_sq.tobytes()
            assert labels[r].tobytes() == one_labels.tobytes()
            assert costs[r].tobytes() == one_costs.tobytes()
            assert new[r].tobytes() == wk.update_centroids(
                points, one_labels, weights, one, one_costs).tobytes()
        np.testing.assert_allclose(ref.sq_distances(points, stack), sq,
                                   rtol=0, atol=1e-9)
        np.testing.assert_array_equal(ref.assign_labels(sq), labels)
        np.testing.assert_array_equal(
            ref.assignment_costs(sq, labels, weights), costs)
        np.testing.assert_allclose(
            ref.update_centroids(points, labels, weights, stack, costs), new,
            rtol=0, atol=1e-12)

    def test_weighted_kmeans_runs_on_the_twins(self, monkeypatch, cloud):
        # Inside scalar_twins() every k-means kernel call must reach its
        # twin: a path that called numpy directly would leave the
        # backend differentials comparing the kernels with themselves.
        called = set()
        names = {"sq_distances", "assign_labels", "assignment_costs",
                 "update_centroids"}
        for name in names:
            def counted(*args, _twin=getattr(ref, name), _name=name):
                called.add(_name)
                return _twin(*args)
            monkeypatch.setattr(ref, name, counted)
        points, _, weights = cloud
        want = weighted_kmeans(points, 4, weights=weights,
                               rng=np.random.default_rng(2))
        assert called == set()
        with scalar_twins():
            got = weighted_kmeans(points, 4, weights=weights,
                                  rng=np.random.default_rng(2))
        assert called == names
        np.testing.assert_allclose(got.centroids, want.centroids,
                                   rtol=0, atol=1e-9)

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
        with scalar_twins():
            b = wk.pairwise_distances(points, heights=heights)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(np.diag(a), np.zeros(len(points)))


# ----------------------------------------------------------------------
# The left-fold norm of cross_distances and the RNP refit
# ----------------------------------------------------------------------
def spread_vectors(shape, d, seed=11):
    """Vectors whose components span many magnitudes, so that a change
    of summation order shows in the last bit."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(*shape, d)) * 10.0 ** rng.uniform(-3, 3, (*shape, d))


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("shape", [(5000,), (57, 64), (3, 7, 11)])
def test_fold_norms_is_norm_below_eight_components(shape, d):
    vectors = spread_vectors(shape, d)
    want = np.linalg.norm(vectors, axis=-1)
    assert kernels.fold_norms(vectors).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(0, 10))
def test_fold_norms_folds_like_the_scalar_cross_distances(d):
    a, b = spread_vectors((9,), d, seed=3), spread_vectors((13,), d, seed=4)
    got = wk.cross_distances(a, b)
    assert got.shape == (9, 13)
    assert got.tobytes() == ref.cross_distances(a, b).tobytes()


# ----------------------------------------------------------------------
# CF kernels
# ----------------------------------------------------------------------
class TestCFKernels:
    def test_deviations_clamps_negative_variance(self):
        # Rounding can push sum2 slightly below n*mean^2.
        record = MicroClusters([4.0], [1.0], [[8.0, 8.0]],
                               [[15.999999999, 16.0]])
        assert record.deviations.tolist() == [0.0]

    def test_absorb_stream_matches_sequential_add(self):
        # One block equals the same stream fed one point per call.
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 2)) * 30.0
        weights = rng.uniform(0.5, 2.0, size=200)

        for backend in PATHS:
            reference = ReplicaAccessSummary(8, radius_floor=5.0)
            batched = ReplicaAccessSummary(8, radius_floor=5.0)
            with kernel_path(backend):
                for p, w in zip(points, weights):
                    reference.record_batch(p[None, :], [w])
                batched.record_batch(points, weights)

            for name in ("counts", "weights", "linear", "square"):
                np.testing.assert_array_equal(
                    getattr(batched.clusters, name),
                    getattr(reference.clusters, name))

    def test_absorb_stream_backends_bitwise_identical(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(150, 3)) * 25.0
        weights = rng.uniform(0.1, 4.0, size=150)
        results = {}
        for backend in PATHS:
            summary = ReplicaAccessSummary(6, radius_floor=5.0)
            with kernel_path(backend):
                summary.record_batch(points, weights)
            results[backend] = summary.clusters
        for name in ("counts", "weights", "linear", "square"):
            np.testing.assert_array_equal(getattr(results["numpy"], name),
                                          getattr(results["python"], name))

    def test_absorb_stream_respects_budget(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-500, 500, size=(100, 2))
        for backend in PATHS:
            summary = ReplicaAccessSummary(4, radius_floor=1.0)
            with kernel_path(backend):
                summary.record_batch(points)
            assert len(summary) <= 4

    def test_absorb_stream_stats(self):
        counts, weights, linear, square, stats = cfk.absorb_stream(
            np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
            points=np.array([[0.0, 0.0], [0.1, 0.0], [500.0, 0.0]]),
            point_weights=np.ones(3), radius_floor=5.0, max_clusters=4)
        assert stats["spawned"] == 2
        assert stats["absorbed"] == 1
        assert stats["merged"] == 0
        assert counts.shape == (2,)

    def test_closest_pair_backends_agree(self):
        # With no absorption radius every point spawns, and the one
        # overflow merges the pair the oracle's search names.
        rng = np.random.default_rng(9)
        centroids = rng.normal(size=(10, 3))
        keep, drop = ref._closest_pair(centroids)
        counts, _, linear, _, stats = cfk.absorb_stream(
            np.zeros(0), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)),
            centroids, np.ones(10), radius_floor=0.0, max_clusters=9)
        assert stats["merged"] == 1
        want = np.delete(centroids, drop, axis=0)
        want[keep] = centroids[keep] + centroids[drop]
        assert counts.tolist() == [2.0 if i == keep else 1.0
                                   for i in range(9)]
        np.testing.assert_array_equal(linear, want)

    def test_closest_pair_tie_rule(self):
        # (0,1) and (2,3) equally close: row-major first wins.
        centroids = np.array([[0.0, 0.0], [1.0, 0.0],
                              [10.0, 0.0], [11.0, 0.0]])
        assert ref._closest_pair(centroids) == (0, 1)


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
        for backend in PATHS:
            with kernel_path(backend):
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
            with scalar_twins():
                results.append(weighted_kmeans(
                    points, 3, rng=np.random.default_rng(7)))
        np.testing.assert_array_equal(results[0].centroids,
                                      results[1].centroids)
        np.testing.assert_array_equal(results[0].labels, results[1].labels)
