"""Differential certification of the kernels against their scalar twins.

The scalar twins of :mod:`repro.kernels._reference` (the ``python``
path) are the reference oracle; the ``numpy`` kernels are the
production hot path.  These tests pin the contract that lets them be
swapped freely:

* golden equivalence — both paths make *identical placement
  decisions* across seeds, for the online scheme and the offline
  k-means rival, and produce tolerance-bounded centroids;
* seed-matrix differential — every bundled chaos scenario produces
  **byte-identical** summary JSON on either path (parametrized over a
  glob, so new scenario files are picked up automatically).

The oracle is reached by swapping the twins in for the kernels around
the whole run (``tests/data/kernel_twins.py``).
"""

import glob
import os

import numpy as np
import pytest

from repro.chaos import chaos_summary_json, load_scenario, run_chaos
from repro.clustering.kmeans import weighted_kmeans
from repro.coords import embed_matrix
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.placement.base import PlacementProblem
from repro.placement.offline_kmeans import OfflineKMeansPlacement
from repro.placement.online import OnlineClusteringPlacement

from tests.data.kernel_twins import PATHS, kernel_path, scalar_twins

SEEDS = (0, 1, 2, 3, 4)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..",
                        "examples", "chaos")
SCENARIOS = sorted(glob.glob(os.path.join(EXAMPLES, "*.toml")))


@pytest.fixture(scope="module")
def world():
    """A small embedded PlanetLab world shared by the golden tests."""
    matrix, _ = synthetic_planetlab_matrix(PlanetLabParams(n=60), seed=3)
    result = embed_matrix(matrix, system="rnp", rounds=60,
                          rng=np.random.default_rng(4))
    planar = result.coords[:, :result.space.dim]
    heights = result.coords[:, -1] if result.space.use_height else None
    return matrix, planar, heights


def make_problem(world, k=4):
    matrix, planar, heights = world
    candidates = tuple(range(12))
    clients = tuple(range(12, matrix.n))
    return PlacementProblem(matrix=matrix, candidates=candidates,
                            clients=clients, k=k, coords=planar,
                            heights=heights)


# ----------------------------------------------------------------------
# Golden equivalence: identical placement decisions across seeds
# ----------------------------------------------------------------------
class TestGoldenPlacementEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_online_decisions_identical(self, world, seed):
        problem = make_problem(world)
        decisions = {}
        strategy = OnlineClusteringPlacement(micro_clusters=6,
                                             migration_rounds=2)
        for backend in PATHS:
            with kernel_path(backend):
                decisions[backend] = strategy.place(
                    problem, np.random.default_rng(seed))
        assert decisions["numpy"] == decisions["python"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_offline_decisions_identical(self, world, seed):
        problem = make_problem(world)
        decisions = {}
        strategy = OfflineKMeansPlacement()
        for backend in PATHS:
            with kernel_path(backend):
                decisions[backend] = strategy.place(
                    problem, np.random.default_rng(seed))
        assert decisions["numpy"] == decisions["python"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kmeans_centroids_tolerance_bounded(self, world, seed):
        _, planar, _ = world
        results = {}
        for backend in PATHS:
            with kernel_path(backend):
                results[backend] = weighted_kmeans(
                    planar, 5, rng=np.random.default_rng(seed))
        np.testing.assert_array_equal(results["numpy"].labels,
                                      results["python"].labels)
        np.testing.assert_allclose(results["numpy"].centroids,
                                   results["python"].centroids,
                                   rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(results["numpy"].inertia,
                                   results["python"].inertia,
                                   rtol=1e-12, atol=0)

    def test_runner_backed_comparison_reaches_the_oracle(self, world,
                                                         monkeypatch):
        # Regression: a per-strategy ``backend=`` was dropped by the
        # runner's declarative round-trip, so ``run_comparison`` ran
        # numpy whatever was asked.  The twins replace the kernels
        # themselves, so the rebuilt strategies run them.
        from repro.analysis.experiment import run_comparison
        from repro.kernels import _reference

        calls = []
        scalar = _reference.absorb_stream

        def counting(*args):
            calls.append(len(args))
            return scalar(*args)

        monkeypatch.setattr(_reference, "absorb_stream", counting)
        matrix, planar, heights = world
        strategies = [OnlineClusteringPlacement(micro_clusters=4,
                                                migration_rounds=1)]
        kwargs = dict(n_dc=8, k=2, n_runs=2, seed=5, heights=heights)
        fast = run_comparison(matrix, planar, strategies, **kwargs)
        assert not calls
        with scalar_twins():
            slow = run_comparison(matrix, planar, strategies, **kwargs)
        assert calls
        assert fast == slow


# ----------------------------------------------------------------------
# Seed-matrix differential: bundled chaos scenarios, both paths
# ----------------------------------------------------------------------
def _scenario_params():
    """One param per bundled scenario; only the smoke test stays fast."""
    params = []
    for path in SCENARIOS:
        name = os.path.splitext(os.path.basename(path))[0]
        marks = [] if name == "smoke" else [pytest.mark.slow]
        params.append(pytest.param(path, id=name, marks=marks))
    return params


class TestChaosSeedMatrixDifferential:
    def test_scenarios_are_bundled(self):
        assert len(SCENARIOS) >= 4, (
            "expected the four bundled chaos scenarios; the differential "
            "matrix below auto-picks-up any new *.toml files")

    @pytest.mark.parametrize("path", _scenario_params())
    def test_summary_json_byte_identical_across_backends(self, path):
        scenario = load_scenario(path)
        payloads = {}
        for backend in PATHS:
            with kernel_path(backend):
                payloads[backend] = chaos_summary_json(
                    run_chaos(scenario, jobs=1))
        assert payloads["numpy"] == payloads["python"]
