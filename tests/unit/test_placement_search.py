"""The one placement search and the one summary-side estimator.

``swap_descent`` replaced five hand-copied loops and ``DelayEstimator``
four copies of the centroid stacking; the tests here pin that nothing
moved (answers recorded at the parent commit), that an epoch prices all
its trials from one cost matrix, and the shape of the surface that is
left (one tolerance, ``max_rounds`` on three callables).
"""

import json

import numpy as np
import pytest

from repro.clustering import ClusterFeature
from repro.core import (
    DelayEstimator,
    assign_sites,
    estimate_average_delay,
    macro_cluster,
    place_replicas_rw,
)
from repro.core.search import MAX_ROUNDS, swap_descent
from repro.kernels import wkmeans
from repro.net.domains import FailureDomains
from tests.data import search_instances


@pytest.fixture(scope="module")
def recorded():
    with open(search_instances.DIGESTS) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def answers():
    # Through JSON, so tuples and lists compare as the file stores them.
    return json.loads(json.dumps(search_instances.record()))


@pytest.mark.parametrize("caller", [
    "place_replicas", "place_replicas_rw", "refine_for_availability",
    "kmedian", "coded", "controller_read_only", "controller_write_aware"])
def test_answers_equal_the_parent_recording(caller, recorded, answers):
    assert len(recorded[caller]) >= 6
    for index, (want, got) in enumerate(zip(recorded[caller],
                                            answers[caller], strict=True)):
        assert got == want, f"{caller} instance {index}"


def test_recorded_instances_exercise_the_search(recorded):
    # A digest of searches that never accept a swap would pin nothing.
    variants = recorded["place_replicas"]
    assert any(case["capacities"] != case["plain"] for case in variants)
    assert any(case["eligible"] != case["plain"] for case in variants)
    assert any(case["heights"] != case["plain"] for case in variants)
    moved = [report for report in recorded["controller_read_only"]
             if report[0] != report[1]]
    assert len(moved) >= 4
    assert recorded["controller_read_only"] != \
        recorded["controller_write_aware"]


def _population(point, count):
    cluster = ClusterFeature.from_point(np.asarray(point, dtype=float))
    for _ in range(count - 1):
        cluster.absorb(np.asarray(point, dtype=float))
    return cluster


@pytest.mark.parametrize("seed", [0, 1])
def test_rw_seeding_pads_next_to_the_heaviest_population(seed, monkeypatch):
    # Two read populations, k = 3: k-means returns two macro-clusters
    # and the third site is padding.  It belongs next to the heavy
    # population at x = 100 (candidate 3), where place_replicas puts it
    # — place_replicas_rw used to anchor on k-means label order and
    # padded next to the single access at x = 0 (candidate 1).
    reads = [_population([0.0, 0.0], 1), _population([100.0, 0.0], 50)]
    dcs = np.array([[x, 0.0] for x in (0.0, 1.0, 100.0, 101.0, 50.0)])
    monkeypatch.setattr(
        "repro.core.readwrite.swap_descent",
        lambda sites, pool, score: (list(sites), score(sites)))
    seeded = place_replicas_rw(reads, [], 3, dcs,
                               np.random.default_rng(seed)).data_centers
    assert seeded == (2, 0, 3)
    macros = macro_cluster(reads, 3, np.random.default_rng(seed))
    sites, _ = assign_sites(np.stack([m.centroid for m in macros]),
                            [m.count for m in macros], dcs, 3)
    assert seeded == tuple(sites)


def test_estimator_is_estimate_average_delay_bit_for_bit():
    rng = np.random.default_rng(4)
    micros = search_instances.clusters(rng, 25)
    dcs = rng.uniform(0.0, 100.0, (12, 2))
    heights = rng.uniform(0.0, 9.0, 12)
    estimator = DelayEstimator(micros, dcs, heights)
    assert estimator.cost.shape == (25, 12)
    for _ in range(50):
        sites = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
        assert estimator.delay(sites) == estimate_average_delay(
            micros, dcs[sites], heights[sites])


def test_an_epoch_builds_its_cost_matrices_once(monkeypatch):
    # λ-refinement and the transfer cap both active: tens of trial
    # placements are scored, all from the epoch's one estimator (plus
    # the seeding and the estimator inside place_replicas) — not one
    # distance matrix per trial.
    controller, centres, rng = search_instances.new_controller(
        write_aware=False)
    search_instances.feed(controller, centres, rng)
    built, trials = [], []
    real_distances = wkmeans.cross_distances
    real_risk = FailureDomains.cofailure_risk

    def counting_distances(*args, **kwargs):
        built.append(1)
        return real_distances(*args, **kwargs)

    def counting_risk(self, sites):
        trials.append(1)
        return real_risk(self, sites)

    monkeypatch.setattr(wkmeans, "cross_distances", counting_distances)
    monkeypatch.setattr(FailureDomains, "cofailure_risk", counting_risk)
    report = controller.run_epoch(np.random.default_rng(0))
    assert report.proposed_sites != report.previous_sites
    assert len(trials) > 40
    assert len(built) == 3


def test_max_rounds_is_declared_three_times(package_callables):
    assert sorted(where for where, _obj, parameters in package_callables
                  if "max_rounds" in parameters) == [
        "repro.core.search.swap_descent",
        "repro.placement.coded.CodedPlacement",
        "repro.placement.coded.CodedPlacement.__init__",
        "repro.placement.kmedian.KMedianPlacement",
        "repro.placement.kmedian.KMedianPlacement.__init__",
    ]
    assert MAX_ROUNDS == 8


def test_swap_descent_takes_the_first_improvement_in_pool_order():
    # Slot 0 meets candidate 2 (an improvement) before candidate 3 (the
    # better one) and takes it; candidate 3 then still improves slot 0.
    # Slot 1 scans from the bottom of the pool again: the freed site 0
    # is tried (and refused) before site 2 is taken.
    cost = {0: 5.0, 1: 4.0, 2: 3.0, 3: 1.0}
    seen = []

    def score(sites):
        seen.append(tuple(sites))
        return sum(cost[s] for s in sites)

    sites, value = swap_descent([0, 1], range(4), score)
    assert (sites, value) == ([3, 2], 4.0)
    assert seen[:5] == [(0, 1), (2, 1), (3, 1), (3, 0), (3, 2)]
    assert swap_descent([0, 1], range(4), score, max_rounds=0) == ([0, 1], 9.0)
