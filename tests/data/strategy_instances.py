"""Seeded placement problems and the sites every strategy chooses for them.

``record()`` builds twenty :class:`~repro.placement.PlacementProblem`
instances and runs every strategy of :mod:`repro.placement` on each
(through the public API only, a fresh generator per call), returning
the chosen sites.  Sixteen instances are random; the last four are
built so that ties decide the answer: client groups of one to three
stacked on single points give offline k-means tied cluster weights and
HotZone tied cell counts, and few candidates make the groups contend
for the same nearest site.  The heaviest-first mapping breaks those
ties in input order (a stable sort), so the answers do not depend on
which SIMD sort numpy picks on the host CPU.

``strategy_digests.json`` next to this file is that dictionary as
recorded at commit 953ed09 (before Algorithm 1, offline k-means and
HotZone shared ``repro.core.macro.assign_sites``) with the two
``np.argsort(-weights)`` calls of that commit made stable;
``tests/unit/test_strategy_digests.py`` asserts today's answers equal
it.  Re-record only when a decision is *meant* to move::

    PYTHONPATH=src python tests/data/strategy_instances.py
"""

import json
import os

import numpy as np

from repro.net.domains import FailureDomains
from repro.net.latency import LatencyMatrix
from repro.net.planetlab import small_matrix
from repro.placement import (
    AvailabilityAwarePlacement,
    CodedPlacement,
    GreedyPlacement,
    HotZonePlacement,
    KMedianPlacement,
    OfflineKMeansPlacement,
    OnlineClusteringPlacement,
    OptimalPlacement,
    PlacementProblem,
    RandomPlacement,
)

DIGESTS = os.path.join(os.path.dirname(__file__), "strategy_digests.json")
RANDOM_SEEDS = range(16)
TIED_SEEDS = range(4)


def random_problem(seed):
    """30 nodes, 6-11 candidates, k in 1..5, 2-D or 3-D coordinates;
    heights on odd seeds."""
    rng = np.random.default_rng(4000 + seed)
    n = 30
    nodes = rng.permutation(n)
    n_candidates = int(rng.integers(6, 12))
    return PlacementProblem(
        small_matrix(n=n, seed=seed % 4),
        candidates=tuple(nodes[:n_candidates]),
        clients=tuple(nodes[n_candidates:]),
        k=int(rng.integers(1, 6)),
        coords=rng.normal(0.0, 60.0, (n, 2 + seed % 2)),
        heights=rng.uniform(0.0, 15.0, n) if seed % 2 else None)


def tied_problem(seed):
    """Six or seven groups of one to three clients, each group on one
    point, and eight candidates: cluster and cell weights tie."""
    rng = np.random.default_rng(5000 + seed)
    groups = 6 + seed % 2
    sizes = rng.integers(1, 4, groups)
    centres = rng.uniform(0.0, 100.0, (groups, 2))
    candidates = rng.uniform(0.0, 100.0, (8, 2))
    coords = np.vstack([candidates, np.repeat(centres, sizes, axis=0)])
    n = coords.shape[0]
    planar = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    rtt = planar + 1.0 - np.eye(n)
    return PlacementProblem(
        LatencyMatrix(rtt),
        candidates=tuple(range(8)),
        clients=tuple(range(8, n)),
        k=groups - seed // 2,
        coords=coords,
        heights=rng.uniform(0.0, 5.0, n) if seed % 2 else None)


def strategies(problem):
    """Every placement strategy, by label."""
    domains = FailureDomains.contiguous(
        len(problem.candidates), regions=1, dcs_per_region=2,
        racks_per_dc=2, p_dc=0.05, p_rack=0.1, p_node=0.02)
    return {
        "random": RandomPlacement(),
        "offline": OfflineKMeansPlacement(),
        "online": OnlineClusteringPlacement(micro_clusters=4),
        "online_true": OnlineClusteringPlacement(micro_clusters=3,
                                                 selection="true"),
        "optimal": OptimalPlacement(),
        "greedy": GreedyPlacement(),
        "greedy_coords": GreedyPlacement(use_coords=True),
        "hotzone": HotZonePlacement(),
        "hotzone_coarse": HotZonePlacement(cells_per_axis=3),
        "kmedian": KMedianPlacement(),
        "coded": CodedPlacement(),
        "availability": AvailabilityAwarePlacement(
            OfflineKMeansPlacement(), domains, 300.0),
    }


def answers(problem, seed):
    """The sites each strategy picks, as lists of node indices."""
    return {name: [int(s) for s in strategy.place(
                problem, np.random.default_rng(seed))]
            for name, strategy in strategies(problem).items()}


def record():
    """Every instance's answers, as JSON-ready values."""
    return {
        "random": [answers(random_problem(s), s) for s in RANDOM_SEEDS],
        "tied": [answers(tied_problem(s), s) for s in TIED_SEEDS],
    }


if __name__ == "__main__":
    with open(DIGESTS, "w") as out:
        json.dump(record(), out, indent=1, sort_keys=True)
        out.write("\n")
