"""Offline k-means placement: the paper's centralized, unscalable rival.

Every client coordinate is recorded at a central server (O(n) bandwidth);
k-means clusters them and each cluster centroid claims the nearest unused
candidate data center, heaviest cluster first — Algorithm 1's mapping
(:func:`~repro.core.macro.assign_sites`), so the offline and online
schemes differ only in how they summarize clients.  Near-optimal
quality, but cost grows with the number of accesses — exactly the
trade-off Table II contrasts with the online scheme.

All distance and k-means maths run through :mod:`repro.kernels`, so this
strategy is checked against the scalar twins like the online scheme.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import weighted_kmeans
from repro.core.macro import assign_sites
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["OfflineKMeansPlacement"]


class OfflineKMeansPlacement(PlacementStrategy):
    """Cluster all recorded client coordinates; place at the centroids."""

    name = "offline k-means"

    def __init__(self, n_init: int = 4) -> None:
        self.n_init = n_init

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        client_coords = problem.client_coords()
        k = problem.effective_k
        result = weighted_kmeans(client_coords, k, rng=rng,
                                 n_init=self.n_init)
        positions, _ = assign_sites(
            result.centroids, result.cluster_weights(),
            problem.candidate_coords(), k, problem.candidate_heights())
        sites = [problem.candidates[p] for p in positions]
        return self._check(problem, sites)
