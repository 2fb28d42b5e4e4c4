"""Offline k-means placement: the paper's centralized, unscalable rival.

Every client coordinate is recorded at a central server (O(n) bandwidth);
k-means clusters them and each cluster centroid claims the nearest unused
candidate data center.  Near-optimal quality, but cost grows with the
number of accesses — exactly the trade-off Table II contrasts with the
online scheme.

All distance and k-means maths run through :mod:`repro.kernels`, so this
strategy is checked against the scalar twins like the online scheme.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import weighted_kmeans
from repro.kernels import wkmeans as _wk
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["OfflineKMeansPlacement", "assign_centroids_to_candidates"]


def assign_centroids_to_candidates(centroids: np.ndarray,
                                   centroid_weights: np.ndarray,
                                   candidate_coords: np.ndarray,
                                   k: int,
                                   candidate_heights: np.ndarray | None = None
                                   ) -> list[int]:
    """Map cluster centroids to distinct candidate positions.

    Heaviest centroid first, nearest unused candidate each — the same
    tie-break rule Algorithm 1 uses, so the offline and online schemes
    differ only in how they summarize clients.  ``candidate_heights``
    (when given) are added to the planar distances, pricing in each
    candidate's access-link delay.  Returns *positions* into
    ``candidate_coords``; pads with candidates nearest the heaviest
    centroid if fewer centroids than ``k`` were supplied.
    """
    n_candidates = candidate_coords.shape[0]
    heights = (np.zeros(n_candidates) if candidate_heights is None
               else np.asarray(candidate_heights, dtype=float))
    k = min(k, n_candidates)
    used = np.zeros(n_candidates, dtype=bool)
    order = np.argsort(-np.asarray(centroid_weights, dtype=float))
    chosen: list[int] = []
    for idx in order:
        if len(chosen) >= k:
            break
        dists = _wk.cross_distances(centroids[idx][None, :], candidate_coords,
                                    b_heights=heights)[0]
        dists[used] = np.inf
        pos = int(np.argmin(dists))
        used[pos] = True
        chosen.append(pos)
    while len(chosen) < k:
        anchor = centroids[order[0]]
        dists = _wk.cross_distances(anchor[None, :], candidate_coords,
                                    b_heights=heights)[0]
        dists[used] = np.inf
        pos = int(np.argmin(dists))
        used[pos] = True
        chosen.append(pos)
    return chosen


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
        weights = result.cluster_weights()
        positions = assign_centroids_to_candidates(
            result.centroids, weights, problem.candidate_coords(), k,
            problem.candidate_heights())
        sites = [problem.candidates[p] for p in positions]
        return self._check(problem, sites)
