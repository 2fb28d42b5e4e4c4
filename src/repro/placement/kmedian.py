"""Offline k-median placement by local search (Arya et al., STOC 2001).

The replica placement objective (Section II-B) *is* the metric k-median
problem: choose k facilities (candidate sites) minimizing the summed
client-to-nearest-facility distance.  Single-swap local search is the
classic approximation (factor 5 for one swap); here it runs on network
coordinates (plus candidate heights), i.e. on the same information the
clustering strategies use — but over **every client coordinate**, so
like offline k-means it costs O(n) state and bandwidth and serves as an
upper baseline for what coordinate-based placement can achieve without
summarization.
"""

from __future__ import annotations

import numpy as np

from repro.core.search import swap_descent
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["KMedianPlacement"]


class KMedianPlacement(PlacementStrategy):
    """Single-swap local search on the coordinate-space k-median objective.

    Parameters
    ----------
    max_rounds:
        Full sweeps over (chosen, candidate) swap pairs; the search
        almost always converges in two or three.
    restarts:
        Independent random initialisations; best final objective wins.
    """

    name = "offline k-median"

    def __init__(self, max_rounds: int = 10, restarts: int = 2) -> None:
        if max_rounds < 1 or restarts < 1:
            raise ValueError("rounds and restarts must be positive")
        self.max_rounds = max_rounds
        self.restarts = restarts

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        client_coords = problem.client_coords()
        candidate_coords = problem.candidate_coords()
        heights = problem.candidate_heights()
        k = problem.effective_k
        n_candidates = len(problem.candidates)

        # Predicted cost of serving each client from each candidate.
        cost = np.linalg.norm(
            client_coords[:, None, :] - candidate_coords[None, :, :], axis=-1
        ) + heights[None, :]

        def objective(sites: list[int]) -> float:
            return float(cost[:, sites].min(axis=1).sum())

        best_sites: list[int] | None = None
        best_value = np.inf
        for _ in range(self.restarts):
            start = rng.choice(n_candidates, size=k, replace=False)
            sites, value = swap_descent(start, range(n_candidates),
                                        objective,
                                        max_rounds=self.max_rounds)
            if value < best_value:
                best_sites, best_value = sites, value
        assert best_sites is not None
        return self._check(problem,
                           [problem.candidates[p] for p in best_sites])
