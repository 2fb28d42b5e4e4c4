"""Greedy placement (Qiu, Padmanabhan & Voelker, INFOCOM 2002).

The classic related-work baseline: add replicas one at a time, each time
choosing the candidate that most reduces the total access delay of all
clients given the replicas already chosen.  Quality is typically within
a few percent of optimal, but — as the paper notes — it "effectively
reduces latency at a high computation cost": every step scans every
remaining candidate against every client, and it needs per-client
latency knowledge (O(n) state), which is exactly what the online
summary scheme avoids.
"""

from __future__ import annotations

import numpy as np

from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["GreedyPlacement"]


class GreedyPlacement(PlacementStrategy):
    """Iteratively add the candidate with the largest marginal gain.

    Parameters
    ----------
    use_coords:
        ``False`` (default) evaluates marginal gains on true RTTs — the
        literature's formulation, which presumes measured client-to-
        candidate latencies.  ``True`` evaluates them on network
        coordinates (plus candidate heights), the information a
        deployable system actually has; quality then degrades with
        embedding error like the clustering strategies.
    """

    name = "greedy"

    def __init__(self, use_coords: bool = False) -> None:
        self.use_coords = use_coords
        if use_coords:
            self.name = "greedy (coords)"

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        k = problem.effective_k
        if self.use_coords:
            block = problem.predicted_costs()
        else:
            block = problem.matrix.rows(problem.clients, problem.candidates)
        n_clients, n_candidates = block.shape

        chosen: list[int] = []
        current_best = np.full(n_clients, np.inf)
        remaining = set(range(n_candidates))
        for _ in range(k):
            best_pos = -1
            best_total = np.inf
            for pos in remaining:
                total = np.minimum(current_best, block[:, pos]).sum()
                if total < best_total:
                    best_total = total
                    best_pos = pos
            chosen.append(best_pos)
            remaining.discard(best_pos)
            current_best = np.minimum(current_best, block[:, best_pos])

        sites = [problem.candidates[p] for p in chosen]
        return self._check(problem, sites)
