"""Coded (split-object) placement — after Chandy's generalized strategy.

The paper's related work ([11], Chandy 2008) "solves the problem from a
different perspective by splitting each data object and ... plac[ing]
the pieces onto servers in a greedy way that minimizes data access
latency".  The modern form of object splitting is erasure coding: the
object becomes ``n`` fragments of which any ``k_required`` reconstruct
it, stored at ``n`` distinct sites for a storage overhead of
``n / k_required`` (versus ``r`` for ``r``-way replication).

A reading client fetches all fragments in parallel and completes when
the ``k_required``-th fragment arrives, so its delay is the
``k_required``-th smallest RTT among the fragment sites — an *order
statistic*, not a minimum.  At equal storage overhead this can beat
replication in the tail (more sites to be near) or lose in the median
(must wait for several), which is exactly the trade this module lets
the benchmarks measure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.search import swap_descent
from repro.net.latency import LatencyMatrix
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["CodedPlacement", "coded_access_delay"]


def coded_access_delay(matrix: LatencyMatrix, clients: Sequence[int],
                       sites: Sequence[int], k_required: int) -> float:
    """Mean delay when each read must reach ``k_required`` of ``sites``.

    With ``k_required == 1`` this is exactly
    :func:`~repro.placement.base.average_access_delay`.
    """
    clients = list(clients)
    sites = list(sites)
    if not clients or not sites:
        raise ValueError("clients and sites must be non-empty")
    if not 1 <= k_required <= len(sites):
        raise ValueError("k_required must lie in [1, len(sites)]")
    block = matrix.rows(clients, sites)
    kth = np.partition(block, k_required - 1, axis=1)[:, k_required - 1]
    return float(kth.mean())


class CodedPlacement(PlacementStrategy):
    """Place ``n_fragments`` coded fragments; reads need ``k_required``.

    The strategy optimizes the coordinate-predicted mean of the
    ``k_required``-th order statistic by greedy construction plus
    single-swap local search — the "greedy way" of [11], lifted to the
    coded objective.  ``problem.k`` is ignored; the fragment count is a
    property of the code, set at construction.

    Evaluate the result with :func:`coded_access_delay` (NOT the plain
    ``average_access_delay``, which assumes one fragment suffices).
    """

    name = "coded"

    def __init__(self, n_fragments: int = 6, k_required: int = 3,
                 max_rounds: int = 8) -> None:
        if n_fragments < 1 or not 1 <= k_required <= n_fragments:
            raise ValueError("need 1 <= k_required <= n_fragments")
        if max_rounds < 1:
            raise ValueError("rounds must be positive")
        self.n_fragments = n_fragments
        self.k_required = k_required
        self.max_rounds = max_rounds
        self.name = f"coded {k_required}-of-{n_fragments}"

    @property
    def storage_overhead(self) -> float:
        """Stored bytes relative to the object size."""
        return self.n_fragments / self.k_required

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        client_coords = problem.client_coords()
        candidate_coords = problem.candidate_coords()
        heights = problem.candidate_heights()
        n_candidates = len(problem.candidates)
        n = min(self.n_fragments, n_candidates)
        k_req = min(self.k_required, n)

        cost = np.linalg.norm(
            client_coords[:, None, :] - candidate_coords[None, :, :], axis=-1
        ) + heights[None, :]

        def objective(site_positions: list[int], need: int = k_req) -> float:
            block = cost[:, site_positions]
            kth = np.partition(block, need - 1, axis=1)[:, need - 1]
            return float(kth.mean())

        # Greedy construction: each added fragment minimizes the
        # objective of the partial set (with k capped by the set size).
        chosen: list[int] = []
        for _ in range(n):
            best_pos, best_value = -1, np.inf
            partial_k = min(k_req, len(chosen) + 1)
            for candidate in range(n_candidates):
                if candidate in chosen:
                    continue
                value = objective(chosen + [candidate], partial_k)
                if value < best_value:
                    best_value, best_pos = value, candidate
            chosen.append(best_pos)

        # Single-swap local search on the full objective.
        chosen, _ = swap_descent(chosen, range(n_candidates), objective,
                                 max_rounds=self.max_rounds)

        sites = tuple(problem.candidates[p] for p in chosen)
        if len(set(sites)) != len(sites):
            raise AssertionError("coded placement chose duplicate sites")
        return sites
