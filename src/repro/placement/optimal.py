"""Optimal placement by exhaustive search (the paper's oracle).

Enumerates every ``C(|candidates|, k)`` combination, computes the true
average access delay of each on the RTT matrix, and returns the best.
"Impractical" in deployment (it needs every client's latency to every
candidate) but exact — the paper includes it purely as the yardstick the
other strategies are measured against.

The search itself is the :func:`repro.kernels.subset.best_subset`
kernel: the ``clients × candidates`` RTT block is built once here and
scanned there as prefix-shared running minima, so the paper's scales
(C(30, 3) = 4 060, C(20, 7) = 77 520 combinations) take a few tens of
milliseconds.  The kernel's scalar twin is the chunked gather scan this
module used to hold, with bitwise-equal totals.
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.kernels.subset import best_subset
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["OptimalPlacement"]


class OptimalPlacement(PlacementStrategy):
    """Exhaustive minimisation of the true average access delay.

    Parameters
    ----------
    max_combinations:
        Safety valve: refuse instances whose search space exceeds this
        (the benchmark sizes stay far below the default).
    """

    name = "optimal"

    def __init__(self, max_combinations: int = 5_000_000) -> None:
        self.max_combinations = max_combinations

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        k = problem.effective_k
        n_candidates = len(problem.candidates)
        space_size = comb(n_candidates, k)
        if space_size > self.max_combinations:
            raise ValueError(
                f"search space C({n_candidates},{k}) = {space_size} exceeds "
                f"max_combinations={self.max_combinations}"
            )

        block = problem.matrix.rows(problem.clients, problem.candidates)
        unreachable = ~np.isfinite(block).any(axis=1)
        if unreachable.any():
            raise ValueError(
                f"client {problem.clients[int(unreachable.argmax())]} has no "
                f"finite RTT to any candidate"
            )
        positions, total = best_subset(block, k)
        if not np.isfinite(total):
            raise ValueError(
                f"no {k}-subset of the candidates gives every client a "
                f"finite RTT"
            )
        return self._check(problem, [problem.candidates[p] for p in positions])
