"""HotZone-style cell-density placement (Szymaniak et al., SAINT 2005).

Related-work baseline: divide the coordinate space into a grid of cells,
rank cells by how many clients fall inside, and place one replica near
each of the *k* most crowded cells.  The paper points out the inherent
limitation this reproduction makes observable: every client outside the
top-k cells is ignored when choosing sites, so dispersed populations are
served poorly compared to clustering approaches.
"""

from __future__ import annotations

import numpy as np

from repro.core.macro import assign_sites
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["HotZonePlacement"]


class HotZonePlacement(PlacementStrategy):
    """Place replicas at candidates nearest the most crowded grid cells.

    Parameters
    ----------
    cells_per_axis:
        Grid resolution; the coordinate bounding box of the clients is
        split into this many cells per dimension.
    """

    name = "hotzone"

    def __init__(self, cells_per_axis: int = 8) -> None:
        if cells_per_axis < 1:
            raise ValueError("grid needs at least one cell per axis")
        self.cells_per_axis = cells_per_axis

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        client_coords = problem.client_coords()
        candidate_coords = problem.candidate_coords()
        k = problem.effective_k

        lo = client_coords.min(axis=0)
        hi = client_coords.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        # Cell index per client, flattened to a single key per cell.
        scaled = (client_coords - lo) / span * self.cells_per_axis
        cell_idx = np.clip(scaled.astype(int), 0, self.cells_per_axis - 1)
        shape = (self.cells_per_axis,) * client_coords.shape[1]
        keys = np.ravel_multi_index(cell_idx.T, shape)

        unique_keys, counts = np.unique(keys, return_counts=True)
        # The k most crowded cells, ties in key order, each claiming the
        # nearest unused candidate from its centre.
        top = np.argsort(-counts, kind="stable")[:k]
        cells = np.stack(np.unravel_index(unique_keys[top], shape), axis=1)
        centres = lo + (cells + 0.5) * (span / self.cells_per_axis)
        chosen, _ = assign_sites(centres, counts[top], candidate_coords,
                                 len(top), problem.candidate_heights())

        # Fewer occupied cells than k: fill with random unused candidates
        # (the heuristic has no further information to offer).
        if len(chosen) < k:
            unused = [p for p in range(len(problem.candidates))
                      if p not in chosen]
            extra = rng.choice(len(unused), size=k - len(chosen), replace=False)
            chosen.extend(unused[int(e)] for e in extra)

        sites = [problem.candidates[p] for p in chosen]
        return self._check(problem, sites)
