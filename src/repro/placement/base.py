"""Common interface and evaluation for placement strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.kernels import wkmeans as _wk
from repro.net.latency import LatencyMatrix

__all__ = ["PlacementProblem", "PlacementStrategy", "average_access_delay"]


@dataclass(frozen=True)
class PlacementProblem:
    """One instance of the replica placement problem (Section II-B).

    Attributes
    ----------
    matrix:
        Ground-truth RTTs over all nodes.
    candidates:
        Node indices that may host a replica (the available data
        centers, the paper's set *C*).
    clients:
        Node indices that access the object (the paper's *U*); disjoint
        from ``candidates`` in the paper's setup, though overlap is
        allowed.
    k:
        Target degree of replication.
    coords:
        Optional ``(n, d)`` *planar* network coordinates for every node
        in the matrix; required by the coordinate-based strategies.
    heights:
        Optional ``(n,)`` height-vector components (Vivaldi/RNP model of
        per-node access delay, in ms).  When present, the predicted cost
        of serving from node *j* is ``planar distance + heights[j]``
        (the requester's own height is the same for every choice, so it
        never affects a comparison).

    :meth:`predicted_costs` is that rule as one (client × candidate)
    matrix; the coordinate-based strategies read their costs from it.
    """

    matrix: LatencyMatrix
    candidates: tuple[int, ...]
    clients: tuple[int, ...]
    k: int
    coords: np.ndarray | None = field(default=None)
    heights: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if not self.candidates:
            raise ValueError("at least one candidate data center required")
        if not self.clients:
            raise ValueError("at least one client required")
        n = self.matrix.n
        for idx in (*self.candidates, *self.clients):
            if not 0 <= idx < n:
                raise ValueError(f"node index {idx} outside matrix of size {n}")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidate indices must be distinct")
        object.__setattr__(self, "candidates", tuple(int(c) for c in self.candidates))
        object.__setattr__(self, "clients", tuple(int(c) for c in self.clients))
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != n:
                raise ValueError(
                    f"coords must be (n={n}, d), got {coords.shape}"
                )
            object.__setattr__(self, "coords", coords)
        if self.heights is not None:
            heights = np.asarray(self.heights, dtype=float)
            if heights.shape != (n,):
                raise ValueError(
                    f"heights must be (n={n},), got {heights.shape}"
                )
            if np.any(heights < 0):
                raise ValueError("heights must be non-negative")
            object.__setattr__(self, "heights", heights)

    @property
    def effective_k(self) -> int:
        """k capped at the number of candidates."""
        return min(self.k, len(self.candidates))

    def require_coords(self) -> np.ndarray:
        """Coordinates, or a clear error for strategies that need them."""
        if self.coords is None:
            raise ValueError(
                "this strategy requires network coordinates "
                "(set PlacementProblem.coords)"
            )
        return self.coords

    def candidate_coords(self) -> np.ndarray:
        """Coordinates of the candidate data centers."""
        return self.require_coords()[list(self.candidates)]

    def client_coords(self) -> np.ndarray:
        """Coordinates of the clients."""
        return self.require_coords()[list(self.clients)]

    def candidate_heights(self) -> np.ndarray:
        """Height components of the candidates (zeros when unset)."""
        if self.heights is None:
            return np.zeros(len(self.candidates))
        return self.heights[list(self.candidates)]

    def predicted_costs(self) -> np.ndarray:
        """``(clients, candidates)`` coordinate-predicted serving costs.

        Planar distance from each client to each candidate plus the
        candidate's height (DESIGN §5.0) — the one cost matrix every
        coordinate-based strategy ranks candidates by.
        """
        return _wk.cross_distances(self.client_coords(),
                                   self.candidate_coords(),
                                   b_heights=self.candidate_heights())


class PlacementStrategy(ABC):
    """A replica placement algorithm.

    Subclasses set :attr:`name` (used in reports) and implement
    :meth:`place`, returning ``problem.effective_k`` *distinct* candidate
    node indices (values from ``problem.candidates``, not positions).
    """

    name: str = "abstract"

    @abstractmethod
    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        """Choose replica sites for ``problem``."""

    def _check(self, problem: PlacementProblem,
               sites: Sequence[int]) -> tuple[int, ...]:
        """Validate a raw site list before returning it."""
        sites = tuple(int(s) for s in sites)
        if len(sites) != problem.effective_k:
            raise AssertionError(
                f"{self.name} returned {len(sites)} sites, "
                f"expected {problem.effective_k}"
            )
        if len(set(sites)) != len(sites):
            raise AssertionError(f"{self.name} returned duplicate sites")
        candidate_set = set(problem.candidates)
        for s in sites:
            if s not in candidate_set:
                raise AssertionError(f"{self.name} chose non-candidate {s}")
        return sites

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def average_access_delay(matrix: LatencyMatrix, clients: Sequence[int],
                         sites: Sequence[int]) -> float:
    """True mean access delay: each client reads its closest replica.

    This is the paper's objective ``l(o)/|U|`` computed on ground-truth
    RTTs (Section II-B) — the yardstick every figure reports.
    """
    clients = list(clients)
    sites = list(sites)
    if not clients or not sites:
        raise ValueError("clients and sites must be non-empty")
    block = matrix.rows(clients, sites)
    per_client = block.min(axis=1)
    registry = obs.get_registry()
    if registry.enabled:
        registry.counter("accesses.served").inc(len(clients))
        registry.histogram("access.delay_ms").observe_many(per_client)
    return float(per_client.mean())
