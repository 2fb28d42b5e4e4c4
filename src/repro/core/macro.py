"""Macro-clustering and replica-site selection (Algorithm 1).

The coordinator collects the micro-clusters from every replica holder,
merges them into *k* macro-clusters with weighted k-means (each
micro-cluster is a pseudo-point at its centroid, weighted by access
count), and maps each macro-cluster to the nearest candidate data
center.  The same module provides the predicted-delay estimator the
migration policy uses to compare placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.stream import ClusterFeature
from repro.core.search import TOLERANCE, swap_descent
from repro.kernels import wkmeans as _wk

__all__ = [
    "DelayEstimator",
    "MacroCluster",
    "PlacementDecision",
    "assign_sites",
    "macro_cluster",
    "place_replicas",
    "estimate_average_delay",
]


@dataclass(frozen=True)
class MacroCluster:
    """One major user population identified by Algorithm 1."""

    centroid: np.ndarray
    count: float
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "centroid",
                           np.asarray(self.centroid, dtype=float))


@dataclass(frozen=True)
class PlacementDecision:
    """Output of :func:`place_replicas`.

    Attributes
    ----------
    data_centers:
        Chosen candidate indices (into the ``dc_coords`` the caller
        supplied), one per macro-cluster, all distinct.
    macro_clusters:
        The macro-clusters, in the same order as ``data_centers``.
    predicted_delay:
        Access-count-weighted mean distance from micro-cluster centroids
        to their nearest chosen data center — the coordinator's estimate
        of the average access delay this placement achieves.
    """

    data_centers: tuple[int, ...]
    macro_clusters: tuple[MacroCluster, ...]
    predicted_delay: float


def _stack(micro_clusters: Sequence[ClusterFeature]
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centroids, access counts and byte weights of the micro-clusters."""
    if not micro_clusters:
        raise ValueError("no micro-clusters supplied")
    return (np.stack([c.centroid for c in micro_clusters]),
            np.array([c.count for c in micro_clusters], dtype=float),
            np.array([c.weight for c in micro_clusters], dtype=float))


def _or_uniform(mass: np.ndarray) -> np.ndarray:
    """``mass``, or uniform pseudo-point weights when it sums to nothing
    (degenerate but possible, e.g. zero-byte accesses weighted by bytes)."""
    return mass if mass.sum() > 0 else np.ones(len(mass))


def macro_cluster(micro_clusters: Sequence[ClusterFeature], k: int,
                  rng: np.random.Generator | None = None,
                  use_bytes_weight: bool = False) -> list[MacroCluster]:
    """Merge micro-clusters into ``k`` macro-clusters (Algorithm 1, line 2).

    Parameters
    ----------
    micro_clusters:
        The pooled micro-clusters from all replica holders.
    k:
        Target degree of replication.
    use_bytes_weight:
        Weight pseudo-points by bytes exchanged instead of access count
        (the paper mentions both; count is the default).
    """
    if k < 1:
        raise ValueError("k must be positive")
    rng = rng or np.random.default_rng(0)
    points, counts, byte_weights = _stack(micro_clusters)
    weights = _or_uniform(byte_weights if use_bytes_weight else counts)
    result = weighted_kmeans(points, k, weights=weights, rng=rng)

    macros = []
    for c in range(result.k):
        mask = result.labels == c
        if not np.any(mask):
            continue
        macros.append(MacroCluster(
            centroid=result.centroids[c],
            count=float(counts[mask].sum()),
            weight=float(byte_weights[mask].sum()),
        ))
    return macros


def _check_heights(heights: np.ndarray | None, n: int) -> np.ndarray:
    if heights is None:
        return np.zeros(n)
    heights = np.asarray(heights, dtype=float)
    if heights.shape != (n,):
        raise ValueError(f"expected {n} heights, got shape {heights.shape}")
    if np.any(heights < 0):
        raise ValueError("heights must be non-negative")
    return heights


def _check_capacities(capacities: np.ndarray | None,
                      n: int) -> np.ndarray | None:
    if capacities is None:
        return None
    capacities = np.asarray(capacities, dtype=float)
    if capacities.shape != (n,):
        raise ValueError(f"expected {n} capacities")
    if np.any(capacities <= 0):
        raise ValueError("capacities must be positive")
    return capacities


class DelayEstimator:
    """Predicted delays of placements over one candidate set, from
    summaries alone.

    Stacks the micro-clusters' centroids and access counts and computes
    the (micro-cluster × candidate) predicted serving cost once; every
    search that scores placements against the same summaries — the swap
    refinement of :func:`place_replicas`, the epoch controller's
    λ-refinement, transfer cap and verdict — reads columns of it.

    ``counts`` holds the ``(m,)`` access counts (uniform when they sum
    to zero), ``byte_weights`` the bytes exchanged, ``cost`` the
    ``(m, n_dc)`` centroid-to-candidate distances plus the candidate's
    height.
    """

    def __init__(self, micro_clusters: Sequence[ClusterFeature],
                 dc_coords: np.ndarray,
                 dc_heights: np.ndarray | None = None) -> None:
        dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
        if dc_coords.shape[0] == 0:
            raise ValueError("no replica coordinates supplied")
        centroids, counts, self.byte_weights = _stack(micro_clusters)
        self.counts = _or_uniform(counts)
        self.cost = _wk.cross_distances(
            centroids, dc_coords,
            b_heights=_check_heights(dc_heights, dc_coords.shape[0]))

    def delay(self, sites: Sequence[int]) -> float:
        """Predicted mean access delay with replicas at ``sites``.

        Each micro-cluster contributes ``count`` accesses at its
        centroid; every access is served by the nearest replica, so the
        estimate is the count-weighted mean of
        ``min_r (dist(centroid, r) + h_r)``.
        """
        nearest = self.cost[:, list(sites)].min(axis=1)
        return float(np.average(nearest, weights=self.counts))


def place_replicas(micro_clusters: Sequence[ClusterFeature], k: int,
                   dc_coords: np.ndarray,
                   rng: np.random.Generator | None = None,
                   use_bytes_weight: bool = False,
                   dc_heights: np.ndarray | None = None,
                   dc_capacities: np.ndarray | None = None
                   ) -> PlacementDecision:
    """Algorithm 1: choose ``k`` distinct data centers for the replicas.

    Parameters
    ----------
    micro_clusters:
        Pooled micro-clusters from the current replica holders.
    k:
        Target degree of replication (capped by the number of candidate
        data centers).
    dc_coords:
        ``(n_dc, d)`` coordinates of the candidate data centers, in the
        same (planar) coordinate space as the micro-cluster centroids.
        A caller that must avoid some candidates (partitioned away,
        failed) passes only the reachable rows and maps the returned
        positions back.
    dc_heights:
        Optional per-candidate height-vector components (ms).  In a
        height-augmented coordinate space (Vivaldi/RNP) a node's height
        models its access-link delay; serving any client from candidate
        *d* costs ``planar distance + height(d)``, so the assignment
        step adds it.  ``None`` means a pure planar space.
    dc_capacities:
        Optional per-candidate capacity in *accesses per epoch*.
        Section II-A assumes "candidate replica locations are
        considered only when they can handle the expected user
        requests"; with capacities given, that assumption becomes a
        constraint: a macro-cluster claims the nearest candidate whose
        remaining capacity covers its access count (falling back to the
        largest-remaining candidate when none fits), and refinement
        swaps are accepted only if the resulting per-site loads —
        every micro-cluster routed to its nearest chosen site — stay
        within capacity.

    Notes
    -----
    The paper assigns each macro-cluster the closest data center.  Two
    macro-clusters can share a closest candidate; to always return ``k``
    distinct sites :func:`assign_sites` processes macro-clusters in
    decreasing access count and gives each the nearest *unused*
    candidate — the heaviest population wins the contended site, later
    ones take the runner-up.

    That mapping is then refined by greedy site swaps while the
    *estimated* average delay improves.  The paper's coordinator
    explicitly "identif[ies] the most beneficial replica locations
    (i.e., those that are expected to minimize the overall data access
    delay)"; nearest-centroid alone can propose a set whose estimated
    delay is worse than the incumbent placement (k-means optimizes
    squared planar distance, not the min-over-replicas objective), which
    would stall the gradual-migration loop.  The refinement costs
    ``O(k · n_dc · k · m)`` distance evaluations per round — still
    independent of the number of accesses.
    """
    registry = obs.get_registry()
    with registry.phase("macro.place_replicas"):
        dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
        n_dc = dc_coords.shape[0]
        if n_dc == 0:
            raise ValueError("no candidate data centers")
        heights = _check_heights(dc_heights, n_dc)
        capacities = _check_capacities(dc_capacities, n_dc)
        k = min(k, n_dc)
        macros = macro_cluster(micro_clusters, k, rng, use_bytes_weight)
        chosen, order = assign_sites(
            np.stack([m.centroid for m in macros]),
            [m.count for m in macros], dc_coords, k, heights, capacities)
        estimator = DelayEstimator(micro_clusters, dc_coords, heights)
        chosen = _refine_by_swaps(chosen, estimator, capacities,
                                  use_bytes_weight)
        decision = PlacementDecision(tuple(chosen),
                                     tuple(macros[i] for i in order),
                                     estimator.delay(chosen))
    if registry.enabled:
        registry.counter("macro.rounds").inc()
        obs.get_tracer().record(
            obs.MACRO_ROUND, k=len(decision.data_centers),
            micro_clusters=len(micro_clusters),
            predicted_delay=decision.predicted_delay)
    return decision


def assign_sites(centroids: np.ndarray, weights: Sequence[float],
                 dc_coords: np.ndarray, k: int,
                 heights: np.ndarray | None = None,
                 capacities: np.ndarray | None = None
                 ) -> tuple[list[int], list[int]]:
    """Algorithm 1's mapping: each population to a distinct candidate.

    Populations — ``centroids`` with their ``weights`` — are taken
    heaviest first, ties in input order, and each claims the nearest
    candidate not yet taken, at cost ``planar distance + heights``.
    With ``capacities`` (see :func:`place_replicas`) a population claims
    the nearest candidate whose remaining capacity covers its weight,
    or the roomiest one when none does.  Fewer populations than ``k``
    are padded with the free candidates nearest the heaviest one, so
    the degree of replication is honoured.

    Returns ``(sites, order)``: ``min(k, n_dc)`` distinct positions into
    ``dc_coords``, and the indices of the populations in the order they
    claimed ``sites[:len(order)]``.
    """
    dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
    n_dc = dc_coords.shape[0]
    heights = _check_heights(heights, n_dc)
    capacities = _check_capacities(capacities, n_dc)
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        raise ValueError("no populations to place")
    k = min(k, n_dc)
    order = np.argsort(-weights, kind="stable")[:k]
    dists = _wk.cross_distances(np.asarray(centroids)[order], dc_coords,
                                b_heights=heights)
    taken = np.zeros(n_dc, dtype=bool)
    remaining = None if capacities is None else capacities.copy()
    sites: list[int] = []
    for weight, row in zip(weights[order], dists):
        free = np.where(taken, np.inf, row)
        if remaining is None:
            site = int(np.argmin(free))
        else:
            feasible = np.where(remaining < weight, np.inf, free)
            if np.isfinite(feasible).any():
                site = int(np.argmin(feasible))
            else:
                site = int(np.argmax(np.where(taken, -np.inf, remaining)))
            remaining[site] -= weight
        taken[site] = True
        sites.append(site)
    while len(sites) < k:
        site = int(np.argmin(np.where(taken, np.inf, dists[0])))
        taken[site] = True
        sites.append(site)
    return sites, order.tolist()


def _within_capacity(trial: tuple[float, float],
                     best: tuple[float, float]) -> bool:
    """Capacity rule over ``(delay, overload)`` scores: a swap may never
    add overload, and must cut the delay or the overload."""
    (value, overload), (best_value, best_overload) = trial, best
    if overload > best_overload + TOLERANCE:
        return False
    return (value < best_value - TOLERANCE
            or overload < best_overload - TOLERANCE)


def _refine_by_swaps(chosen: list[int], estimator: DelayEstimator,
                     capacities: np.ndarray | None,
                     use_bytes_weight: bool) -> list[int]:
    """Greedy site swaps that improve the summary-estimated delay.

    Works entirely on the micro-cluster summaries (centroids weighted by
    access count) and candidate coordinates — the only information the
    coordinator has.  With ``capacities`` given, a swap is accepted only
    if every site's routed load stays within its capacity (the starting
    placement is exempt: if it already overloads, improving delay without
    worsening feasibility is still allowed via :func:`_within_capacity`).
    """
    cost, counts = estimator.cost, estimator.counts
    mass = counts
    if use_bytes_weight and estimator.byte_weights.sum() > 0:
        mass = estimator.byte_weights
    weights = mass / mass.sum()
    pool = range(cost.shape[1])

    def estimated(sites: list[int]) -> float:
        return float(weights @ cost[:, sites].min(axis=1))

    if capacities is None:
        return swap_descent(chosen, pool, estimated)[0]

    def with_overload(sites: list[int]) -> tuple[float, float]:
        """Estimated delay and total routed load above capacity."""
        routed = np.argmin(cost[:, sites], axis=1)
        loads = np.bincount(routed, weights=counts, minlength=len(sites))
        excess = np.maximum(loads - capacities[sites], 0.0).sum()
        return estimated(sites), float(excess)

    return swap_descent(chosen, pool, with_overload,
                        better=_within_capacity)[0]


def estimate_average_delay(micro_clusters: Sequence[ClusterFeature],
                           replica_coords: np.ndarray,
                           replica_heights: np.ndarray | None = None
                           ) -> float:
    """Predicted mean access delay of a placement, from summaries alone.

    :meth:`DelayEstimator.delay` with a replica at every row of
    ``replica_coords``.
    """
    estimator = DelayEstimator(micro_clusters, replica_coords,
                               replica_heights)
    return estimator.delay(range(estimator.cost.shape[1]))
