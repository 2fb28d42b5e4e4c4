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
from repro.kernels import wkmeans as _wk

__all__ = [
    "MacroCluster",
    "PlacementDecision",
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


def _pseudo_points(micro_clusters: Sequence[ClusterFeature],
                   use_bytes_weight: bool) -> tuple[np.ndarray, np.ndarray]:
    """Centroids and weights of the micro-clusters."""
    if not micro_clusters:
        raise ValueError("no micro-clusters supplied")
    points = np.stack([c.centroid for c in micro_clusters])
    if use_bytes_weight:
        weights = np.array([c.weight for c in micro_clusters], dtype=float)
    else:
        weights = np.array([c.count for c in micro_clusters], dtype=float)
    if weights.sum() <= 0:
        # Degenerate but possible (e.g. zero-byte accesses with byte
        # weighting): fall back to uniform pseudo-point weights.
        weights = np.ones(len(micro_clusters))
    return points, weights


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
    points, weights = _pseudo_points(micro_clusters, use_bytes_weight)
    result = weighted_kmeans(points, k, weights=weights, rng=rng)

    counts = np.array([c.count for c in micro_clusters], dtype=float)
    byte_weights = np.array([c.weight for c in micro_clusters], dtype=float)
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


def place_replicas(micro_clusters: Sequence[ClusterFeature], k: int,
                   dc_coords: np.ndarray,
                   rng: np.random.Generator | None = None,
                   use_bytes_weight: bool = False,
                   dc_heights: np.ndarray | None = None,
                   refine_swaps: bool = True,
                   dc_capacities: np.ndarray | None = None,
                   eligible: np.ndarray | None = None) -> PlacementDecision:
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
    dc_heights:
        Optional per-candidate height-vector components (ms).  In a
        height-augmented coordinate space (Vivaldi/RNP) a node's height
        models its access-link delay; serving any client from candidate
        *d* costs ``planar distance + height(d)``, so the assignment
        step adds it.  ``None`` means a pure planar space.
    refine_swaps:
        After the nearest-centroid mapping, greedily swap chosen sites
        for unused candidates while the *estimated* average delay
        improves.  The paper's coordinator explicitly "identif[ies] the
        most beneficial replica locations (i.e., those that are expected
        to minimize the overall data access delay)"; nearest-centroid
        alone can propose a set whose estimated delay is worse than the
        incumbent placement (k-means optimizes squared planar distance,
        not the min-over-replicas objective), which would stall the
        gradual-migration loop.  The refinement costs
        ``O(k · n_dc · k · m)`` distance evaluations per round — still
        independent of the number of accesses.
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
    eligible:
        Optional ``(n_dc,)`` boolean mask over the candidates.  An
        ineligible candidate (partitioned away, failed, fenced off by a
        chaos scenario) keeps its column in every distance matrix —
        same shapes, same code path — but can never be chosen or
        swapped in.  ``k`` is capped at the number of eligible
        candidates.

    Notes
    -----
    The paper assigns each macro-cluster the closest data center.  Two
    macro-clusters can share a closest candidate; to always return ``k``
    distinct sites we process macro-clusters in decreasing weight order
    and give each the nearest *unused* candidate — the heaviest
    population wins the contended site, later ones take the runner-up.
    """
    registry = obs.get_registry()
    with registry.phase("macro.place_replicas"):
        decision = _place_replicas(micro_clusters, k, dc_coords, rng,
                                   use_bytes_weight, dc_heights,
                                   refine_swaps, dc_capacities, eligible)
    if registry.enabled:
        registry.counter("macro.rounds").inc()
        obs.get_tracer().record(
            obs.MACRO_ROUND, k=len(decision.data_centers),
            micro_clusters=len(micro_clusters),
            predicted_delay=decision.predicted_delay)
    return decision


def _place_replicas(micro_clusters: Sequence[ClusterFeature], k: int,
                    dc_coords: np.ndarray,
                    rng: np.random.Generator | None,
                    use_bytes_weight: bool,
                    dc_heights: np.ndarray | None,
                    refine_swaps: bool,
                    dc_capacities: np.ndarray | None,
                    eligible: np.ndarray | None = None
                    ) -> PlacementDecision:
    dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
    n_dc = dc_coords.shape[0]
    if n_dc == 0:
        raise ValueError("no candidate data centers")
    heights = _check_heights(dc_heights, n_dc)
    capacities = None
    if dc_capacities is not None:
        capacities = np.asarray(dc_capacities, dtype=float)
        if capacities.shape != (n_dc,):
            raise ValueError(f"expected {n_dc} capacities")
        if np.any(capacities <= 0):
            raise ValueError("capacities must be positive")
    if eligible is not None:
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != (n_dc,):
            raise ValueError(f"expected ({n_dc},) eligibility mask, "
                             f"got {eligible.shape}")
        if not eligible.any():
            raise ValueError("no candidate data center is eligible")
        k = min(k, int(eligible.sum()))
    k = min(k, n_dc)
    macros = macro_cluster(micro_clusters, k, rng, use_bytes_weight)

    order = sorted(range(len(macros)),
                   key=lambda i: macros[i].count, reverse=True)
    chosen: list[int] = []
    ordered_macros: list[MacroCluster] = []
    used = np.zeros(n_dc, dtype=bool)
    remaining = capacities.copy() if capacities is not None else None
    for idx in order:
        macro = macros[idx]
        dists = _wk.cross_distances(macro.centroid[None, :], dc_coords,
                                    b_heights=heights)[0]
        dists[used] = np.inf
        if eligible is not None:
            dists[~eligible] = np.inf
        if remaining is not None:
            # Nearest candidate that can absorb this population; if none
            # fits, the roomiest one takes the overload.
            feasible = dists.copy()
            feasible[remaining < macro.count] = np.inf
            if np.isfinite(feasible).any():
                site = int(np.argmin(feasible))
            else:
                blocked = used if eligible is None else (used | ~eligible)
                unused_room = np.where(blocked, -np.inf, remaining)
                site = int(np.argmax(unused_room))
            remaining[site] -= macro.count
        else:
            site = int(np.argmin(dists))
        used[site] = True
        chosen.append(site)
        ordered_macros.append(macro)

    # Fewer macro-clusters than k can emerge when k-means leaves empty
    # clusters on tiny inputs; pad with the candidates closest to the
    # heaviest macro-cluster so the degree of replication is honoured.
    while len(chosen) < k:
        anchor = ordered_macros[0].centroid
        dists = _wk.cross_distances(anchor[None, :], dc_coords,
                                    b_heights=heights)[0]
        dists[used] = np.inf
        if eligible is not None:
            dists[~eligible] = np.inf
        site = int(np.argmin(dists))
        used[site] = True
        chosen.append(site)

    if refine_swaps:
        chosen = _refine_by_swaps(micro_clusters, chosen, dc_coords, heights,
                                  capacities=capacities,
                                  use_bytes_weight=use_bytes_weight,
                                  eligible=eligible)

    picks = np.array(chosen)
    predicted = estimate_average_delay(micro_clusters, dc_coords[picks],
                                       replica_heights=heights[picks])
    return PlacementDecision(tuple(chosen), tuple(ordered_macros), predicted)


def _refine_by_swaps(micro_clusters: Sequence[ClusterFeature],
                     chosen: list[int], dc_coords: np.ndarray,
                     heights: np.ndarray, max_rounds: int = 8,
                     capacities: np.ndarray | None = None,
                     use_bytes_weight: bool = False,
                     eligible: np.ndarray | None = None) -> list[int]:
    """Greedy site swaps that improve the summary-estimated delay.

    Works entirely on the micro-cluster summaries (centroids weighted by
    access count) and candidate coordinates — the only information the
    coordinator has.  With ``capacities`` given, a swap is accepted only
    if every site's routed load stays within its capacity (the starting
    placement is exempt: if it already overloads, improving delay without
    worsening feasibility is still allowed via the no-worse rule below).
    """
    centroids = np.stack([c.centroid for c in micro_clusters])
    counts = np.array([c.count for c in micro_clusters], dtype=float)
    if counts.sum() <= 0:
        counts = np.ones(len(micro_clusters))
    if use_bytes_weight:
        mass = np.array([c.weight for c in micro_clusters], dtype=float)
        if mass.sum() <= 0:
            mass = counts
    else:
        mass = counts
    weights = mass / mass.sum()
    # (micro-cluster, candidate) predicted serving cost.
    cost = _wk.cross_distances(centroids, dc_coords, b_heights=heights)

    chosen = list(chosen)
    n_dc = dc_coords.shape[0]

    def estimated(sites: list[int]) -> float:
        return float(weights @ cost[:, sites].min(axis=1))

    def overload(sites: list[int]) -> float:
        """Total routed load above capacity (0 when feasible)."""
        if capacities is None:
            return 0.0
        routed = np.argmin(cost[:, sites], axis=1)
        loads = np.bincount(routed, weights=counts, minlength=len(sites))
        return float(np.maximum(loads - capacities[list(sites)], 0.0).sum())

    best = estimated(chosen)
    best_overload = overload(chosen)
    for _ in range(max_rounds):
        improved = False
        for i in range(len(chosen)):
            in_use = set(chosen)
            for candidate in range(n_dc):
                if candidate in in_use:
                    continue
                if eligible is not None and not eligible[candidate]:
                    continue
                trial = chosen.copy()
                trial[i] = candidate
                trial_overload = overload(trial)
                if trial_overload > best_overload + 1e-12:
                    continue
                value = estimated(trial)
                if (value < best - 1e-12
                        or trial_overload < best_overload - 1e-12):
                    chosen, best = trial, value
                    best_overload = trial_overload
                    improved = True
                    in_use = set(chosen)
        if not improved:
            break
    return chosen


def estimate_average_delay(micro_clusters: Sequence[ClusterFeature],
                           replica_coords: np.ndarray,
                           replica_heights: np.ndarray | None = None
                           ) -> float:
    """Predicted mean access delay of a placement, from summaries alone.

    Each micro-cluster contributes ``count`` accesses at its centroid;
    every access is served by the nearest replica (in coordinate space,
    plus the replica's height when heights are in play), so the estimate
    is the count-weighted mean of ``min_r (dist(centroid, r) + h_r)``.
    """
    if not micro_clusters:
        raise ValueError("no micro-clusters supplied")
    replica_coords = np.atleast_2d(np.asarray(replica_coords, dtype=float))
    if replica_coords.shape[0] == 0:
        raise ValueError("no replica coordinates supplied")
    heights = _check_heights(replica_heights, replica_coords.shape[0])
    centroids = np.stack([c.centroid for c in micro_clusters])
    counts = np.array([c.count for c in micro_clusters], dtype=float)
    if counts.sum() <= 0:
        counts = np.ones(len(micro_clusters))
    dists = _wk.cross_distances(centroids, replica_coords,
                                b_heights=heights).min(axis=1)
    return float(np.average(dists, weights=counts))
