"""Read/write-aware placement (extension; paper §II-A + §V-B).

The paper assumes read-mostly objects and "the cost of propagating
updates among data replicas is ignored"; its related work (notably
Sivasubramanian et al., AAA-IDEA 2006) takes the read-write ratio into
account.  This module builds that extension on top of the same
micro-cluster machinery:

* the storage layer already summarizes reads and writes separately
  (two :class:`~repro.core.summarizer.ReplicaAccessSummary` streams);
* a write is served by the *closest* replica and then propagated to
  every other replica, so its cost is
  ``dist(writer, nearest) + update_fanout_cost(nearest -> others)``;
* :func:`estimate_rw_cost` prices a placement under that model, and
  :func:`place_replicas_rw` optimizes it with the same
  k-means-then-swap-refinement pipeline as Algorithm 1.

The visible behavioural consequence (checked by the tests and the
write-fraction bench): as the write share grows, the optimizer pulls
replicas *closer together* — update fan-out punishes spread — and in
the limit collapses toward a single master near the writers, exactly
the design point the related work argues for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clustering.stream import MicroClusters
from repro.core.macro import (
    DelayEstimator,
    MacroCluster,
    _check_heights,
    assign_sites,
    macro_cluster,
)
from repro.core.search import swap_descent
from repro.kernels import wkmeans as _wk

__all__ = ["RWCostEstimator", "RWPlacementDecision", "estimate_rw_cost",
           "place_replicas_rw"]


@dataclass(frozen=True)
class RWPlacementDecision:
    """Outcome of :func:`place_replicas_rw`."""

    data_centers: tuple[int, ...]
    read_macro_clusters: tuple[MacroCluster, ...]
    predicted_cost: float
    predicted_read_delay: float
    predicted_write_delay: float


class RWCostEstimator:
    """Read+write cost of placements over one candidate set.

    The write-aware counterpart of
    :class:`~repro.core.macro.DelayEstimator`, behind the same
    ``delay(sites)`` interface: the reader → candidate, writer →
    candidate and candidate → candidate cost blocks are computed once,
    and a placement is priced from their columns.

    Read cost per access: distance to the nearest replica.  Write cost
    per access: distance to the nearest replica *plus* the mean
    distance from that replica to every other replica (asynchronous
    propagation still consumes wide-area transfers; the mean makes the
    number an average per-message delay rather than a fan-out sum, so
    read and write costs stay on the same ms scale).
    """

    def __init__(self, read_clusters: MicroClusters,
                 write_clusters: MicroClusters,
                 dc_coords: np.ndarray,
                 dc_heights: np.ndarray | None = None) -> None:
        dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
        if dc_coords.shape[0] == 0:
            raise ValueError("no replica coordinates supplied")
        heights = _check_heights(dc_heights, dc_coords.shape[0])
        if not len(read_clusters) and not len(write_clusters):
            raise ValueError("no micro-clusters supplied")
        self._reads = (DelayEstimator(read_clusters, dc_coords, heights)
                       if len(read_clusters) else None)
        self._writes = (DelayEstimator(write_clusters, dc_coords, heights)
                        if len(write_clusters) else None)
        # Candidate-to-candidate propagation cost.
        self._inter = _wk.cross_distances(dc_coords, dc_coords,
                                          b_heights=heights)
        np.fill_diagonal(self._inter, 0.0)

    def costs(self, sites: Sequence[int]) -> tuple[float, float, float]:
        """``(combined, read_only, write_only)`` mean delays at ``sites``.

        ``combined`` weighs the two by their access counts.
        """
        sites = list(sites)
        read_total = read_count = 0.0
        if self._reads is not None:
            counts = self._reads.counts
            read_total = float(
                counts @ self._reads.cost[:, sites].min(axis=1))
            read_count = float(counts.sum())

        write_total = write_count = 0.0
        if self._writes is not None:
            counts = self._writes.counts
            to_replicas = self._writes.cost[:, sites]
            nearest = np.argmin(to_replicas, axis=1)
            # Mean propagation cost per update accepted at each replica.
            fanout = (self._inter[np.ix_(sites, sites)].sum(axis=1)
                      / max(len(sites) - 1, 1))
            per_write = (to_replicas[np.arange(len(counts)), nearest]
                         + fanout[nearest])
            write_total = float(counts @ per_write)
            write_count = float(counts.sum())

        combined = (read_total + write_total) / (read_count + write_count)
        read_mean = read_total / read_count if read_count else 0.0
        write_mean = write_total / write_count if write_count else 0.0
        return combined, read_mean, write_mean

    def delay(self, sites: Sequence[int]) -> float:
        """The combined read+write mean delay at ``sites``."""
        return self.costs(sites)[0]


def estimate_rw_cost(read_clusters: MicroClusters,
                     write_clusters: MicroClusters,
                     replica_coords: np.ndarray,
                     replica_heights: np.ndarray | None = None
                     ) -> tuple[float, float, float]:
    """Predicted (total, read, write) mean delays of a placement.

    :meth:`RWCostEstimator.costs` with a replica at every row of
    ``replica_coords``.  Empty ``write_clusters`` reduce to the paper's
    read-only estimator.
    """
    estimator = RWCostEstimator(read_clusters, write_clusters,
                                replica_coords, replica_heights)
    return estimator.costs(range(estimator._inter.shape[0]))


def place_replicas_rw(read_clusters: MicroClusters,
                      write_clusters: MicroClusters,
                      k: int, dc_coords: np.ndarray,
                      rng: np.random.Generator | None = None,
                      dc_heights: np.ndarray | None = None
                      ) -> RWPlacementDecision:
    """Choose ``k`` sites minimizing the combined read+write estimate.

    Seeding follows Algorithm 1 on the *read* population (macro-cluster
    centroids mapped to nearest candidates); greedy single-site swaps
    then optimize :meth:`RWCostEstimator.delay`, which is where write
    propagation pulls the solution together.
    """
    dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
    n_dc = dc_coords.shape[0]
    if n_dc == 0:
        raise ValueError("no candidate data centers")
    heights = _check_heights(dc_heights, n_dc)
    k = min(k, n_dc)

    macros = macro_cluster(read_clusters if len(read_clusters)
                           else write_clusters, k, rng)
    chosen, _ = assign_sites(np.stack([m.centroid for m in macros]),
                             [m.count for m in macros], dc_coords, k,
                             heights)
    estimator = RWCostEstimator(read_clusters, write_clusters, dc_coords,
                                heights)
    chosen, _ = swap_descent(chosen, range(n_dc), estimator.delay)
    return RWPlacementDecision(tuple(chosen), tuple(macros),
                               *estimator.costs(chosen))
