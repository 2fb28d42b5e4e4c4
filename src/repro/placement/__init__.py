"""Replica placement strategies (Section IV's four contenders, plus two).

Every strategy consumes a :class:`PlacementProblem` — candidate data
centers, the client population, the target degree of replication *k*,
ground-truth RTTs and (for the informed strategies) network coordinates —
and returns *k* candidate indices.  Placements are always *evaluated* on
true RTTs via :func:`average_access_delay`, exactly as the paper does.

Implemented strategies:

* :class:`RandomPlacement` — the paper's ``random`` baseline;
* :class:`OfflineKMeansPlacement` — ``offline k-means clustering``:
  records every client coordinate centrally, clusters them, and picks
  the candidate nearest each centroid;
* :class:`OnlineClusteringPlacement` — the paper's contribution: builds
  per-replica micro-cluster summaries from a simulated access stream and
  runs Algorithm 1, optionally iterating to model gradual migration;
* :class:`OptimalPlacement` — exhaustive search over all
  ``C(|candidates|, k)`` placements (the paper's impractical oracle);
* :class:`GreedyPlacement` — the classic greedy heuristic of Qiu et al.
  (INFOCOM 2002), an informed related-work baseline;
* :class:`HotZonePlacement` — the cell-density heuristic of Szymaniak et
  al. (SAINT 2005), the related-work baseline the paper criticises for
  ignoring all but the most crowded cells;
* :class:`KMedianPlacement` — offline single-swap local search on the
  coordinate-space k-median objective (Arya et al.), the strongest
  baseline that, like offline k-means, needs every client coordinate;
* :class:`CodedPlacement` — erasure-coded object splitting after Chandy
  (2008): n fragments, any k reconstruct, delay = k-th order statistic
  (evaluate with :func:`coded_access_delay`).
"""

from repro.placement.base import (
    PlacementProblem,
    PlacementStrategy,
    average_access_delay,
)
from repro.placement.random_placement import RandomPlacement
from repro.placement.offline_kmeans import OfflineKMeansPlacement
from repro.placement.online import OnlineClusteringPlacement
from repro.placement.optimal import OptimalPlacement
from repro.placement.greedy import GreedyPlacement
from repro.placement.hotzone import HotZonePlacement
from repro.placement.kmedian import KMedianPlacement
from repro.placement.coded import CodedPlacement, coded_access_delay
from repro.placement.availability import (
    AvailabilityAwarePlacement,
    AvailabilityObjective,
    bound_transfers,
    refine_for_availability,
)

__all__ = [
    "PlacementProblem",
    "PlacementStrategy",
    "average_access_delay",
    "AvailabilityAwarePlacement",
    "AvailabilityObjective",
    "bound_transfers",
    "refine_for_availability",
    "RandomPlacement",
    "OfflineKMeansPlacement",
    "OnlineClusteringPlacement",
    "OptimalPlacement",
    "GreedyPlacement",
    "HotZonePlacement",
    "KMedianPlacement",
    "CodedPlacement",
    "coded_access_delay",
]
