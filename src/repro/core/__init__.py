"""The paper's contribution: online clustering replica placement.

This package implements Sections III-B through III-D:

* :class:`ReplicaAccessSummary` — the per-replica online summary of user
  coordinates: at most *m* micro-clusters, updated on every access with
  O(m) work and shipped in under 1 KB per cluster (Section III-B);
* :func:`macro_cluster` and :func:`place_replicas` — Algorithm 1: merge
  the collected micro-clusters into *k* macro-clusters with weighted
  k-means and map each to its nearest candidate data center
  (Section III-C);
* :class:`DelayEstimator` / :func:`estimate_average_delay` — predicted
  mean access delay of a placement from the summaries alone, the
  quantity the migration policy compares (one cost matrix per epoch;
  :class:`RWCostEstimator` is its write-aware counterpart);
* :func:`swap_descent` — the one first-improvement single-swap search
  every placement refinement in the package runs;
* :class:`MigrationCostModel` / :class:`MigrationPolicy` — migrate only
  when the latency gain justifies the transfer cost (Section III-C);
* :mod:`repro.core.costs` — the analytic and empirical bandwidth/compute
  accounting behind Table II;
* :class:`ReplicationController` — the periodic control loop that ties
  summaries, placement and migration together on the simulator, with
  optional demand-driven adaptation of the replication degree *k*.

``MicroCluster`` is re-exported here under the paper's name; it is the
generic :class:`~repro.clustering.stream.ClusterFeature`.
"""

from repro.clustering.stream import ClusterFeature as MicroCluster
from repro.core.summarizer import ReplicaAccessSummary
from repro.core.search import swap_descent
from repro.core.macro import (
    DelayEstimator,
    MacroCluster,
    PlacementDecision,
    estimate_average_delay,
    macro_cluster,
    place_replicas,
)
from repro.core.migration import MigrationCostModel, MigrationPolicy, MigrationVerdict
from repro.core.readwrite import (
    RWCostEstimator,
    RWPlacementDecision,
    estimate_rw_cost,
    place_replicas_rw,
)
from repro.core.costs import (
    CostTally,
    offline_bandwidth_bytes,
    offline_compute_ops,
    online_bandwidth_bytes,
    online_compute_ops,
)
from repro.core.controller import ControllerConfig, EpochReport, ReplicationController

__all__ = [
    "MicroCluster",
    "ReplicaAccessSummary",
    "MacroCluster",
    "PlacementDecision",
    "DelayEstimator",
    "estimate_average_delay",
    "swap_descent",
    "macro_cluster",
    "place_replicas",
    "MigrationCostModel",
    "MigrationPolicy",
    "MigrationVerdict",
    "RWCostEstimator",
    "RWPlacementDecision",
    "estimate_rw_cost",
    "place_replicas_rw",
    "CostTally",
    "online_bandwidth_bytes",
    "offline_bandwidth_bytes",
    "online_compute_ops",
    "offline_compute_ops",
    "ControllerConfig",
    "EpochReport",
    "ReplicationController",
]
