"""Clustering primitives: weighted k-means and streaming micro-clusters.

The paper's placement algorithm is built from two clustering layers
(Section III-B/C):

* an **online** layer at each replica server that folds every data access
  into at most *m* micro-clusters — held as one immutable
  :class:`MicroClusters` record of CF columns, which
  :class:`repro.core.summarizer.ReplicaAccessSummary` maintains;
* a periodic **weighted k-means** over the collected micro-clusters,
  treating each as a pseudo-point at its centroid — implemented by
  :func:`weighted_kmeans` (Lloyd's algorithm with weighted k-means++
  seeding).
"""

from repro.clustering.kmeans import KMeansResult, kmeans_pp_init, weighted_kmeans
from repro.clustering.stream import MicroClusters, micro_cluster_bytes

__all__ = [
    "KMeansResult",
    "kmeans_pp_init",
    "weighted_kmeans",
    "MicroClusters",
    "micro_cluster_bytes",
]
