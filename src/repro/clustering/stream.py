"""Streaming micro-clusters (Section III-B of the paper).

A micro-cluster is a *cluster feature* (CF) vector in the CluStream style
(Aggarwal et al., VLDB 2003 — the paper's reference [21]): for the points
it has absorbed it stores only

* ``count`` — how many points (data accesses),
* ``weight`` — total payload weight (bytes exchanged with users),
* ``linear_sum`` — per-dimension sum of coordinates,
* ``square_sum`` — per-dimension sum of squared coordinates.

From these the centroid (``linear_sum / count``) and the RMS deviation of
members around it are recoverable, and two clusters merge by adding their
vectors — exactly the properties the paper exploits.

:class:`OnlineClusterer` maintains at most ``max_clusters`` CF vectors
under the paper's rule: absorb a point into the nearest cluster when it
falls within that cluster's standard deviation, otherwise spawn a new
cluster and merge the two closest.  The numeric work routes through
:mod:`repro.kernels.cf`, so the same maintenance rule runs on either the
vectorised ``numpy`` backend or, under
:func:`repro.kernels.use_backend`, the scalar ``python`` reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.kernels import cf as _cf

__all__ = ["ClusterFeature", "OnlineClusterer"]


def _as_count(value: float) -> int | float:
    """Counts stay ints while they are whole (decay makes them float)."""
    return int(value) if float(value).is_integer() else float(value)


@dataclass
class ClusterFeature:
    """Additive summary of a set of points (a micro-cluster).

    Build one with :meth:`from_point`; grow it with :meth:`absorb` and
    :meth:`merge`; divide it with :meth:`split`.  All statistics are
    exact for the absorbed points.

    Examples
    --------
    >>> import numpy as np
    >>> cf = ClusterFeature.from_point(np.array([0.0, 0.0]))
    >>> cf.absorb(np.array([2.0, 0.0]))
    >>> cf.count
    2
    >>> cf.centroid
    array([1., 0.])
    >>> round(cf.deviation, 3)
    1.0
    """

    count: int
    weight: float
    linear_sum: np.ndarray
    square_sum: np.ndarray

    @staticmethod
    def from_point(point: np.ndarray, weight: float = 1.0) -> "ClusterFeature":
        """A singleton cluster containing only ``point``."""
        point = np.asarray(point, dtype=float)
        if point.ndim != 1:
            raise ValueError("points must be 1-D coordinate vectors")
        if weight < 0:
            raise ValueError("weight must be non-negative")
        return ClusterFeature(1, float(weight), point.copy(), point ** 2)

    @property
    def dim(self) -> int:
        """Dimensionality of the summarized points."""
        return self.linear_sum.size

    @property
    def centroid(self) -> np.ndarray:
        """Mean of the absorbed points."""
        return self.linear_sum / self.count

    @property
    def deviation(self) -> float:
        """RMS deviation of members around the centroid.

        Computed as ``sqrt(E[X^2] - E[X]^2)`` summed over dimensions —
        the footnote-1 identity the paper uses — clamped at zero where
        float error makes the recovered variance dip negative.  Zero for
        singletons.
        """
        mean = self.linear_sum / self.count
        var = self.square_sum / self.count - mean ** 2
        return float(np.sqrt(max(float(np.sum(var)), 0.0)))

    def absorb(self, point: np.ndarray, weight: float = 1.0) -> None:
        """Fold one more point into the cluster."""
        point = np.asarray(point, dtype=float)
        if point.shape != self.linear_sum.shape:
            raise ValueError("dimension mismatch")
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self.count += 1
        self.weight += float(weight)
        self.linear_sum += point
        self.square_sum += point ** 2

    def merge(self, other: "ClusterFeature") -> None:
        """Fold another cluster into this one (CF vectors are additive)."""
        if other.linear_sum.shape != self.linear_sum.shape:
            raise ValueError("dimension mismatch")
        self.count += other.count
        self.weight += other.weight
        self.linear_sum += other.linear_sum
        self.square_sum += other.square_sum

    def split(self) -> tuple["ClusterFeature", "ClusterFeature"]:
        """Divide into two halves that merge back to this cluster.

        The halves sit one recovered standard deviation apart; ``count``
        and ``weight`` are conserved exactly, ``linear_sum`` to within
        one ulp (see :func:`repro.kernels.cf.split_row`).  Deterministic;
        requires ``count >= 2``.
        """
        (c1, w1, ls1, ss1), (c2, w2, ls2, ss2) = _cf.split_row(
            self.count, self.weight, self.linear_sum, self.square_sum)
        return (ClusterFeature(_as_count(c1), w1, ls1, ss1),
                ClusterFeature(_as_count(c2), w2, ls2, ss2))

    def copy(self) -> "ClusterFeature":
        """Deep copy (the arrays are duplicated)."""
        return ClusterFeature(self.count, self.weight,
                              self.linear_sum.copy(), self.square_sum.copy())

    def distance_to(self, point: np.ndarray) -> float:
        """Euclidean distance from the centroid to ``point``."""
        return float(np.linalg.norm(self.centroid - np.asarray(point, float)))

    #: Serialized size in bytes: count (8) + weight (8) + two float64
    #: vectors.  Used by the Table II bandwidth accounting; comfortably
    #: below the paper's "less than 1 KB" bound for realistic dimensions.
    @property
    def wire_size_bytes(self) -> int:
        return 16 + 2 * 8 * self.dim


class OnlineClusterer:
    """Maintains at most ``max_clusters`` micro-clusters over a stream.

    Parameters
    ----------
    max_clusters:
        The paper's *m*: the per-replica budget of micro-clusters.
    radius_floor:
        Minimum absorption radius.  The paper's rule absorbs a point when
        it lies within the cluster's standard deviation; for singletons
        that deviation is zero, so without a floor every distinct point
        would spawn (and immediately force a merge of) a cluster.  The
        floor gives young clusters a small catchment area; the ablation
        benchmark quantifies its effect.
    """

    def __init__(self, max_clusters: int, radius_floor: float = 5.0) -> None:
        if max_clusters < 1:
            raise ValueError("need at least one micro-cluster")
        if radius_floor < 0:
            raise ValueError("radius floor must be non-negative")
        self.max_clusters = max_clusters
        self.radius_floor = radius_floor
        self.clusters: list[ClusterFeature] = []
        self.points_seen = 0
        # Row-per-cluster centroid cache so the per-point nearest-cluster
        # search is one vectorised operation instead of a Python loop.
        self._centroid_cache: np.ndarray | None = None

    def _rebuild_cache(self) -> None:
        if self.clusters:
            self._centroid_cache = np.stack([c.centroid for c in self.clusters])
        else:
            self._centroid_cache = None

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[ClusterFeature]:
        return iter(self.clusters)

    @property
    def total_count(self) -> int:
        """Total points absorbed across all clusters."""
        return sum(c.count for c in self.clusters)

    @property
    def total_weight(self) -> float:
        """Total payload weight absorbed across all clusters."""
        return sum(c.weight for c in self.clusters)

    def add(self, point: np.ndarray, weight: float = 1.0) -> None:
        """Process one stream point per the paper's maintenance rule.

        A point or weight holding NaN or infinity raises ``ValueError``:
        it would poison a cluster's sums or become a cluster of its own,
        and either would ship to placement.
        """
        point = np.asarray(point, dtype=float)
        if not (np.isfinite(point).all() and math.isfinite(weight)):
            raise ValueError(f"point {point.tolist()} with weight "
                             f"{weight!r} is not finite")
        self.points_seen += 1
        registry = obs.get_registry()
        if not self.clusters:
            self.clusters.append(ClusterFeature.from_point(point, weight))
            self._rebuild_cache()
            if registry.enabled:
                registry.counter("clustering.micro.spawned").inc()
                obs.get_tracer().record(obs.MICRO_SPAWN, clusters=1)
            return

        nearest, sq = _cf.nearest_row(self._centroid_cache, point)
        cluster = self.clusters[nearest]
        distance = float(np.sqrt(sq))
        radius = max(cluster.deviation, self.radius_floor)
        if distance <= radius:
            cluster.absorb(point, weight)
            self._centroid_cache[nearest] = cluster.centroid
            if registry.enabled:
                registry.counter("clustering.micro.absorbed").inc()
                obs.get_tracer().record(obs.MICRO_ABSORB, cluster=nearest,
                                        distance=distance)
            return

        self.clusters.append(ClusterFeature.from_point(point, weight))
        self._centroid_cache = np.vstack([self._centroid_cache, point])
        if registry.enabled:
            registry.counter("clustering.micro.spawned").inc()
            obs.get_tracer().record(obs.MICRO_SPAWN,
                                    clusters=len(self.clusters))
        if len(self.clusters) > self.max_clusters:
            self._merge_closest_pair()

    def _merge_closest_pair(self) -> None:
        """Merge the two clusters with the closest centroids."""
        centroids = self._centroid_cache
        assert centroids is not None
        keep, drop = _cf.closest_pair(centroids)
        self.clusters[keep].merge(self.clusters[drop])
        del self.clusters[drop]
        self._centroid_cache = np.delete(centroids, drop, axis=0)
        self._centroid_cache[keep] = self.clusters[keep].centroid
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("clustering.micro.merged").inc()
            obs.get_tracer().record(obs.MICRO_MERGE, kept=keep, dropped=drop,
                                    clusters=len(self.clusters))

    def snapshot(self) -> list[ClusterFeature]:
        """Deep copies of the current micro-clusters (for shipping)."""
        return [c.copy() for c in self.clusters]

    def replace_clusters(self, clusters: list[ClusterFeature]) -> None:
        """Swap in an externally modified cluster list (e.g. after decay)."""
        if len(clusters) > self.max_clusters:
            raise ValueError("cluster list exceeds the budget")
        self.clusters = list(clusters)
        self._rebuild_cache()

    def reset(self) -> None:
        """Forget all state (used when a summary window rolls over)."""
        self.clusters.clear()
        self.points_seen = 0
        self._centroid_cache = None

    def extend(self, points: np.ndarray | Iterable[np.ndarray],
               weights: np.ndarray | Iterable[float] | None = None) -> None:
        """Feed many points through the batched absorption kernel.

        Equivalent to calling :meth:`add` once per point, but the whole
        block runs inside :func:`repro.kernels.cf.absorb_stream`.  An
        ``(n, d)`` array and an ``(n,)`` weight vector reach the kernel
        as they are; any other iterable of points is stacked first.
        Spawn/absorb/merge events are counted in aggregate (individual
        tracer spans are not emitted on this path).  As in :meth:`add`, a
        non-finite point or weight raises ``ValueError`` (naming the
        first such row) before any of the block is folded in.
        """
        if not isinstance(points, np.ndarray):
            points = list(points)
        point_array = np.asarray(points, dtype=float)
        if point_array.size == 0:
            return
        if point_array.ndim != 2:
            raise ValueError("expected an (n, d) block of points, "
                             f"got shape {point_array.shape}")
        n = point_array.shape[0]
        if weights is None:
            point_weights = np.ones(n)
        else:
            if not isinstance(weights, np.ndarray):
                weights = list(weights)
            point_weights = np.asarray(weights, dtype=float)
            if point_weights.shape != (n,):
                raise ValueError(
                    f"expected {n} weights, "
                    f"got shape {point_weights.shape}")
        if np.any(point_weights < 0):
            raise ValueError("weight must be non-negative")
        finite = np.isfinite(point_array).all(axis=1) & np.isfinite(
            point_weights)
        if not finite.all():
            row = int(finite.argmin())
            raise ValueError(f"row {row} is not finite: point "
                             f"{point_array[row].tolist()} with weight "
                             f"{float(point_weights[row])!r}")

        m = len(self.clusters)
        d = point_array.shape[1]
        counts = np.array([c.count for c in self.clusters], dtype=float)
        cl_weights = np.array([c.weight for c in self.clusters], dtype=float)
        linear = (np.stack([c.linear_sum for c in self.clusters])
                  if m else np.zeros((0, d)))
        square = (np.stack([c.square_sum for c in self.clusters])
                  if m else np.zeros((0, d)))

        counts, cl_weights, linear, square, stats = _cf.absorb_stream(
            counts, cl_weights, linear, square, point_array, point_weights,
            self.radius_floor, self.max_clusters)

        self.clusters = [
            ClusterFeature(_as_count(c), float(w), ls, ss)
            for c, w, ls, ss in zip(counts.tolist(), cl_weights.tolist(),
                                    linear, square)
        ]
        self._rebuild_cache()
        self.points_seen += n
        registry = obs.get_registry()
        if registry.enabled:
            for event, total in stats.items():
                if total:
                    registry.counter(f"clustering.micro.{event}").inc(total)
