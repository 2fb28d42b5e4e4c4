"""Per-replica user coordinate summaries (Section III-B).

Every server holding a data replica keeps a :class:`ReplicaAccessSummary`.
On each client access it folds the client's network coordinates (and the
bytes exchanged) into at most *m* micro-clusters; the summary's
:attr:`~ReplicaAccessSummary.clusters` record then ships to the
coordinator in ``m × wire_size`` bytes — the whole point of the technique
is that this is independent of the number of accesses.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.clustering.stream import MicroClusters
from repro.kernels import cf as _cf

__all__ = ["ReplicaAccessSummary"]


class ReplicaAccessSummary:
    """Online summary of the users that recently accessed one replica.

    ``clusters`` is the current :class:`MicroClusters` record.  Every
    change replaces it rather than writing into it, so the record read
    at any moment is also the copy that ships.

    Parameters
    ----------
    max_micro_clusters:
        The paper's *m* — the micro-cluster budget for this replica.
    radius_floor:
        Minimum absorption radius in coordinate units (milliseconds).
        The paper's rule absorbs a point when it lies within the
        cluster's standard deviation; for singletons that deviation is
        zero, so without a floor every distinct point would spawn (and
        immediately force a merge of) a cluster.  The floor gives young
        clusters a small catchment area; the ablation benchmark
        quantifies its effect.
    """

    def __init__(self, max_micro_clusters: int = 100,
                 radius_floor: float = 5.0) -> None:
        if max_micro_clusters < 1:
            raise ValueError("need at least one micro-cluster")
        if radius_floor < 0:
            raise ValueError("radius floor must be non-negative")
        self.max_micro_clusters = max_micro_clusters
        self.radius_floor = radius_floor
        self.reset()

    # ------------------------------------------------------------------
    # Recording accesses
    # ------------------------------------------------------------------
    def record_access(self, client_coords: np.ndarray,
                      bytes_exchanged: float = 1.0) -> None:
        """Fold one client access into the summary: a one-row
        :meth:`record_batch`, kept as a named entry point for callers
        that report accesses one at a time (and for profilers that time
        it by name).

        ``client_coords`` are the client's network coordinates at access
        time (the planar part; heights carry no clustering information
        and callers should strip them — see
        :meth:`ReplicationController.clustering_coords`).
        """
        self.record_batch(client_coords, np.array([bytes_exchanged],
                                                  dtype=float))

    def record_batch(self, client_coords: np.ndarray,
                     bytes_exchanged: np.ndarray | None = None) -> None:
        """Fold a block of accesses, in row order, into the summary.

        The maintenance rule runs inside
        :func:`repro.kernels.cf.absorb_stream`: absorb a point into the
        nearest cluster when it falls within that cluster's standard
        deviation, otherwise spawn a new cluster and merge the two
        closest.  How a stream is cut into blocks does not change the
        result: one block, or one call per point, leaves bitwise-equal
        clusters and event counts.  ``bytes_exchanged`` is a per-row
        weight vector; ``None`` means one unit per access.
        Spawn/absorb/merge events are counted in the
        ``clustering.micro.*`` counters.

        The whole block is checked before any of it is folded in, and a
        refused block leaves the summary untouched.  ``ValueError`` is
        raised for a block whose width differs from the summary's (set
        by the first block after construction or :meth:`reset`), and for
        a point or weight holding NaN or infinity, or a coordinate
        beyond :data:`repro.kernels.cf.COORD_BOUND` in magnitude (naming
        the first such row): a non-finite value would poison a cluster's
        sums or become a cluster of its own, and either would ship to
        placement; a finite one whose squared distances overflow to
        ``inf`` would leave the closest pair undefined and lose points
        in the merge.
        """
        points = np.atleast_2d(np.asarray(client_coords, dtype=float))
        if points.size == 0:
            return
        if points.ndim != 2:
            raise ValueError("expected an (n, d) block of points, "
                             f"got shape {points.shape}")
        n, d = points.shape
        if bytes_exchanged is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(bytes_exchanged, dtype=float)
            if weights.shape != (n,):
                raise ValueError(f"expected {n} byte counts, "
                                 f"got shape {weights.shape}")
            if np.any(weights < 0):
                raise ValueError("bytes exchanged must be non-negative")
        width = self.clusters.dim
        if width and d != width:
            raise ValueError(f"a block of {d}-dimensional points cannot "
                             f"join {width}-dimensional micro-clusters")
        finite = np.isfinite(points).all(axis=1) & np.isfinite(weights)
        bounded = (np.abs(points) <= _cf.COORD_BOUND).all(axis=1)
        if not (finite & bounded).all():
            row = int((finite & bounded).argmin())
            problem = ("is not finite" if not finite[row] else
                       f"exceeds the coordinate bound {_cf.COORD_BOUND:g}")
            raise ValueError(f"row {row} {problem}: point "
                             f"{points[row].tolist()} with weight "
                             f"{float(weights[row])!r}")

        old = self.clusters
        *columns, stats = _cf.absorb_stream(
            old.counts, old.weights, old.linear, old.square, points, weights,
            self.radius_floor, self.max_micro_clusters)
        self.clusters = MicroClusters(*columns)
        self.accesses += n
        self.bytes_served += float(weights.sum())
        registry = obs.get_registry()
        if registry.enabled:
            for event, total in stats.items():
                if total:
                    registry.counter(f"clustering.micro.{event}").inc(total)

    def __len__(self) -> int:
        return len(self.clusters)

    def reset(self) -> None:
        """Start a fresh summary window (after a placement epoch)."""
        self.clusters = MicroClusters.empty()
        self.accesses = 0
        self.bytes_served = 0.0
