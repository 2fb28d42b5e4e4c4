"""Per-replica user coordinate summaries (Section III-B).

Every server holding a data replica keeps a :class:`ReplicaAccessSummary`.
On each client access it folds the client's network coordinates (and the
bytes exchanged) into at most *m* micro-clusters; the summary can then be
snapshotted and shipped to the coordinator in ``m × wire_size`` bytes —
the whole point of the technique is that this is independent of the
number of accesses.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.stream import ClusterFeature, OnlineClusterer

__all__ = ["ReplicaAccessSummary"]


class ReplicaAccessSummary:
    """Online summary of the users that recently accessed one replica.

    Parameters
    ----------
    max_micro_clusters:
        The paper's *m* — the micro-cluster budget for this replica.
    radius_floor:
        Minimum absorption radius in coordinate units (milliseconds);
        see :class:`~repro.clustering.stream.OnlineClusterer`.
    decay:
        Optional exponential decay in ``(0, 1]`` applied to all cluster
        statistics at every :meth:`age` call.  ``1.0`` (default) keeps
        the paper's plain accumulate-then-reset behaviour; smaller values
        let a long-lived summary track shifting populations, which the
        controller uses between placement epochs.
    """

    def __init__(self, max_micro_clusters: int = 100,
                 radius_floor: float = 5.0, decay: float = 1.0) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        self._clusterer = OnlineClusterer(max_micro_clusters, radius_floor)
        self.decay = decay
        self.accesses = 0
        self.bytes_served = 0.0

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
        :func:`repro.kernels.cf.absorb_stream`; how a stream is cut into
        blocks does not change the result.  ``bytes_exchanged`` is a
        per-row weight vector; ``None`` means one unit per access.
        """
        points = np.atleast_2d(np.asarray(client_coords, dtype=float))
        n = points.shape[0]
        if n == 0:
            return
        if bytes_exchanged is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(bytes_exchanged, dtype=float)
            if weights.shape != (n,):
                raise ValueError(f"expected {n} byte counts, "
                                 f"got shape {weights.shape}")
            if np.any(weights < 0):
                raise ValueError("bytes exchanged must be non-negative")
        self._clusterer.extend(points, weights)
        self.accesses += n
        self.bytes_served += float(weights.sum())

    def age(self) -> None:
        """Start a new window, keeping decayed history.

        The per-window counters ``accesses`` and ``bytes_served`` restart
        at zero, as after :meth:`reset`; the micro-clusters instead take
        one step of exponential decay (none with ``decay == 1``).  Counts
        are scaled rather than truncated so centroids and deviations are
        unchanged; clusters whose decayed count drops below a small
        threshold are dropped.
        """
        self.accesses = 0
        self.bytes_served = 0.0
        if self.decay == 1.0:
            return
        survivors = []
        for cluster in self._clusterer.clusters:
            cluster.count = cluster.count * self.decay
            cluster.weight *= self.decay
            cluster.linear_sum *= self.decay
            cluster.square_sum *= self.decay
            if cluster.count >= 0.05:
                survivors.append(cluster)
        self._clusterer.replace_clusters(survivors)

    # ------------------------------------------------------------------
    # Introspection / shipping
    # ------------------------------------------------------------------
    @property
    def micro_clusters(self) -> list[ClusterFeature]:
        """Live view of the current micro-clusters."""
        return self._clusterer.clusters

    def __len__(self) -> int:
        return len(self._clusterer)

    @property
    def max_micro_clusters(self) -> int:
        """The budget *m*."""
        return self._clusterer.max_clusters

    def snapshot(self) -> list[ClusterFeature]:
        """Deep copies of the micro-clusters, ready to ship."""
        return self._clusterer.snapshot()

    def wire_size_bytes(self) -> int:
        """Bytes needed to ship the snapshot to the coordinator."""
        return sum(c.wire_size_bytes for c in self._clusterer.clusters)

    def reset(self) -> None:
        """Start a fresh summary window (after a placement epoch)."""
        self._clusterer.reset()
        self.accesses = 0
        self.bytes_served = 0.0
