"""Streaming micro-clusters (Section III-B of the paper).

A micro-cluster is a *cluster feature* (CF) vector in the CluStream style
(Aggarwal et al., VLDB 2003 — the paper's reference [21]): for the points
it has absorbed it stores only

* ``count`` — how many points (data accesses),
* ``weight`` — total payload weight (bytes exchanged with users),
* ``linear`` — per-dimension sum of coordinates,
* ``square`` — per-dimension sum of squared coordinates.

From these the centroid (``linear / count``) and the RMS deviation of
members around it are recoverable, and two clusters merge by adding their
vectors — exactly the properties the paper exploits.

:class:`MicroClusters` holds a set of CF vectors as those four columns,
one row per micro-cluster, which is the layout
:func:`repro.kernels.cf.absorb_stream` works on.  The record is
immutable, so one object serves as a replica's summary state
(:class:`repro.core.summarizer.ReplicaAccessSummary` keeps at most *m*
rows by the paper's rule), as the payload the replica ships, as the
coordinator's pooled input (:meth:`MicroClusters.concat`) and as the
argument of every placement function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["MicroClusters", "micro_cluster_bytes"]


def micro_cluster_bytes(dim: int) -> int:
    """Serialized size of one micro-cluster: count (8) + weight (8) + two
    float64 vectors of dimension ``dim``.  Used by the Table II bandwidth
    accounting; comfortably below the paper's "less than 1 KB" bound for
    realistic dimensions."""
    return 16 + 2 * 8 * dim


@dataclass(frozen=True, eq=False)
class MicroClusters:
    """``m`` micro-clusters as the columns ``counts (m,)``, ``weights
    (m,)``, ``linear (m, d)`` and ``square (m, d)``.

    The columns are copied on construction and read-only, so a record
    never changes once built.  All statistics are exact for the
    absorbed points.

    Examples
    --------
    >>> import numpy as np
    >>> record = MicroClusters(np.array([2.0]), np.array([2.0]),
    ...                        np.array([[2.0, 0.0]]),
    ...                        np.array([[4.0, 0.0]]))
    >>> len(record), record.dim, record.wire_size_bytes
    (1, 2, 48)
    >>> record.centroids
    array([[1., 0.]])
    >>> record.deviations
    array([1.])
    """

    counts: np.ndarray
    weights: np.ndarray
    linear: np.ndarray
    square: np.ndarray

    def __post_init__(self) -> None:
        for name in ("counts", "weights", "linear", "square"):
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        m = len(self.counts)
        if not (self.counts.shape == self.weights.shape == (m,)
                and self.linear.ndim == 2 and len(self.linear) == m
                and self.square.shape == self.linear.shape):
            raise ValueError(
                "expected columns of shapes (m,), (m,), (m, d), (m, d), "
                f"got {self.counts.shape}, {self.weights.shape}, "
                f"{self.linear.shape}, {self.square.shape}")

    @classmethod
    def empty(cls, dim: int = 0) -> "MicroClusters":
        """No micro-clusters, of width ``dim`` (0: no width yet)."""
        return cls(np.zeros(0), np.zeros(0), np.zeros((0, dim)),
                   np.zeros((0, dim)))

    @classmethod
    def concat(cls, parts: Sequence["MicroClusters"]) -> "MicroClusters":
        """The rows of ``parts``, in order (how the coordinator pools
        the summaries of several replicas).  Parts without a width are
        skipped; parts of different widths are refused."""
        parts = [part for part in parts if part.dim]
        widths = sorted({part.dim for part in parts})
        if len(widths) > 1:
            raise ValueError("cannot pool micro-clusters of different "
                             f"widths {widths}")
        if not parts:
            return cls.empty()
        return cls(*(np.concatenate([getattr(part, name) for part in parts])
                     for name in ("counts", "weights", "linear", "square")))

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the summarized points."""
        return self.linear.shape[1]

    @property
    def centroids(self) -> np.ndarray:
        """``(m, d)`` means of the absorbed points."""
        return self.linear / self.counts[:, None]

    @property
    def deviations(self) -> np.ndarray:
        """``(m,)`` RMS deviations of members around their centroids.

        Computed as ``sqrt(E[X^2] - E[X]^2)`` summed over dimensions —
        the footnote-1 identity the paper uses — clamped at zero where
        float error makes the recovered variance dip negative.  Zero for
        singletons.
        """
        variance = self.square / self.counts[:, None] - self.centroids ** 2
        return np.sqrt(np.maximum(variance.sum(axis=1), 0.0))

    @property
    def wire_size_bytes(self) -> int:
        """Bytes needed to ship the record to the coordinator."""
        return len(self) * micro_cluster_bytes(self.dim)
