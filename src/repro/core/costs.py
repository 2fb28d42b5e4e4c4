"""Cost accounting behind Table II (Section III-D).

The paper compares the online summary scheme against offline clustering
on two axes:

==================  =================  ===================
overhead            online             offline
==================  =================  ===================
bandwidth           O(k·m)             O(n)
computation         O((km)^k log(km))  O(n^k log n)
==================  =================  ===================

where *k* is the degree of replication, *m* the micro-cluster budget per
replica and *n* the number of client accesses recorded.  This module
provides both the **analytic** formulas (for the table itself) and a
:class:`CostTally` used by the controller and benchmarks to report the
**measured** bytes and wall-clock time of each approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.clustering.stream import micro_cluster_bytes

__all__ = [
    "online_bandwidth_bytes",
    "offline_bandwidth_bytes",
    "online_compute_ops",
    "offline_compute_ops",
    "CostTally",
]

def online_bandwidth_bytes(k: int, m: int, dim: int = 3) -> int:
    """Bytes shipped per placement epoch by the online scheme: O(k·m).

    Each of the ``k`` replica holders ships at most ``m`` micro-clusters.
    """
    if k < 1 or m < 1 or dim < 1:
        raise ValueError("k, m and dim must be positive")
    return k * m * micro_cluster_bytes(dim)


def offline_bandwidth_bytes(n_accesses: int, dim: int = 3) -> int:
    """Bytes shipped per epoch by offline clustering: O(n).

    The coordinates of every recorded access must reach the central
    server (one float64 vector each).
    """
    if n_accesses < 0 or dim < 1:
        raise ValueError("n_accesses must be non-negative, dim positive")
    return n_accesses * 8 * dim


def online_compute_ops(k: int, m: int) -> float:
    """Clustering work of the online scheme: O((km)^k log(km)).

    This is the paper's cited complexity for k-means over the ``k·m``
    pseudo-points (via its reference [23]).
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be positive")
    km = k * m
    return float(km ** k * math.log(max(km, 2)))


def offline_compute_ops(n_accesses: int, k: int) -> float:
    """Clustering work of the offline scheme: O(n^k log n)."""
    if n_accesses < 1 or k < 1:
        raise ValueError("n_accesses and k must be positive")
    return float(n_accesses ** k * math.log(max(n_accesses, 2)))


@dataclass
class CostTally:
    """Measured costs accumulated while a strategy runs.

    ``summary_bytes`` counts placement-control traffic (micro-cluster or
    raw-coordinate shipping); ``migrations`` and ``migration_dollars``
    the executed data movements.  Wall-clock time inside clustering calls
    is the ``controller.clustering`` phase timer of :mod:`repro.obs`.
    """

    summary_bytes: int = 0
    migrations: int = 0
    migration_dollars: float = 0.0
    epochs: int = 0
    notes: list[str] = field(default_factory=list)

    def merge(self, other: "CostTally") -> "CostTally":
        """Combine two tallies (e.g. across simulation runs)."""
        return CostTally(
            summary_bytes=self.summary_bytes + other.summary_bytes,
            migrations=self.migrations + other.migrations,
            migration_dollars=self.migration_dollars + other.migration_dollars,
            epochs=self.epochs + other.epochs,
            notes=self.notes + other.notes,
        )
