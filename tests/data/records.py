"""Hand-built :class:`~repro.clustering.MicroClusters` records for tests."""

import numpy as np

from repro.clustering import MicroClusters


def population(point, count=1, weight=1.0):
    """One micro-cluster: ``count`` accesses at ``point``, each of
    ``weight`` bytes, added to the sums one access at a time."""
    point = np.asarray(point, dtype=float)
    linear, square, total = point.copy(), point ** 2, float(weight)
    for _ in range(count - 1):
        linear = linear + point
        square = square + point ** 2
        total += weight
    return MicroClusters([count], [total], [linear], [square])
