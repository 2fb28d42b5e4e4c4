"""Weighted k-means (Lloyd's algorithm with k-means++ seeding).

Algorithm 1 of the paper merges micro-clusters into macro-clusters with a
*weighted* K-means: each micro-cluster is a pseudo-point located at its
centroid, weighted by how many accesses (or bytes) it absorbed.  The
implementation below is a standard Lloyd iteration over weighted points;
with unit weights it degenerates to ordinary k-means, which is what the
offline baseline uses.

The numeric inner loops — the full point-by-centroid distance matrix,
the assignment, and the centroid update — live in
:mod:`repro.kernels.wkmeans` and run on either the vectorised ``numpy``
backend or, under :func:`repro.kernels.use_backend`, the scalar
``python`` reference.  Seeding, probability draws and convergence
control stay on the shared ``numpy.random.Generator`` so both backends
consume the same random stream; empty clusters reseed deterministically
at the point with the largest assignment cost — never from hidden global
RNG state — so a fixed seed gives a fixed answer on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.kernels import wkmeans as _wk

__all__ = ["KMeansResult", "kmeans_pp_init", "weighted_kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        ``(k, d)`` cluster centers.
    labels:
        ``(n,)`` index of the centroid each input point belongs to.
    inertia:
        Weighted sum of squared distances to assigned centroids.
    iterations:
        Lloyd iterations executed (0 when k >= n and no iteration ran).
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centroids.shape[0]

    def cluster_weights(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Total weight assigned to each centroid."""
        n = self.labels.size
        weights = np.ones(n) if weights is None else np.asarray(weights, float)
        return np.bincount(self.labels, weights=weights, minlength=self.k)


def kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator,
                   weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted k-means++ seeding.

    The first center is drawn proportionally to point weight; each later
    center proportionally to ``weight * D(x)^2`` where ``D(x)`` is the
    distance to the closest already-chosen center.  The random draws
    always come from ``rng`` — the backend only changes how ``D(x)`` is
    computed — so both backends consume the identical random stream.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n,) or np.any(weights < 0) or weights.sum() == 0:
        raise ValueError("weights must be non-negative with positive sum")

    centers = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centers[0] = points[first]

    closest_sq = _wk.sq_distances(points, centers[:1])[:, 0]
    for i in range(1, k):
        scores = weights * closest_sq
        total = scores.sum()
        if total <= 0:
            # All remaining mass sits on already-chosen points; any
            # weighted point works.
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.choice(n, p=scores / total)
        centers[i] = points[idx]
        closest_sq = np.minimum(
            closest_sq, _wk.sq_distances(points, centers[i:i + 1])[:, 0])
    return centers


def weighted_kmeans(points: np.ndarray, k: int,
                    weights: np.ndarray | None = None,
                    rng: np.random.Generator | None = None,
                    max_iter: int = 100, tol: float = 1e-6,
                    n_init: int = 4) -> KMeansResult:
    """Cluster weighted points into ``k`` groups.

    Parameters
    ----------
    points:
        ``(n, d)`` input points (micro-cluster centroids in the paper).
    k:
        Number of clusters.  If ``k >= n`` every point becomes its own
        centroid (padded by repeating points), which is the natural
        degenerate answer for the placement use case.
    weights:
        Per-point non-negative weights; ``None`` means unweighted.
    n_init:
        Independent seedings; the lowest-inertia run wins.

    Returns
    -------
    :class:`KMeansResult`

    Examples
    --------
    >>> import numpy as np
    >>> points = np.array([[0.0, 0.0], [0.1, 0.0], [9.9, 0.0], [10.0, 0.0]])
    >>> result = weighted_kmeans(points, 2, rng=np.random.default_rng(0))
    >>> sorted(float(round(c[0], 2)) for c in result.centroids)
    [0.05, 9.95]
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    rng = rng or np.random.default_rng(0)
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {weights.shape}")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if weights.sum() == 0:
        raise ValueError("total weight must be positive")

    if k >= n:
        centroids = points.copy()
        labels = np.arange(n)
        return KMeansResult(centroids, labels, 0.0, 0)

    registry = obs.get_registry()
    best: KMeansResult | None = None
    with registry.phase("clustering.kmeans"):
        for _ in range(max(1, n_init)):
            result = _lloyd(points, k, weights, rng, max_iter, tol)
            if best is None or result.inertia < best.inertia:
                best = result
    assert best is not None
    if registry.enabled:
        registry.counter("clustering.kmeans.runs").inc()
        registry.counter("clustering.kmeans.iterations").inc(best.iterations)
    return best


def _lloyd(points: np.ndarray, k: int, weights: np.ndarray,
           rng: np.random.Generator, max_iter: int,
           tol: float) -> KMeansResult:
    centers = kmeans_pp_init(points, k, rng, weights)
    labels = np.zeros(points.shape[0], dtype=int)
    inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        sq = _wk.sq_distances(points, centers)
        labels = _wk.assign_labels(sq)
        costs = _wk.assignment_costs(sq, labels, weights)
        new_inertia = float(np.sum(costs))

        new_centers = _wk.update_centroids(points, labels, weights, centers,
                                           costs)

        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if abs(inertia - new_inertia) <= tol * max(inertia, 1.0) and shift <= tol:
            inertia = new_inertia
            break
        inertia = new_inertia

    sq = _wk.sq_distances(points, centers)
    labels = _wk.assign_labels(sq)
    inertia = float(np.sum(_wk.assignment_costs(sq, labels, weights)))
    return KMeansResult(centers, labels, inertia, iteration)
