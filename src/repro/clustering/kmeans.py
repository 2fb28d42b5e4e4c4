"""Weighted k-means: k-means++ seeding and Lloyd's algorithm, every
restart at once.

Algorithm 1 of the paper merges micro-clusters into macro-clusters with a
*weighted* K-means: each micro-cluster is a pseudo-point located at its
centroid, weighted by how many accesses (or bytes) it absorbed.  With
unit weights it is ordinary k-means, which is what the offline baseline
uses.  At the paper's sizes (a few dozen pseudo-points, k <= 7) the cost
is numpy dispatch, not arithmetic, so the ``n_init`` restarts run as one
``(n_init, k, d)`` stack instead of one after another:

* **Seeding.** All ``n_init * k`` uniforms are drawn up front with one
  ``rng.random((n_init, k))``.  Each seed is the uniform looked up in
  that restart's cumulative weight (or ``weight * D(x)^2``) distribution,
  the arithmetic ``Generator.choice(n, p=p)`` does with one uniform, so
  the seeds and the generator's final state are those of ``n_init``
  sequential seedings.
* **Lloyd.** Every live restart is assigned and updated in one call of
  each kernel; a restart stops once its inertia and center shift settle
  within ``tol`` and the others go on.  The first restart of least final
  inertia wins.

The numeric inner loops — the restart-by-point-by-centroid distance
tensor, the assignment, and the centroid update — live in
:mod:`repro.kernels.wkmeans`, reached through the module attribute so
tests can swap in their scalar twins, which loop over restarts.  Empty
clusters reseed deterministically at the point with the largest
assignment cost — never from hidden RNG state — so a fixed seed gives a
fixed answer on either.  The result is bit for bit that of running the
restarts one by one (``tests/oracles/kmeans.py`` keeps that code; the
squared distances fold in the same order for d <= 7).
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
    """Weighted k-means++ seeding: ``(k, d)`` centers.

    The first center is drawn proportionally to point weight; each later
    center proportionally to ``weight * D(x)^2`` where ``D(x)`` is the
    distance to the closest already-chosen center.  This is the
    one-restart case of :func:`weighted_kmeans`' stacked seeding and
    draws the same ``k`` uniforms from ``rng``.
    """
    points, weights, total = _checked(points, weights)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return _seed(points, weights, total, rng.random((1, k)))[0]


def weighted_kmeans(points: np.ndarray, k: int,
                    weights: np.ndarray | None = None,
                    rng: np.random.Generator | None = None,
                    max_iter: int = 100, tol: float = 1e-6,
                    n_init: int = 4) -> KMeansResult:
    """Cluster weighted points into ``k`` groups.

    Parameters
    ----------
    points:
        ``(n, d)`` finite input points (micro-cluster centroids in the
        paper).
    k:
        Number of clusters.  If ``k >= n`` no clustering runs: every
        point becomes its own centroid, so the result has ``n``
        centroids, not ``k``, and ``rng`` is not drawn from.
    weights:
        Per-point finite non-negative weights with a positive sum;
        ``None`` means unweighted.
    n_init:
        Independent seedings, at least 1; the first lowest-inertia run
        wins.

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
    >>> weighted_kmeans(points[:2], 4).k
    2
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n_init < 1:
        raise ValueError(f"n_init must be at least 1, got {n_init}")
    points, weights, total = _checked(points, weights)
    n = points.shape[0]
    if k >= n:
        return KMeansResult(points.copy(), np.arange(n), 0.0, 0)
    rng = rng or np.random.default_rng(0)

    registry = obs.get_registry()
    with registry.phase("clustering.kmeans"):
        centers = _seed(points, weights, total, rng.random((n_init, k)))
        iterations = _lloyd_stack(points, weights, centers, max_iter, tol)
        sq = _wk.sq_distances(points, centers)
        labels = _wk.assign_labels(sq)
        inertias = _wk.assignment_costs(sq, labels, weights).sum(axis=1)
        # min() keeps the first of equal keys: the old strict-< scan.
        best = min(range(n_init), key=inertias.tolist().__getitem__)
        if not np.isfinite(inertias[best]):
            raise ValueError(_OVERFLOW)
    result = KMeansResult(centers[best].copy(), labels[best].copy(),
                          float(inertias[best]), int(iterations[best]))
    if registry.enabled:
        registry.counter("clustering.kmeans.runs").inc()
        registry.counter("clustering.kmeans.iterations").inc(result.iterations)
    return result


_OVERFLOW = "points too far apart: squared distances overflow"


def _checked(points: np.ndarray, weights: np.ndarray | None
             ) -> tuple[np.ndarray, np.ndarray, float]:
    """Points and weights as float arrays, and the total weight.

    Non-finite input is refused here: every seed is a pre-drawn uniform
    looked up in a weight CDF, and a NaN there would not raise.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {weights.shape}")
    if not (weights >= 0).all():
        raise ValueError("weights must be finite and non-negative")
    total = weights.sum()
    if not total > 0:
        raise ValueError("weights must have a positive sum")
    if total == np.inf:
        raise ValueError("weights must be finite and have a finite sum")
    return points, weights, total


def _seed(points: np.ndarray, weights: np.ndarray, total: float,
          uniforms: np.ndarray) -> np.ndarray:
    """k-means++ seeds of every restart from its row of ``(R, k)`` uniforms.

    ``Generator.choice(n, p=p)`` draws one uniform and returns
    ``searchsorted(cdf, u, side="right")`` with ``cdf = p.cumsum()``
    divided by its last entry; this is that arithmetic for all restarts
    at once, so one ``rng.random((R, k))`` gives the seeds and the final
    generator state of ``R`` sequential seedings.
    """
    restarts, k = uniforms.shape
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    centers = np.empty((restarts, k, points.shape[1]))
    centers[:, 0] = points[np.searchsorted(cdf, uniforms[:, 0], side="right")]
    closest = _wk.sq_distances(points, centers[:, :1])[..., 0]
    if not np.isfinite(closest).all():
        raise ValueError(_OVERFLOW)
    for i in range(1, k):
        scores = weights * closest
        totals = scores.sum(axis=1)
        if not np.isfinite(totals).all():
            raise ValueError(_OVERFLOW)
        # A restart whose remaining mass sits on chosen points draws by
        # weight alone, like its first center.
        live = totals > 0
        picks = np.searchsorted(cdf, uniforms[:, i], side="right")
        if live.any():
            scores, totals = scores[live], totals[live][:, None]
            cdfs = np.cumsum(scores / totals, axis=1)
            cdfs /= cdfs[:, -1:]
            picks[live] = (cdfs <= uniforms[live, i, None]).sum(axis=1)
        centers[:, i] = points[picks]
        latest = _wk.sq_distances(points, centers[:, i:i + 1])[..., 0]
        np.minimum(closest, latest, out=closest)
    return centers


def _lloyd_stack(points: np.ndarray, weights: np.ndarray,
                 centers: np.ndarray, max_iter: int, tol: float
                 ) -> np.ndarray:
    """Lloyd's iterations on a ``(R, k, d)`` stack of restarts, in place.

    A restart stops once both its inertia and its largest center shift
    settle within ``tol``; the rest go on.  Returns each restart's
    iteration count.
    """
    restarts = centers.shape[0]
    iterations = np.zeros(restarts, dtype=int)
    inertia = np.full(restarts, np.inf)
    live = np.arange(restarts)
    for iteration in range(1, max_iter + 1):
        at = centers[live]
        new, new_inertia = _lloyd_step(points, weights, at)
        step = new - at
        shift = np.sqrt(np.add.reduce(step * step, axis=2)).max(axis=1)
        previous = inertia[live]
        settled = ((np.abs(previous - new_inertia)
                    <= tol * np.maximum(previous, 1.0)) & (shift <= tol))
        centers[live] = new
        inertia[live] = new_inertia
        iterations[live] = iteration
        live = live[~settled]
        if live.size == 0:
            break
    return iterations


def _lloyd_step(points: np.ndarray, weights: np.ndarray,
                centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every restart's updated centers and its inertia before the update.

    A function of its own so that the ``(R, n, k)`` distances and the
    ``(R, n)`` labels and costs are freed before the next step computes
    its own: Table II clusters 10 000 points.
    """
    sq = _wk.sq_distances(points, centers)
    labels = _wk.assign_labels(sq)
    costs = _wk.assignment_costs(sq, labels, weights)
    del sq
    return (_wk.update_centroids(points, labels, weights, centers, costs),
            costs.sum(axis=1))
