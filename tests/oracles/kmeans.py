"""The per-restart weighted k-means: the oracle of the stacked one.

A frozen copy of :func:`repro.clustering.kmeans.weighted_kmeans` as it
ran before its restarts became one ``(n_init, k, d)`` stack: k-means++
seeding through ``Generator.choice`` one center at a time, then Lloyd's
loop per restart, with the numpy kernels of that time (``einsum``
distances, masked per-cluster ``np.average`` arithmetic) written in.
Property tests run both on the same inputs and generator state and
compare centroids, labels, inertia, iterations and the generator's
final state bitwise.  Input validation is not part of the oracle: it
is only called with inputs the stacked code accepts.
"""

from __future__ import annotations

import numpy as np


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def update_centroids(points, labels, weights, centers, costs):
    new_centers = centers.copy()
    for c in range(centers.shape[0]):
        mask = labels == c
        w = weights[mask]
        mass = w.sum()
        if mass > 0:
            new_centers[c] = np.multiply(points[mask],
                                         w[:, None]).sum(axis=0) / mass
        else:
            new_centers[c] = points[int(np.argmax(costs))]
    return new_centers


def kmeans_pp_init(points, k, rng, weights):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    probs = weights / weights.sum()
    centers[0] = points[rng.choice(n, p=probs)]
    closest_sq = sq_distances(points, centers[:1])[:, 0]
    for i in range(1, k):
        scores = weights * closest_sq
        total = scores.sum()
        if total <= 0:
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.choice(n, p=scores / total)
        centers[i] = points[idx]
        closest_sq = np.minimum(
            closest_sq, sq_distances(points, centers[i:i + 1])[:, 0])
    return centers


def _assign(points, centers, weights):
    sq = sq_distances(points, centers)
    labels = np.argmin(sq, axis=1)
    return labels, weights * sq[np.arange(labels.size), labels]


def lloyd(points, k, weights, rng, max_iter, tol):
    """One restart: ``(centroids, labels, inertia, iterations)``."""
    centers = kmeans_pp_init(points, k, rng, weights)
    inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        labels, costs = _assign(points, centers, weights)
        new_inertia = float(np.sum(costs))
        new_centers = update_centroids(points, labels, weights, centers,
                                       costs)
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if abs(inertia - new_inertia) <= tol * max(inertia, 1.0) and shift <= tol:
            break
        inertia = new_inertia
    labels, costs = _assign(points, centers, weights)
    return centers, labels, float(np.sum(costs)), iteration


def weighted_kmeans(points, k, weights=None, rng=None, max_iter=100,
                    tol=1e-6, n_init=4):
    """``(centroids, labels, inertia, iterations)`` of the best restart."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    rng = rng or np.random.default_rng(0)
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if k >= n:
        return points.copy(), np.arange(n), 0.0, 0
    best = None
    for _ in range(n_init):
        result = lloyd(points, k, weights, rng, max_iter, tol)
        if best is None or result[2] < best[2]:
            best = result
    return best
