"""Weighted k-means assignment/update and coordinate-distance kernels.

The assignment kernel materialises the full ``(n, k)`` point-by-centroid
squared-distance matrix; an optional *eligibility* mask excludes
centroids (columns) from the assignment without disturbing the matrix
shape — that is how chaos-degraded epochs (partitioned candidates,
unreachable sites) keep using the same code path.

These are the numpy kernels only.  Each coerces and validates its
arguments, then has one dispatch point: under ``use_backend("python")``
it hands them to its scalar twin in :mod:`repro.kernels._reference`
(``pairwise_distances`` builds on ``cross_distances`` and needs none).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import scalar_oracle

__all__ = [
    "sq_distances",
    "assign_labels",
    "assignment_costs",
    "update_centroids",
    "cross_distances",
    "pairwise_distances",
]


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances, point row by centroid row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if oracle := scalar_oracle():
        return oracle.sq_distances(points, centers)
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def assign_labels(sq: np.ndarray,
                  *, eligible: np.ndarray | None = None) -> np.ndarray:
    """Nearest-centroid labels from a squared-distance matrix.

    ``eligible`` is an optional ``(k,)`` boolean mask over centroids;
    ineligible columns can never win the argmin.  Ties resolve to the
    lowest index in both backends (numpy's ``argmin`` rule).
    """
    sq = np.atleast_2d(np.asarray(sq, dtype=float))
    if eligible is not None:
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != (sq.shape[1],):
            raise ValueError(
                f"eligibility mask must be ({sq.shape[1]},), "
                f"got {eligible.shape}")
        if not eligible.any():
            raise ValueError("no centroid is eligible")
    if oracle := scalar_oracle():
        return oracle.assign_labels(sq, eligible=eligible)
    if eligible is not None:
        sq = np.where(eligible[None, :], sq, np.inf)
    return np.argmin(sq, axis=1)


def assignment_costs(sq: np.ndarray, labels: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Per-point weighted squared distance to its assigned centroid.

    Summing this vector gives the inertia; its argmax is the point a
    deterministic empty-cluster reseed should grab.
    """
    sq = np.atleast_2d(np.asarray(sq, dtype=float))
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    if oracle := scalar_oracle():
        return oracle.assignment_costs(sq, labels, weights)
    return weights * sq[np.arange(labels.size), labels]


def update_centroids(points: np.ndarray, labels: np.ndarray,
                     weights: np.ndarray, centers: np.ndarray,
                     costs: np.ndarray) -> np.ndarray:
    """One Lloyd update: weighted means, empty clusters reseeded.

    An empty cluster is reseeded at the point with the largest current
    assignment cost — a deterministic rule driven entirely by the
    inputs, never by hidden RNG state, so scalar-oracle runs are exactly
    as seed-stable as the vectorised path.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=int)
    weights = np.asarray(weights, dtype=float)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    costs = np.asarray(costs, dtype=float)
    if oracle := scalar_oracle():
        return oracle.update_centroids(points, labels, weights, centers, costs)
    k = centers.shape[0]
    new_centers = centers.copy()
    for c in range(k):
        mask = labels == c
        w = weights[mask]
        mass = w.sum()
        if mass > 0:
            # The arithmetic of np.average(points[mask], axis=0,
            # weights=w), bit for bit, without its per-call validation.
            new_centers[c] = np.multiply(points[mask],
                                         w[:, None]).sum(axis=0) / mass
        else:
            new_centers[c] = points[int(np.argmax(costs))]
    return new_centers


def cross_distances(a: np.ndarray, b: np.ndarray,
                    b_heights: np.ndarray | None = None,
                    a_heights: np.ndarray | None = None) -> np.ndarray:
    """``(na, nb)`` Euclidean distances between row sets, plus heights.

    ``a_heights`` / ``b_heights`` are optional per-row height-vector
    components added to every distance involving that row (the
    Vivaldi/RNP access-link delay model).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if oracle := scalar_oracle():
        return oracle.cross_distances(a, b, b_heights, a_heights)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    if a_heights is not None:
        d = d + np.asarray(a_heights, dtype=float)[:, None]
    if b_heights is not None:
        d = d + np.asarray(b_heights, dtype=float)[None, :]
    return d


def pairwise_distances(points: np.ndarray,
                       heights: np.ndarray | None = None) -> np.ndarray:
    """All pairwise distances of one row set; zero diagonal.

    With ``heights`` the result is ``planar + h_i + h_j`` off-diagonal —
    the height-vector distance rule — while the diagonal stays zero.
    """
    d = cross_distances(points, points, b_heights=heights, a_heights=heights)
    np.fill_diagonal(d, 0.0)
    return d
