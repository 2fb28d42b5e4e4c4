"""Weighted k-means assignment/update and coordinate-distance kernels.

The k-means kernels work on a stack of restarts: the distance kernel
materialises the full ``(R, n, k)`` restart-by-point-by-centroid
squared-distance tensor, the assignment takes each row's argmin, and
the update computes every restart's weighted means at once; a single
restart's ``(k, d)`` centers are the one-restart case.  ``cross_distances``
is also the placement layer's one predicted-cost rule — planar distance
plus the serving row's height — behind
:meth:`repro.placement.PlacementProblem.predicted_costs`,
:func:`repro.core.macro.assign_sites` and the summary-side estimators.

Each kernel coerces and validates its arguments, then computes; its
scalar twin of the same name in :mod:`repro.kernels._reference` is the
tests' oracle (``pairwise_distances`` builds on ``cross_distances`` and
has none of its own).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import fold_norms

__all__ = [
    "sq_distances",
    "assign_labels",
    "assignment_costs",
    "update_centroids",
    "cross_distances",
    "pairwise_distances",
]


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of every point to every center.

    ``centers`` is one restart's ``(k, d)`` rows or a ``(R, k, d)``
    stack of restarts; the result is ``(n, k)`` or ``(R, n, k)``.  The
    squares are folded in :func:`repro.kernels.cf.two_lane_fold`'s
    order, the order of numpy's ``einsum`` over rows of up to 7 terms,
    in place in at most two output-sized buffers up to d = 3.
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    d = points.shape[1]

    def square(j: int, out: np.ndarray | None = None) -> np.ndarray:
        out = np.subtract(points[:, j, None], centers[..., None, :, j],
                          out=out)
        return np.multiply(out, out, out=out)

    even = square(0)
    if d == 1:
        return even
    term = np.empty_like(even)
    for j in range(2, d, 2):
        even += square(j, term)
    odd = square(1, term)
    if d > 3:
        odd = odd.copy()
        for j in range(3, d, 2):
            odd += square(j, term)
    even += odd
    return even


def assign_labels(sq: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels from a (stack of) squared-distance matrices.

    Ties resolve to the lowest index, numpy's ``argmin`` rule, as in the
    scalar twin.
    """
    return np.argmin(np.asarray(sq, dtype=float), axis=-1)


def assignment_costs(sq: np.ndarray, labels: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    """Per-point weighted squared distance to its assigned centroid.

    ``sq`` is ``(n, k)`` or ``(R, n, k)`` and ``labels`` has its shape
    without the last axis.  Summing a row gives that restart's inertia;
    its argmax is the point a deterministic empty-cluster reseed should
    grab.
    """
    sq = np.asarray(sq, dtype=float)
    labels = np.asarray(labels, dtype=int)
    rows = sq.shape[-1] * np.arange(labels.size).reshape(labels.shape)
    return np.asarray(weights, dtype=float) * sq.take(rows + labels)


def update_centroids(points: np.ndarray, labels: np.ndarray,
                     weights: np.ndarray, centers: np.ndarray,
                     costs: np.ndarray) -> np.ndarray:
    """One Lloyd update of every restart: weighted means, empty clusters
    reseeded.

    ``centers`` is ``(k, d)`` or a ``(R, k, d)`` stack; ``labels`` and
    ``costs`` are ``(n,)`` or ``(R, n)``.  Each mean is bit for bit
    ``np.average(points[mask], axis=0, weights=weights[mask])``, as if
    computed restart by restart and cluster by cluster.  An empty
    cluster (no positive mass) is reseeded at its restart's point of
    largest current assignment cost — a deterministic rule driven
    entirely by the inputs, never by hidden RNG state, so scalar-oracle
    runs are exactly as seed-stable as the vectorised path.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    centers = np.asarray(centers, dtype=float)
    k, d = centers.shape[-2:]
    n = points.shape[0]
    labels = np.asarray(labels, dtype=int).reshape(-1, n)
    restarts = labels.shape[0]
    segments = (labels + k * np.arange(restarts)[:, None]).ravel()
    masses = _pairwise_sums(weights, segments, restarts * k)
    products = points * weights[:, None]
    if d == 1:
        sums = _pairwise_sums(products[:, 0], segments, restarts * k)[:, None]
    else:
        # From d = 2 on, (m, d).sum(axis=0) adds rows in order from 0.0,
        # as bincount does.
        sums = np.empty((restarts * k, d))
        for j in range(d):
            sums[:, j] = np.bincount(
                segments, np.repeat(products[None, :, j], restarts, axis=0)
                .ravel(), restarts * k)
    full = masses > 0
    np.divide(sums, masses[:, None], out=sums, where=full[:, None])
    if not full.all():
        empty = np.flatnonzero(~full)
        worst = np.argmax(np.asarray(costs, dtype=float).reshape(-1, n),
                          axis=1)
        sums[empty] = points[worst[empty // k]]
    return sums.reshape(centers.shape)


def _pairwise_sums(values: np.ndarray, segments: np.ndarray,
                   n_segments: int) -> np.ndarray:
    """``np.tile(values, R)[segments == s].sum()`` for every ``s``, bit
    for bit, where ``segments`` labels ``R`` repeats of ``values``.

    A 1-D ``sum`` is numpy's pairwise sum: sequential from 0.0 below 8
    terms, eight interleaved accumulators above.  ``bincount`` adds
    sequentially from 0.0, so it reproduces the sum when no segment has
    8 terms, or when every partial sum is exact (integral values of
    total magnitude at most 2**53, such as access counts).  Otherwise
    each segment is summed on its own, as a slice of the values sorted
    stably by segment.
    """
    tiled = np.repeat(values[None], segments.size // values.size,
                      axis=0).ravel()
    counts = np.bincount(segments, minlength=n_segments)
    if counts.max() < 8 or (np.abs(values).sum() <= 2.0 ** 53
                            and (values == np.rint(values)).all()):
        return np.bincount(segments, tiled, n_segments)
    ordered = tiled[np.argsort(segments, kind="stable")]
    out = np.empty(n_segments)
    start = 0
    for s, end in enumerate(np.cumsum(counts).tolist()):
        out[s] = np.add.reduce(ordered[start:end])
        start = end
    return out


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
    d = fold_norms(a[:, None, :] - b[None, :, :])
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
