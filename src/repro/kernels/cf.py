"""Batched micro-cluster CF kernels.

A micro-cluster batch is four parallel rows-first arrays —
``counts (m,)``, ``weights (m,)``, ``linear (m, d)``, ``square (m, d)``
— one row per cluster feature.  The kernels below implement the paper's
stream-maintenance rule (absorb within one standard deviation, else
spawn and merge the closest pair) over whole blocks of points, plus the
CF vector algebra (merge, split, deviations) the property suite
certifies.

Everything is deterministic and RNG-free: absorb/spawn/merge decisions
depend only on the inputs, and ties resolve to the lowest index.  These
are the numpy kernels only; each function coerces and validates its
arguments, then has one dispatch point: under ``use_backend("python")``
it hands them to its scalar twin in :mod:`repro.kernels._reference`.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.kernels import scalar_oracle

__all__ = [
    "deviations",
    "merge_rows",
    "split_row",
    "closest_pair",
    "nearest_row",
    "absorb_stream",
]


def deviations(counts: np.ndarray, linear: np.ndarray,
               square: np.ndarray) -> np.ndarray:
    """Per-row RMS deviation ``sqrt(max(sum(E[X^2] - E[X]^2), 0))``.

    The clamp matters: CF subtraction can leave ``square/count`` a few
    ulps below ``mean**2``, and a negative recovered variance would put
    a NaN radius into the absorption rule.
    """
    counts = np.asarray(counts, dtype=float)
    linear = np.atleast_2d(np.asarray(linear, dtype=float))
    square = np.atleast_2d(np.asarray(square, dtype=float))
    if oracle := scalar_oracle():
        return oracle.deviations(counts, linear, square)
    mean = linear / counts[:, None]
    var = square / counts[:, None] - mean ** 2
    return np.sqrt(np.maximum(var.sum(axis=1), 0.0))


def merge_rows(counts: np.ndarray, weights: np.ndarray, linear: np.ndarray,
               square: np.ndarray, keep: int, drop: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fold row ``drop`` into row ``keep`` and delete it (CFs are additive).

    Deletion shifts the following rows up, preserving insertion order —
    the tie-break order of every later nearest-cluster search depends on
    it.
    """
    if keep == drop:
        raise ValueError("cannot merge a row into itself")
    counts = np.asarray(counts, dtype=float).copy()
    weights = np.asarray(weights, dtype=float).copy()
    linear = np.atleast_2d(np.asarray(linear, dtype=float)).copy()
    square = np.atleast_2d(np.asarray(square, dtype=float)).copy()
    if oracle := scalar_oracle():
        return oracle.merge_rows(counts, weights, linear, square, keep, drop)
    counts[keep] += counts[drop]
    weights[keep] += weights[drop]
    linear[keep] += linear[drop]
    square[keep] += square[drop]
    return (np.delete(counts, drop), np.delete(weights, drop),
            np.delete(linear, drop, axis=0), np.delete(square, drop, axis=0))


def split_row(count: float, weight: float, linear: np.ndarray,
              square: np.ndarray) -> tuple[tuple, tuple]:
    """Split one CF row into two halves that sum back to the original.

    The halves sit one recovered standard deviation apart along each
    dimension; counts split as evenly as integer counts allow, weight
    proportionally, and the second half is computed by subtraction.
    ``count`` and ``weight`` are conserved *exactly* (the weight split
    stays within Sterbenz's lemma); ``linear_sum`` round-trips to within
    one ulp and ``square_sum`` to within float error.  Deterministic —
    no RNG.
    """
    count = float(count)
    if count < 2:
        raise ValueError("cannot split a cluster with count < 2")
    linear = np.asarray(linear, dtype=float)
    square = np.asarray(square, dtype=float)
    if oracle := scalar_oracle():
        return oracle.split_row(count, weight, linear, square)
    if float(count).is_integer():
        n1 = float(math.ceil(count / 2))
    else:
        n1 = count / 2.0
    n2 = count - n1
    w1 = weight * (n1 / count)
    w2 = weight - w1
    mean = linear / count
    var = np.maximum(square / count - mean ** 2, 0.0)
    sigma = np.sqrt(var)
    m1 = mean + sigma * (n2 / count)
    m2 = mean - sigma * (n1 / count)
    ls1 = n1 * m1
    ls2 = linear - ls1
    resid = np.maximum(square - n1 * m1 ** 2 - n2 * m2 ** 2, 0.0)
    ss1 = n1 * m1 ** 2 + resid * (n1 / count)
    ss2 = square - ss1
    return (n1, w1, ls1, ss1), (n2, w2, ls2, ss2)


def closest_pair(centroids: np.ndarray) -> tuple[int, int]:
    """Indices ``(keep, drop)`` of the two closest rows, ``keep < drop``.

    Ties resolve to the first pair in row-major order in both backends.
    """
    centroids = np.atleast_2d(np.asarray(centroids, dtype=float))
    if centroids.shape[0] < 2:
        raise ValueError("need at least two rows")
    if oracle := scalar_oracle():
        return oracle.closest_pair(centroids)
    # Direct (m, m, d) broadcast: micro-cluster budgets are small
    # (m <= a few dozen), and the explicit difference keeps the pair
    # distances bitwise-identical to the scalar oracle's
    # sum-of-squared-differences for d <= 2 — the Gram-matrix trick
    # would not.  (From d = 3 on, einsum reduces in another order than
    # the oracle's left-to-right fold: last-ulp differences.)
    diff = centroids[:, None, :] - centroids[None, :, :]
    dist = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(dist, np.inf)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return (int(i), int(j)) if i < j else (int(j), int(i))


def nearest_row(centroids: np.ndarray, point: np.ndarray) -> tuple[int, float]:
    """Index of, and squared distance to, the row nearest ``point``."""
    if oracle := scalar_oracle():
        return oracle.nearest_row(centroids, point)
    diff = centroids - point[None, :]
    sq = np.einsum("ij,ij->i", diff, diff)
    nearest = int(np.argmin(sq))
    return nearest, float(sq[nearest])


def absorb_stream(counts: np.ndarray, weights: np.ndarray,
                  linear: np.ndarray, square: np.ndarray,
                  points: np.ndarray, point_weights: np.ndarray,
                  radius_floor: float, max_clusters: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                             dict[str, int]]:
    """Run the stream-maintenance rule over a whole block of points.

    Starting from the given CF rows, each point in order is absorbed by
    the nearest cluster when it falls within ``max(deviation,
    radius_floor)`` of its centroid; otherwise it spawns a new cluster,
    and when the budget overflows the two closest clusters merge.
    Returns the updated rows plus ``{"spawned", "absorbed", "merged"}``
    event counts for the metrics registry.

    The numpy kernel equals the sequential :func:`nearest_row` /
    :func:`closest_pair` path bit for bit in any dimension.  Against the
    scalar oracle that holds for d <= 2 only: at d = 3 a point exactly
    one deviation from a centroid can absorb on one backend and spawn
    (then merge straight back) on the other — same rows, other counts.

    >>> start = np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2))
    >>> points = np.array([[0.0, 0.0], [0.1, 0.0], [500.0, 0.0]])
    >>> counts, _, linear, _, stats = absorb_stream(
    ...     *start, points, np.ones(3), radius_floor=5.0, max_clusters=4)
    >>> counts.tolist(), linear.tolist(), stats["absorbed"]
    ([2.0, 1.0], [[0.1, 0.0], [500.0, 0.0]], 1)
    """
    with obs.get_registry().phase("kernels.cf.absorb_stream"):
        if oracle := scalar_oracle():
            return oracle.absorb_stream(counts, weights, linear, square,
                                        points, point_weights,
                                        radius_floor, max_clusters)
        return _absorb_stream_numpy(counts, weights, linear, square,
                                    points, point_weights,
                                    radius_floor, max_clusters)


def _absorb_stream_numpy(counts, weights, linear, square, points,
                         point_weights, radius_floor, max_clusters):
    # The stream rule is inherently sequential (each decision sees the
    # clusters as the previous point left them), so the loop over points
    # stays in python and costs O(m) numpy work per point: one subtract
    # and one einsum of the point against the live centroid rows.  CF
    # sums live in python floats — IEEE scalar arithmetic in the same
    # operation order is bitwise-identical to the elementwise numpy
    # pipeline and far cheaper than ufunc dispatch on d-vectors.
    #
    # ``pair`` holds the squared centroid-pair distances above the
    # diagonal (inf elsewhere) and is maintained lazily: a spawned
    # centroid *is* its point, so its column is the distance row the
    # nearest search just produced; an absorb or merge moves a centroid
    # and only marks it stale; stale rows are recomputed right before
    # the next merge reads the matrix.  Only merges read it, so a stretch
    # of absorbs costs no pair work at all and a centroid that moves
    # several times between merges is recomputed once.  Every distance,
    # point-to-centroid or pair, comes from the same subtract +
    # ``einsum("ij,ij->i")``, so they agree bitwise with
    # :func:`nearest_row` and :func:`closest_pair`.
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    cap = max_clusters + 1
    sqrt = math.sqrt
    einsum = np.einsum
    subtract = np.subtract
    cnt = np.asarray(counts, dtype=float).tolist()
    wts = np.asarray(weights, dtype=float).tolist()
    if cnt:
        ls = np.atleast_2d(np.asarray(linear, dtype=float)).tolist()
        ss = np.atleast_2d(np.asarray(square, dtype=float)).tolist()
    else:
        ls, ss = [], []

    def radius_of(j):
        c = cnt[j]
        total = 0.0
        for l, s in zip(ls[j], ss[j]):
            mean = l / c
            total += s / c - mean * mean
        return max(sqrt(max(total, 0.0)), radius_floor)

    n = len(cnt)
    rad = [radius_of(j) for j in range(n)]
    ctr = np.empty((cap, d))
    for j in range(n):
        ctr[j] = [l / cnt[j] for l in ls[j]]
    diff = np.empty((cap, d))
    sq = np.empty(cap)
    pair = np.full((cap, cap), np.inf)
    stale = set(range(n))
    stats = {"spawned": 0, "absorbed": 0, "merged": 0}

    for i, (p, w) in enumerate(zip(points.tolist(),
                                   np.asarray(point_weights,
                                              dtype=float).tolist())):
        if n:
            subtract(ctr[:n], points[i], out=diff[:n])
            einsum("ij,ij->i", diff[:n], diff[:n], out=sq[:n])
            nearest = int(sq[:n].argmin())
            if sqrt(sq[nearest]) <= rad[nearest]:
                cnt[nearest] += 1.0
                wts[nearest] += w
                row_ls = ls[nearest]
                row_ss = ss[nearest]
                for dim, x in enumerate(p):
                    row_ls[dim] += x
                    row_ss[dim] += x * x
                c = cnt[nearest]
                ctr[nearest] = [l / c for l in row_ls]
                stale.add(nearest)
                rad[nearest] = radius_of(nearest)
                stats["absorbed"] += 1
                continue
            pair[:n, n] = sq[:n]
        cnt.append(1.0)
        wts.append(w)
        ls.append(p)
        ss.append([x * x for x in p])
        ctr[n] = points[i]
        rad.append(radius_floor)  # singleton deviation is zero
        n += 1
        stats["spawned"] += 1
        if n > max_clusters:  # n == cap: the matrix is fully populated
            for j in stale:
                subtract(ctr, ctr[j], out=diff)
                einsum("ij,ij->i", diff, diff, out=sq)
                pair[:j, j] = sq[:j]
                pair[j, j + 1:] = sq[j + 1:]
            stale.clear()
            # Row-major argmin over the upper triangle: ties resolve to
            # the first pair, as in :func:`closest_pair`.
            keep, drop = divmod(int(pair.argmin()), cap)
            cnt[keep] += cnt[drop]
            wts[keep] += wts[drop]
            row_ls = ls[keep]
            row_ss = ss[keep]
            for dim, (l, s) in enumerate(zip(ls[drop], ss[drop])):
                row_ls[dim] += l
                row_ss[dim] += s
            for seq in (cnt, wts, ls, ss, rad):
                del seq[drop]
            n -= 1
            # Deleting ``drop`` shifts later rows up (insertion order is
            # the tie-break order); the vacated last column is rewritten
            # by the next spawn before anything reads it.
            ctr[drop:n] = ctr[drop + 1:]
            pair[drop:n] = pair[drop + 1:]
            pair[:, drop:n] = pair[:, drop + 1:]
            c = cnt[keep]
            ctr[keep] = [l / c for l in row_ls]
            stale.add(keep)
            rad[keep] = radius_of(keep)
            stats["merged"] += 1
    return (np.asarray(cnt, dtype=float), np.asarray(wts, dtype=float),
            np.asarray(ls, dtype=float).reshape(n, d),
            np.asarray(ss, dtype=float).reshape(n, d),
            stats)
