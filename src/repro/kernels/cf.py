"""Batched micro-cluster CF kernel.

A micro-cluster batch is four parallel rows-first arrays —
``counts (m,)``, ``weights (m,)``, ``linear (m, d)``, ``square (m, d)``
— one row per cluster feature.  :func:`absorb_stream` implements the
paper's stream-maintenance rule (absorb within one standard deviation,
else spawn and merge the closest pair) over a block of points; it is the
only way an access reaches a micro-cluster summary.

Everything is deterministic and RNG-free: absorb/spawn/merge decisions
depend only on the inputs, and ties resolve to the lowest index.  Every
squared distance is summed in one order, :func:`two_lane_fold`, on
python floats, so the per-point step makes no numpy call.  The kernel
coerces its arguments, then has one dispatch point: under
``use_backend("python")`` it hands them to its scalar twin in
:mod:`repro.kernels._reference`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro import obs
from repro.kernels import scalar_oracle

__all__ = ["two_lane_fold", "absorb_stream"]


def two_lane_fold(terms):
    """Sum ``terms`` in the one order every squared distance here uses.

    (even-index terms, left to right) + (odd-index terms, left to right):
    ``(t0 + t2) + t1`` at d = 3.  This is the order in which numpy's
    ``einsum("ij,ij->i")`` reduces rows of up to 7 products, so every
    decision recorded while the kernels called ``einsum`` still holds.
    Terms may be python floats, numpy arrays (one column each) or any
    other type with ``+``; ``sum()`` is avoided because from Python 3.12
    it compensates float rounding.

    >>> two_lane_fold([1.0, 2.0, 4.0])
    7.0
    """
    even = terms[0]
    for term in terms[2::2]:
        even = even + term
    if len(terms) == 1:
        return even
    odd = terms[1]
    for term in terms[3::2]:
        odd = odd + term
    return even + odd


class _Source(str):
    """A summand as source text; ``+`` yields the source of the sum."""

    def __add__(self, other):
        return _Source(f"({self} + {other})")


@functools.cache
def _distance_row(d: int):
    """``(rows, point) -> list`` of the squared distances from ``point``
    to each d-dimensional row, all python floats.

    The loop body is :func:`two_lane_fold` written out for ``d`` terms,
    generated once per dimension: each entry equals the fold applied to
    the terms' squares, bit for bit.
    """
    dims = range(d)
    source = ["def distances(rows, point):",
              "    " + "".join(f"x{k}, " for k in dims) + "= point",
              "    out = []",
              "    append = out.append",
              "    for " + "".join(f"c{k}, " for k in dims) + "in rows:"]
    source += [f"        e{k} = c{k} - x{k}" for k in dims]
    total = two_lane_fold([_Source(f"e{k} * e{k}") for k in dims])
    source += [f"        append({total})", "    return out"]
    namespace = {}
    exec("\n".join(source), namespace)
    return namespace["distances"]


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

    An absorbed point costs O(m d) python float arithmetic and no numpy
    call; numpy does only the per-merge closest-pair work.  Each point's
    decision depends only on the rows the previous point left, so the
    result does not depend on how a stream is cut into blocks: one call
    per point and one call for the whole stream return bitwise-equal
    rows and event counts.  Against the scalar oracle, which folds
    squared distances left to right, rows and events agree for d <= 2
    only: at d = 3 a point exactly one deviation from a centroid can
    absorb on one backend and spawn (then merge straight back) on the
    other — same rows, other counts.

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
        return _absorb_block(counts, weights, linear, square, points,
                             point_weights, radius_floor, max_clusters)


def _absorb_block(counts, weights, linear, square, points, point_weights,
                  radius_floor, max_clusters):
    # The stream rule is inherently sequential (each decision sees the
    # clusters as the previous point left them), so the loop over points
    # stays in python, and so does everything an absorbed point touches:
    # CF sums, centroids and radii are python floats and the nearest
    # search is one :func:`_distance_row` call.  IEEE scalar arithmetic
    # in the same operation order is bitwise-identical to the
    # elementwise numpy pipeline and far cheaper than ufunc dispatch on
    # d-vectors.  Ties go to the first minimum (``min`` then ``index``),
    # as ``np.argmin`` does for non-NaN input (``OnlineClusterer``
    # rejects non-finite points).
    #
    # Numpy keeps what only merges read: ``pair`` holds the squared
    # centroid-pair distances above the diagonal (inf elsewhere), so the
    # closest pair is one row-major ``argmin`` — the first pair on ties
    # — and a merge's row shift is two slice copies.  It is maintained
    # lazily: a spawned centroid *is* its
    # point, so its column is the distance row the nearest search just
    # produced; an absorb or merge moves a centroid and only marks it
    # stale; stale rows are recomputed right before the next merge reads
    # the matrix.  A stretch of absorbs costs no pair work, and a
    # centroid that moves several times between merges is recomputed
    # once.
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    cap = max_clusters + 1
    sqrt = math.sqrt
    distances = _distance_row(d)
    cnt = np.asarray(counts, dtype=float).tolist()
    wts = np.asarray(weights, dtype=float).tolist()
    if cnt:
        ls = np.atleast_2d(np.asarray(linear, dtype=float)).tolist()
        ss = np.atleast_2d(np.asarray(square, dtype=float)).tolist()
    else:
        ls, ss = [], []

    def refresh(j):
        # Centroid and absorption radius of row j from its CF sums.
        c = cnt[j]
        centroid = []
        total = 0.0
        for l, s in zip(ls[j], ss[j]):
            mean = l / c
            centroid.append(mean)
            total += s / c - mean * mean
        ctr[j] = centroid
        rad[j] = max(sqrt(max(total, 0.0)), radius_floor)

    n = len(cnt)
    ctr = [None] * n
    rad = [0.0] * n
    for j in range(n):
        refresh(j)
    pair = np.full((cap, cap), np.inf)
    stale = set(range(n))
    spawned = merged = 0

    for p, w in zip(points.tolist(),
                    np.asarray(point_weights, dtype=float).tolist()):
        if n:
            sq = distances(ctr, p)
            best = min(sq)
            nearest = sq.index(best)
            if sqrt(best) <= rad[nearest]:
                cnt[nearest] += 1.0
                wts[nearest] += w
                row_ls = ls[nearest]
                row_ss = ss[nearest]
                for dim, x in enumerate(p):
                    row_ls[dim] += x
                    row_ss[dim] += x * x
                refresh(nearest)
                stale.add(nearest)
                continue
            pair[:n, n] = sq
        cnt.append(1.0)
        wts.append(w)
        ls.append(list(p))
        ss.append([x * x for x in p])
        ctr.append(p)
        rad.append(radius_floor)  # singleton deviation is zero
        n += 1
        spawned += 1
        if n > max_clusters:  # n == cap: the matrix is fully populated
            for j in stale:
                row = distances(ctr, ctr[j])
                pair[:j, j] = row[:j]
                pair[j, j + 1:] = row[j + 1:]
            stale.clear()
            keep, drop = divmod(int(pair.argmin()), cap)
            cnt[keep] += cnt[drop]
            wts[keep] += wts[drop]
            row_ls = ls[keep]
            row_ss = ss[keep]
            for dim, (l, s) in enumerate(zip(ls[drop], ss[drop])):
                row_ls[dim] += l
                row_ss[dim] += s
            for seq in (cnt, wts, ls, ss, ctr, rad):
                del seq[drop]
            n -= 1
            # Deleting ``drop`` shifts later rows up (insertion order is
            # the tie-break order); the vacated last column is rewritten
            # by the next spawn before anything reads it.
            pair[drop:n] = pair[drop + 1:]
            pair[:, drop:n] = pair[:, drop + 1:]
            refresh(keep)
            stale.add(keep)
            merged += 1
    stats = {"spawned": spawned, "absorbed": len(points) - spawned,
             "merged": merged}
    return (np.asarray(cnt, dtype=float), np.asarray(wts, dtype=float),
            np.asarray(ls, dtype=float).reshape(n, d),
            np.asarray(ss, dtype=float).reshape(n, d),
            stats)
