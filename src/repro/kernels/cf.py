"""Batched micro-cluster CF kernel.

A micro-cluster batch is four parallel rows-first arrays —
``counts (m,)``, ``weights (m,)``, ``linear (m, d)``, ``square (m, d)``
— one row per cluster feature.  :func:`absorb_stream` implements the
paper's stream-maintenance rule (absorb within one standard deviation,
else spawn and merge the closest pair) over a block of points; it is the
only way an access reaches a micro-cluster summary.

Everything is deterministic and RNG-free: absorb/spawn/merge decisions
depend only on the inputs, and ties resolve to the lowest index.  Every
squared distance is summed in one order, :func:`two_lane_fold`.  The
kernel runs in one of two regimes, chosen by the budget against
:data:`CROSSOVER`: below it everything is python floats and lists, and
a step makes no numpy call; at or above it (Table II's m = 100) the
centroids are numpy columns.  Both return the same bits.  The scalar
twin in :mod:`repro.kernels._reference` is the tests' oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro import obs

__all__ = ["COORD_BOUND", "CROSSOVER", "two_lane_fold", "absorb_stream"]

#: Largest coordinate magnitude a point may have.  A centroid is a mean
#: of points, so every squared distance the kernel forms is at most
#: ``d * (2 * COORD_BOUND)**2`` (4e300 per dimension), finite for any
#: practical ``d``; ``OnlineClusterer.extend`` rejects points beyond it.
COORD_BOUND = 1e150

#: Budgets ``max_clusters`` at or above this many rows run the numpy
#: column regime; smaller ones the python-list regime.  Measured on
#: d = 3 streams of distinct points on a 2-vCPU Xeon (Python 3.11,
#: numpy 2.4): the list regime's per-point cost grows by ≈ 0.36 µs per
#: row, the column regime's stays at 16–19 µs from 10 to 100 rows, and
#: the two meet at 35–40 rows (docs/performance.md has the table).  Every
#: live-store and Fig. 1–3 stream (m <= 16) runs on lists, Table II
#: (m = 100) on columns.
CROSSOVER = 35


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


def _names(prefix, d):
    """``"x0, x1, x2, "`` — an unpacking target, or a tuple in parens."""
    return "".join(f"{prefix}{k}, " for k in range(d))


def _fold_source(d):
    """The squared distance from ``(x0, …)`` to ``(c0, …)`` as source:
    :func:`two_lane_fold` written out, each difference bound once by a
    walrus and squared as ``e * e``."""
    return two_lane_fold([_Source(f"(e{k} := c{k} - x{k}) * e{k}")
                          for k in range(d)])


def _column_distances(centroids, points, out):
    """Squared distances from ``points`` to ``centroids``, both
    coordinate-major (row k holds coordinate k) and broadcast against
    each other into ``out``: :func:`two_lane_fold` over the coordinate
    rows, after one ``subtract`` and one ``multiply``.  At d = 1 the
    result is a view of ``out``."""
    np.subtract(centroids, points, out=out)
    np.multiply(out, out, out=out)
    return two_lane_fold(list(out))


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

    Below :data:`CROSSOVER` clusters a step is O(m d) python float
    arithmetic and makes no numpy call, merges included; at or above
    it the nearest search and the closest-pair matrix are numpy, a
    fixed number of calls per step.  The two regimes return
    bitwise-equal rows and event counts.  Each point's
    decision depends only on the rows the previous point left, so the
    result does not depend on how a stream is cut into blocks: one call
    per point and one call for the whole stream return bitwise-equal
    rows and event counts.  Against the scalar oracle, which folds
    squared distances left to right, rows and events agree for d <= 2
    only: at d = 3 a point exactly one deviation from a centroid can
    absorb in one and spawn (then merge straight back) in the other —
    same rows, other counts.  Coordinates must be finite and
    within :data:`COORD_BOUND`.

    >>> start = np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2))
    >>> points = np.array([[0.0, 0.0], [0.1, 0.0], [500.0, 0.0]])
    >>> counts, _, linear, _, stats = absorb_stream(
    ...     *start, points, np.ones(3), radius_floor=5.0, max_clusters=4)
    >>> counts.tolist(), linear.tolist(), stats["absorbed"]
    ([2.0, 1.0], [[0.1, 0.0], [500.0, 0.0]], 1)
    """
    with obs.get_registry().phase("kernels.cf.absorb_stream"):
        return _absorb_block(counts, weights, linear, square, points,
                             point_weights, radius_floor, max_clusters)


def _absorb_block(counts, weights, linear, square, points, point_weights,
                  radius_floor, max_clusters):
    # The stream rule is inherently sequential (each decision sees the
    # clusters as the previous point left them), so the loop over points
    # stays in python, and so do the CF sums: IEEE scalar arithmetic in
    # the same operation order is bitwise-identical to the elementwise
    # numpy pipeline and far cheaper than ufunc dispatch on d-vectors.
    # Ties go to the first minimum, as ``np.argmin`` does for non-NaN
    # input.
    #
    # Only merges read the centroid-pair distances, so they are kept
    # lazily: a spawned centroid *is* its point, so its pair column is
    # the distance row the nearest search just produced; an absorb or
    # merge moves a centroid and only marks it stale; stale rows are
    # recomputed right before the next merge reads the pairs.  A stretch
    # of absorbs costs no pair work, and a centroid that moves several
    # times between merges is recomputed once.  Squared distances are
    # symmetric bit for bit ((a - b)² == (b - a)²), so which of two
    # stale rows writes their pair does not matter.
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    cnt = np.asarray(counts, dtype=float).tolist()
    wts = np.asarray(weights, dtype=float).tolist()
    if cnt:
        ls = np.atleast_2d(np.asarray(linear, dtype=float)).tolist()
        ss = np.atleast_2d(np.asarray(square, dtype=float)).tolist()
    else:
        ls, ss = [], []
    args = (cnt, wts, ls, ss, points.tolist(),
            np.asarray(point_weights, dtype=float).tolist(),
            float(radius_floor), max_clusters)
    if max_clusters < CROSSOVER:
        spawned, merged = _list_regime(d)(*args)
    else:
        spawned, merged = _columns(points, *args)
    stats = {"spawned": spawned, "absorbed": len(points) - spawned,
             "merged": merged}
    n = len(cnt)
    return (np.asarray(cnt, dtype=float), np.asarray(wts, dtype=float),
            np.asarray(ls, dtype=float).reshape(n, d),
            np.asarray(ss, dtype=float).reshape(n, d),
            stats)


# The list regime, generated once per dimension so that every per-row
# and per-dimension loop is written out.  ``cols[j]`` holds the squared
# distances of rows ``i < j`` to row ``j`` — the strictly-upper triangle
# of the pair matrix by column — and ``low[j]`` its minimum (``inf`` for
# the empty column 0).  A spawn appends its search row as its column,
# and that row's minimum is the search's.  Deleting row ``drop``
# deletes one column and one entry of every later column.  Stale
# entries stay in place, and count towards ``low``, until their row is
# recomputed.  ``{refresh}`` recomputes the centroid and absorption
# radius of row ``j`` from the locals ``l*``, ``s*`` (its CF sums) and
# ``c`` (its count).
_LIST_REGIME = """\
def absorb(cnt, wts, ls, ss, points, point_weights, floor, budget):
    n = len(cnt)
    ctr = [None] * n
    rad = [0.0] * n
    for j in range(n):
        c = cnt[j]
        {l}= ls[j]
        {s}= ss[j]
        {refresh}
    cols = [[inf] * j for j in range(n)]
    low = [inf] * n
    stale = set(range(n))
    spawned = merged = 0
    for ({x}), w in zip(points, point_weights):
        if n:
            sq = [{fold} for {c}in ctr]
            best = min(sq)
            j = sq.index(best)
            if sqrt(best) <= rad[j]:
                c = cnt[j] = cnt[j] + 1.0
                wts[j] += w
                {l}= ls[j]
                {s}= ss[j]
                {absorb}
                ls[j] = {l}
                ss[j] = {s}
                {refresh}
                stale.add(j)
                continue
        else:
            sq, best = [], inf
        cnt.append(1.0)
        wts.append(w)
        ls.append(({x}))
        ss.append(({square}))
        ctr.append(ls[-1])
        rad.append(floor)  # singleton deviation is zero
        cols.append(sq)
        low.append(best)
        n += 1
        spawned += 1
        if n > budget:
            for j in stale:
                {x}= ctr[j]
                if j:
                    col = cols[j] = [{fold} for {c}in ctr[:j]]
                    low[j] = min(col)
                for k in range(j + 1, n):
                    {c}= ctr[k]
                    new = {fold}
                    col = cols[k]
                    old = col[j]
                    col[j] = new
                    if new < low[k]:
                        low[k] = new
                    elif old == low[k]:
                        low[k] = min(col)
            stale.clear()
            # The closest pair is the first in row-major order: the
            # least row of the first column holding the least distance,
            # unless a later column holds it in an earlier row.
            best = min(low)
            assert best < inf, "coordinates beyond COORD_BOUND"
            drop = low.index(best)
            j = cols[drop].index(best)
            if low.count(best) > 1:
                for k in range(drop + 1, n):
                    if low[k] == best and (i := cols[k].index(best)) < j:
                        j, drop = i, k
            c = cnt[j] = cnt[j] + cnt[drop]
            wts[j] += wts[drop]
            {l}= ls[j]
            {s}= ss[j]
            {a}= ls[drop]
            {merge_l}
            {a}= ss[drop]
            {merge_s}
            ls[j] = {l}
            ss[j] = {s}
            {refresh}
            stale.add(j)
            for rows in (cnt, wts, ls, ss, ctr, rad, cols, low):
                del rows[drop]
            n -= 1
            for k in range(drop, n):
                col = cols[k]
                if col.pop(drop) == low[k]:
                    low[k] = min(col)
            merged += 1
    return spawned, merged
"""


@functools.cache
def _list_regime(d: int):
    """The list regime's ``absorb`` for ``d``-dimensional points."""
    dims = range(d)

    def lines(*parts):
        # One statement per part, at the indentation of the placeholder.
        return "; ".join(parts)

    refresh = lines(
        *(f"u{k} = l{k} / c" for k in dims),
        f"ctr[j] = ({_names('u', d)})",
        # The variance sum from 0.0, left to right, like the loop it was.
        "t = 0.0" + "".join(f" + (s{k} / c - u{k} * u{k})" for k in dims),
        "r = sqrt(0.0 if 0.0 > t else t)",  # sqrt(max(t, 0.0))
        "rad[j] = floor if floor > r else r")  # max(r, floor)
    source = _LIST_REGIME.format(
        l=_names("l", d), s=_names("s", d), a=_names("a", d),
        x=_names("x", d), c=_names("c", d), fold=_fold_source(d),
        refresh=refresh,
        absorb=lines(*(f"l{k} += x{k}" for k in dims),
                     *(f"s{k} += x{k} * x{k}" for k in dims)),
        square=", ".join(f"x{k} * x{k}" for k in dims) + ",",
        merge_l=lines(*(f"l{k} += a{k}" for k in dims)),
        merge_s=lines(*(f"s{k} += a{k}" for k in dims)))
    namespace = {"sqrt": math.sqrt, "inf": math.inf}
    exec(source, namespace)
    return namespace["absorb"]


def _columns(array, cnt, wts, ls, ss, points, point_weights, floor,
             budget):
    # The column regime.  ``centroids[k]`` is coordinate k of every
    # centroid slot, ``inf`` in the slots past the live rows, so a
    # search is one column program over all ``cap`` slots whose dead
    # entries never win.  ``pair`` holds the squared centroid-pair
    # distances above the diagonal, ``inf`` elsewhere: the closest pair
    # is one row-major ``argmin`` — the first pair on ties — and
    # deleting a row shifts the later rows and columns up.
    d = array.shape[1]
    cap = budget + 1
    sqrt = math.sqrt
    n = len(cnt)
    centroids = np.full((d, cap), np.inf)
    columns = list(centroids)
    scratch = np.empty((d, cap))
    rad = [0.0] * n

    def refresh(j):
        # Centroid and absorption radius of row j from its CF sums.
        c = cnt[j]
        total = 0.0
        for k, (l, s) in enumerate(zip(ls[j], ss[j])):
            mean = l / c
            columns[k][j] = mean
            total += s / c - mean * mean
        rad[j] = max(sqrt(max(total, 0.0)), floor)

    for j in range(n):
        refresh(j)
    pair = np.full((cap, cap), np.inf)
    stale = set(range(n))
    spawned = merged = 0

    for p, column, w in zip(points, array[:, :, None], point_weights):
        if n:
            sq = _column_distances(centroids, column, scratch)
            nearest = int(sq.argmin())
            if sqrt(sq[nearest]) <= rad[nearest]:
                cnt[nearest] += 1.0
                wts[nearest] += w
                ls[nearest] = [l + x for l, x in zip(ls[nearest], p)]
                ss[nearest] = [s + x * x for s, x in zip(ss[nearest], p)]
                refresh(nearest)
                stale.add(nearest)
                continue
            pair[:n, n] = sq[:n]
        cnt.append(1.0)
        wts.append(w)
        ls.append(p)
        ss.append([x * x for x in p])
        centroids[:, n] = p
        rad.append(floor)  # singleton deviation is zero
        n += 1
        spawned += 1
        if n > budget:  # n == cap: every slot is live
            # All stale rows in one column program, one row each.
            rows = list(stale)
            stale.clear()
            for j, row in zip(rows, _column_distances(
                    centroids[:, None], centroids[:, rows, None],
                    np.empty((d, len(rows), cap)))):
                pair[:j, j] = row[:j]
                pair[j, j + 1:] = row[j + 1:]
            keep, drop = divmod(int(pair.argmin()), cap)
            assert keep < drop, "coordinates beyond COORD_BOUND"
            cnt[keep] += cnt[drop]
            wts[keep] += wts[drop]
            ls[keep] = [a + b for a, b in zip(ls[keep], ls[drop])]
            ss[keep] = [a + b for a, b in zip(ss[keep], ss[drop])]
            for seq in (cnt, wts, ls, ss, rad):
                del seq[drop]
            n -= 1
            # Later rows and columns move up one (insertion order is the
            # tie-break order).  Only the upper triangle right of column
            # ``drop`` moves: below the diagonal stays ``inf``, and the
            # vacated last column is rewritten by the next spawn before
            # anything reads it.
            centroids[:, drop:n] = centroids[:, drop + 1:]
            centroids[:, n] = np.inf
            pair[:drop, drop:n] = pair[:drop, drop + 1:]
            pair[drop:n, drop:n] = pair[drop + 1:, drop + 1:]
            refresh(keep)
            stale.add(keep)
            merged += 1
    return spawned, merged
