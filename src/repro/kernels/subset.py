"""Exhaustive best-``k``-subset search as a prefix-shared running-minimum scan.

The oracle placement (paper §II-B) needs, over every ``C(n, k)`` subset
of the ``n`` candidate columns of a ``clients × candidates`` RTT block,
the subset minimising ``sum over clients of (min over the subset)``.
The scan never gathers a column subset.  It transposes the block once to
C-contiguous ``(candidates, clients)`` rows and grows combination
*prefixes* one element at a time, carrying each prefix's running
per-client minimum: extending a prefix by candidate ``b`` is one
broadcast ``np.minimum(prefix_minima, rows[b])``, and a prefix's minimum
is computed once, not once per completion.  A level's prefixes are kept
ordered by their last element, so the prefixes ``b`` may extend (those
ending before ``b``) are a leading slice of the level — a view, not a
copy.  The last level is never stored: per last element the completions
are written into one scratch buffer, row-summed and reduced to their
minimum.

Exactness.  ``min`` never rounds, and a total is numpy's pairwise sum
over one C-contiguous row of client values — the very reduction the
chunked gather scan (:func:`repro.kernels._reference.best_subset`)
performs, whose ``block[:, idx]`` comes out client-fastest, so its
``.min(axis=2).sum(axis=0)`` also reduces along the contiguous axis.
Totals are therefore equal as bytes, not approximately.  Equal totals
resolve to the lexicographically first combination, as that scan's
first-``argmin`` plus strict ``<`` does; here the tied combinations are
compared explicitly, because a level's order is not lexicographic.

Memory.  Levels are built depth first, a *piece* at a time: one buffer
of running minima plus the integer prefixes themselves per prefix
length, and the scratch block.  Together they hold at most
:data:`_WORKING_SET_ELEMENTS` array elements whatever ``C(n, k)`` is
(a piece is never cut below one row).  Small pieces are also what makes
the scan fast: a piece is re-read once per candidate that can extend it,
and at this size those re-reads hit cache.

Cost.  ``C(n + 1, k)`` row minima over all levels (the last level's
``C(n, k)`` dominate while ``k <= n / 2``) against the gather scan's
``k * C(n, k)`` gathered columns.  Only a narrow, deep search — ``k``
within a few of an ``n`` in the hundreds — leaves batches of a row or two
and loses to the gather; no placement problem has that shape.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = ["best_subset"]

#: Bound, in array elements, on the scan's live buffers (2 MiB of
#: float64), shared equally by its ``k`` levels.
_WORKING_SET_ELEMENTS = 1 << 18


def best_subset(block: np.ndarray, k: int) -> tuple[tuple[int, ...], float]:
    """Column ``k``-subset of ``block`` with the least sum of row minima.

    ``block`` is ``(clients, candidates)``; returns ``(positions,
    total)`` — the chosen column positions in increasing order and
    ``block[:, positions].min(axis=1).sum()``.  Ties go to the
    lexicographically first combination.

    Examples
    --------
    >>> import numpy as np
    >>> block = np.array([[1.0, 5.0, 9.0],
    ...                   [8.0, 2.0, 9.0],
    ...                   [7.0, 6.0, 3.0],
    ...                   [4.0, 4.0, 4.0]])
    >>> best_subset(block, 1)
    ((1,), 17.0)
    >>> best_subset(block, 2)
    ((0, 1), 13.0)
    >>> best_subset(block, 3)
    ((0, 1, 2), 10.0)
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.size == 0:
        raise ValueError(
            f"block must be a non-empty (clients, candidates) array, "
            f"got shape {block.shape}")
    n_clients, n = block.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if np.isnan(block).any():
        raise ValueError("block must not contain NaN")

    rows = np.ascontiguousarray(block.T)          # (candidates, clients)
    if k == 1:
        totals = rows.sum(axis=1)
        pos = int(totals.argmin())
        return (pos,), float(totals[pos])

    # Prefixes of length d put candidate <= n - k + i at place i, so
    # there are C(n - k + d, d) of them; a piece holds at most `cap`.
    cap = max(1, _WORKING_SET_ELEMENTS // (k * (n_clients + k)))
    size = {d: min(cap, comb(n - k + d, d)) for d in range(1, k)}
    pieces = {d: (np.empty((size[d], n_clients)),
                  np.empty((size[d], d), dtype=np.intp))
              for d in range(2, k)}
    scratch = np.empty((size[k - 1], n_clients))
    ends = np.arange(n + 1)
    best_total = np.inf
    best: tuple[int, ...] | None = None

    def extend(minima: np.ndarray, prefixes: np.ndarray):
        """Yield one piece's one-longer prefixes, a buffer-full at a time.

        Both are ordered by last element.  The buffer is reused: a piece
        is dead once the next is asked for.
        """
        depth = prefixes.shape[1]
        child_minima, child_prefixes = pieces[depth + 1]
        # extendable[b]: how many of the piece's prefixes end before b.
        extendable = np.searchsorted(prefixes[:, -1], ends)
        room = len(child_minima)
        fill = 0
        for b in range(int(prefixes[0, -1]) + 1, n - k + depth + 1):
            done = 0
            while done < extendable[b]:
                take = min(extendable[b] - done, room - fill)
                np.minimum(minima[done:done + take], rows[b],
                           out=child_minima[fill:fill + take])
                child_prefixes[fill:fill + take, :depth] = \
                    prefixes[done:done + take]
                child_prefixes[fill:fill + take, depth] = b
                done += take
                fill += take
                if fill == room:
                    yield child_minima, child_prefixes
                    fill = 0
        if fill:
            yield child_minima[:fill], child_prefixes[:fill]

    def finish(minima: np.ndarray, prefixes: np.ndarray) -> None:
        """Score every completion of one piece of ``k - 1``-prefixes."""
        nonlocal best_total, best
        extendable = np.searchsorted(prefixes[:, -1], ends)
        for b in range(int(prefixes[0, -1]) + 1, n):
            p = extendable[b]
            np.minimum(minima[:p], rows[b], out=scratch[:p])
            totals = scratch[:p].sum(axis=1)
            total = totals.min()
            if total <= best_total:
                tied = prefixes[np.flatnonzero(totals == total)]
                combo = (*min(map(tuple, tied.tolist())), b)
                if total < best_total or best is None or combo < best:
                    best_total, best = float(total), combo

    # A single candidate's running minimum is its row: level 1 is `rows`.
    # An explicit stack of piece generators, one per prefix length, walks
    # the levels depth first without recursing k deep.
    singles = np.arange(n - k + 1)[:, None]
    stack = [((rows[start:start + cap], singles[start:start + cap])
              for start in range(0, n - k + 1, cap))]
    while stack:
        piece = next(stack[-1], None)
        if piece is None:
            stack.pop()
        elif len(stack) == k - 1:
            finish(*piece)
        else:
            stack.append(extend(*piece))
    return best, best_total
