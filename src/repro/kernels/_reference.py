"""The scalar reference oracle: every kernel as a pure-Python loop.

Every public function here is the scalar twin of the kernel of the
same name and signature in :mod:`repro.kernels.wkmeans`,
:mod:`repro.kernels.cf`, :mod:`repro.kernels.embed` or
:mod:`repro.kernels.subset` (for the last two, the loop the kernel
replaced: per-node objects, the chunked gather scan).  A twin takes its
arguments as the kernel would have coerced and validated them (float
arrays of the documented rank).  The differential tests check the
kernels against these, by calling them directly or by swapping them in
for the kernels around a whole experiment; nothing in the package
imports this module.

Operation order is part of the contract: squared differences fold left
to right over the last axis and ties resolve to the lowest index — that
is what makes the numpy kernels *bitwise* comparable for d <= 2.  From
d = 3 on they sum in another order (``(x² + z²) + y²``: the CF kernel's
``two_lane_fold``, the same fold in the k-means distance kernel), so distances
can differ in the last ulp and an exact tie in the absorb rule can fall
the other way (``tests/unit/test_absorb_kernel.py`` pins one).
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np

from repro.kernels import fold_norms as _fold_norms


# -- repro.kernels.wkmeans ---------------------------------------------
# The k-means kernels take one restart or a stack of restarts (a leading
# axis on ``centers`` and on what derives from it); the twins loop over
# the stack.
def sq_distances(points, centers):
    """Scalar :func:`repro.kernels.wkmeans.sq_distances`."""
    if centers.ndim == 3:
        return np.stack([sq_distances(points, c) for c in centers])
    rows = points.tolist()
    cols = centers.tolist()
    out = [[0.0] * len(cols) for _ in rows]
    for i, p in enumerate(rows):
        row = out[i]
        for j, c in enumerate(cols):
            acc = 0.0
            for a, b in zip(p, c):
                d = a - b
                acc += d * d
            row[j] = acc
    return np.asarray(out, dtype=float)


def assign_labels(sq):
    """Scalar :func:`repro.kernels.wkmeans.assign_labels`."""
    if sq.ndim == 3:
        return np.stack([assign_labels(s) for s in sq])
    labels = []
    for row in sq.tolist():
        best, best_val = -1, math.inf
        for j, val in enumerate(row):
            if val < best_val:
                best, best_val = j, val
        labels.append(best)
    return np.asarray(labels, dtype=int)


def assignment_costs(sq, labels, weights):
    """Scalar :func:`repro.kernels.wkmeans.assignment_costs`."""
    if sq.ndim == 3:
        return np.stack([assignment_costs(s, lab, weights)
                         for s, lab in zip(sq, labels)])
    out = [w * row[lab] for row, lab, w in
           zip(sq.tolist(), labels.tolist(), weights.tolist())]
    return np.asarray(out, dtype=float)


def update_centroids(points, labels, weights, centers, costs):
    """Scalar :func:`repro.kernels.wkmeans.update_centroids`."""
    if centers.ndim == 3:
        return np.stack([update_centroids(points, lab, weights, c, cost)
                         for lab, c, cost in zip(labels, centers, costs)])
    k = centers.shape[0]
    d = points.shape[1]
    sums = [[0.0] * d for _ in range(k)]
    masses = [0.0] * k
    for p, lab, w in zip(points.tolist(), labels.tolist(), weights.tolist()):
        masses[lab] += w
        row = sums[lab]
        for dim in range(d):
            row[dim] += w * p[dim]
    cost_list = costs.tolist()
    worst = max(range(len(cost_list)), key=lambda i: cost_list[i],
                default=0) if cost_list else 0
    out = []
    for c in range(k):
        if masses[c] > 0:
            out.append([s / masses[c] for s in sums[c]])
        else:
            out.append(list(points[worst]))
    return np.asarray(out, dtype=float)


def cross_distances(a, b, b_heights=None, a_heights=None):
    """Scalar :func:`repro.kernels.wkmeans.cross_distances`."""
    ah = ([0.0] * a.shape[0] if a_heights is None
          else np.asarray(a_heights, dtype=float).tolist())
    bh = ([0.0] * b.shape[0] if b_heights is None
          else np.asarray(b_heights, dtype=float).tolist())
    rows = a.tolist()
    cols = b.tolist()
    out = [[0.0] * len(cols) for _ in rows]
    for i, p in enumerate(rows):
        row = out[i]
        for j, q in enumerate(cols):
            acc = 0.0
            for x, y in zip(p, q):
                diff = x - y
                acc += diff * diff
            row[j] = math.sqrt(acc) + ah[i] + bh[j]
    return np.asarray(out, dtype=float)


# -- repro.kernels.cf --------------------------------------------------
def _closest_pair(centroids):
    """Indices ``(keep, drop)``, ``keep < drop``, of the two closest
    rows; ties go to the first pair in row-major order (the pair
    :func:`repro.kernels.cf.absorb_stream` merges)."""
    rows = centroids.tolist()
    best = (0, 1)
    best_val = math.inf
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            acc = 0.0
            for a, b in zip(rows[i], rows[j]):
                diff = a - b
                acc += diff * diff
            if acc < best_val:
                best_val = acc
                best = (i, j)
    return best


def absorb_stream(counts, weights, linear, square, points,
                  point_weights, radius_floor, max_clusters):
    """Scalar :func:`repro.kernels.cf.absorb_stream` (inside its timer)."""
    cnt = [float(c) for c in np.asarray(counts, dtype=float)]
    wts = [float(w) for w in np.asarray(weights, dtype=float)]
    ls = [list(map(float, row)) for row in np.atleast_2d(linear)] if len(cnt) else []
    ss = [list(map(float, row)) for row in np.atleast_2d(square)] if len(cnt) else []
    pts = np.atleast_2d(np.asarray(points, dtype=float)).tolist()
    pws = [float(w) for w in np.asarray(point_weights, dtype=float)]
    ctr = [[l / c for l in row] for c, row in zip(cnt, ls)]
    stats = {"spawned": 0, "absorbed": 0, "merged": 0}
    for p, w in zip(pts, pws):
        if not cnt:
            cnt.append(1.0)
            wts.append(w)
            ls.append(list(p))
            ss.append([x * x for x in p])
            ctr.append(list(p))
            stats["spawned"] += 1
            continue
        nearest, best_sq = 0, math.inf
        for idx, c in enumerate(ctr):
            acc = 0.0
            for a, b in zip(c, p):
                diff = a - b
                acc += diff * diff
            if acc < best_sq:
                nearest, best_sq = idx, acc
        distance = math.sqrt(best_sq)
        total = 0.0
        n_near = cnt[nearest]
        for l, s in zip(ls[nearest], ss[nearest]):
            mean = l / n_near
            total += s / n_near - mean * mean
        deviation = math.sqrt(max(total, 0.0))
        if distance <= max(deviation, radius_floor):
            cnt[nearest] += 1.0
            wts[nearest] += w
            row_ls, row_ss = ls[nearest], ss[nearest]
            for dim, x in enumerate(p):
                row_ls[dim] += x
                row_ss[dim] += x * x
            c = cnt[nearest]
            ctr[nearest] = [l / c for l in row_ls]
            stats["absorbed"] += 1
            continue
        cnt.append(1.0)
        wts.append(w)
        ls.append(list(p))
        ss.append([x * x for x in p])
        ctr.append(list(p))
        stats["spawned"] += 1
        if len(cnt) > max_clusters:
            keep, drop = _closest_pair(np.asarray(ctr))
            cnt[keep] += cnt[drop]
            wts[keep] += wts[drop]
            for dim in range(len(ls[keep])):
                ls[keep][dim] += ls[drop][dim]
                ss[keep][dim] += ss[drop][dim]
            for seq in (cnt, wts, ls, ss, ctr):
                del seq[drop]
            c = cnt[keep]
            ctr[keep] = [l / c for l in ls[keep]]
            stats["merged"] += 1
    return (np.asarray(cnt, dtype=float), np.asarray(wts, dtype=float),
            np.asarray(ls, dtype=float).reshape(len(cnt), -1),
            np.asarray(ss, dtype=float).reshape(len(cnt), -1),
            stats)


# -- repro.kernels.embed -----------------------------------------------
def embed_rounds(rtt, system, space, rounds, rng, outlier_fraction=0.0,
                 outlier_multiplier=10.0, **node_params):
    """Per-node :func:`repro.kernels.embed.embed_rounds`.

    One :class:`~repro.coords.vivaldi.VivaldiNode` or
    :class:`~repro.coords.rnp.RNPNode` object per node, updated in index
    order — the loop ``embed_matrix`` ran before the wavefront kernel,
    and what live gossip (:mod:`repro.sim.gossip`) runs per message.
    In the kernel's place under ``embed_matrix`` it raises the kernel's
    errors: the node classes check their own parameters before a draw,
    and the node and round counts are checked here.
    """
    from repro.coords.rnp import RNPNode
    from repro.coords.vivaldi import VivaldiNode

    n = rtt.shape[0]
    if n < 2:
        raise ValueError(
            f"gossip needs at least two nodes to measure a peer, got {n}")
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    node_cls = {"vivaldi": VivaldiNode, "rnp": RNPNode}[system]
    nodes = [node_cls(space, rng=rng, **node_params) for _ in range(n)]

    warmup = rounds // 2
    displacements: list[float] = []
    previous: np.ndarray | None = None
    for round_index in range(rounds):
        # Every node measures one random distinct peer per round: an
        # offset draw over the n - 1 others skips the node itself.
        peers = rng.integers(0, n - 1, size=n)
        peers = peers + (peers >= np.arange(n))
        for i in range(n):
            j = int(peers[i])
            sample = float(rtt[i, j])
            if outlier_fraction > 0 and rng.random() < outlier_fraction:
                sample *= outlier_multiplier
            nodes[i].update(nodes[j].coords, nodes[j].error, sample)
        if round_index >= warmup:
            snapshot = np.stack([node.coords for node in nodes])
            if previous is not None:
                # Displacement of one node: planar movement plus height
                # change (the height-space distance formula would add
                # both heights even for a motionless node).
                diff = snapshot - previous
                if space.use_height:
                    moves = _fold_norms(diff[:, :-1]) + np.abs(diff[:, -1])
                else:
                    moves = _fold_norms(diff)
                displacements.append(float(moves.mean()))
            previous = snapshot

    coords = np.stack([node.coords for node in nodes])
    errors = np.array([node.error for node in nodes])
    stability = float(np.mean(displacements)) if displacements else None
    return coords, errors, stability


# -- repro.kernels.subset ----------------------------------------------
def best_subset(block, k):
    """Chunked gather scan: :func:`repro.kernels.subset.best_subset`'s oracle.

    Every ``C(n, k)`` combination in lexicographic order, ``per_chunk``
    at a time — what ``OptimalPlacement.place`` ran before the
    running-minimum scan.  The first combination wins a tie (first
    ``argmin`` inside a chunk, strict ``<`` across chunks).
    """
    best_positions = None
    best_total = np.inf
    # Chunked vectorised scan: gather (clients, chunk, k) RTTs, take
    # the per-client min over the k columns, sum over clients.
    per_chunk = max(1, 4_000_000 // (block.shape[0] * k))
    combo_iter = combinations(range(block.shape[1]), k)
    while True:
        chunk = list(islice(combo_iter, per_chunk))
        if not chunk:
            break
        idx = np.array(chunk, dtype=int)          # (c, k)
        totals = block[:, idx].min(axis=2).sum(axis=0)
        pos = int(np.argmin(totals))
        if best_positions is None or totals[pos] < best_total:
            best_total = float(totals[pos])
            best_positions = tuple(int(x) for x in idx[pos])
    return best_positions, best_total
