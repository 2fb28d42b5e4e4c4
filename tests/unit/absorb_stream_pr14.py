"""Test fixture: the numpy absorb kernel as it stood before PR 15.

Kept verbatim (unique-point x cluster distance matrix per chunk, a
column refresh per moved centroid, ``closest_pair`` from scratch on
every spawn) so ``test_absorb_kernel.py`` can pin the rewritten
:func:`repro.kernels.cf.absorb_stream` bitwise against the code it
replaced.  Nothing under ``src/`` imports it.
"""

import math

import numpy as np

from repro.kernels.cf import closest_pair

#: Points per distance-matrix chunk in the numpy absorb kernel.  Large
#: enough to amortize the per-chunk ``np.unique``; small enough that a
#: worst-case all-distinct chunk keeps the matrix and the per-mutation
#: column refresh cheap.
_ABSORB_CHUNK = 4096


def absorb_stream_pr14(counts, weights, linear, square, points,
                       point_weights, radius_floor, max_clusters):
    # The stream rule is inherently sequential (each decision sees the
    # clusters as the previous point left them), so the loop over points
    # stays in python.  The trick that makes it fast anyway: real access
    # streams draw points from a tiny alphabet (client coordinates, each
    # repeated thousands of times), so the kernel maintains a
    # *unique-point x cluster* squared-distance matrix per chunk and
    # recomputes a single column only when a mutation actually moves
    # that centroid bitwise — absorbing a point into a cluster made of
    # identical points usually leaves ``linear_sum / count`` unchanged,
    # costing no numpy work at all.  Per-point work is then a row argmin
    # plus scalar CF updates on python floats: IEEE scalar arithmetic in
    # the same operation order is bitwise-identical to the numpy
    # elementwise pipeline it replaces and an order of magnitude cheaper
    # than per-point ufunc dispatch.
    #
    # Bitwise parity with the previous per-point einsum (and hence the
    # scalar oracle, for the dimensionalities the suite pins) holds
    # because every matrix entry is produced by the same elementwise
    # subtract-square and the same sequential reduction over the last
    # axis, whether computed as a chunk ("ijk,ijk->ij"), a column
    # ("ij,ij->i") or a row.
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts, d = points.shape
    cap = max_clusters + 1
    sqrt = math.sqrt
    cnt = np.asarray(counts, dtype=float).tolist()
    wts = np.asarray(weights, dtype=float).tolist()
    if cnt:
        ls = np.atleast_2d(np.asarray(linear, dtype=float)).tolist()
        ss = np.atleast_2d(np.asarray(square, dtype=float)).tolist()
    else:
        ls, ss = [], []
    ctr = [[l / c for l in row] for c, row in zip(cnt, ls)]

    def radius_of(j):
        c = cnt[j]
        total = 0.0
        for l, s in zip(ls[j], ss[j]):
            mean = l / c
            total += s / c - mean * mean
        return max(sqrt(max(total, 0.0)), radius_floor)

    n = len(cnt)
    rad = [radius_of(j) for j in range(n)]
    stats = {"spawned": 0, "absorbed": 0, "merged": 0}
    pw = np.asarray(point_weights, dtype=float).tolist()

    start = 0
    while start < npts:
        stop = min(start + _ABSORB_CHUNK, npts)
        block = points[start:stop]
        upts, uid = np.unique(block, axis=0, return_inverse=True)
        uid = uid.ravel().tolist()
        u = upts.shape[0]
        D = np.empty((u, cap))
        ctrbuf = np.empty((cap, d))  # staging row for column refreshes
        if n:
            ctrbuf[:n] = ctr
            diff = ctrbuf[None, :n, :] - upts[:, None, :]
            D[:, :n] = np.einsum("ijk,ijk->ij", diff, diff)
        scratch = np.empty((u, d))
        planar2 = d == 2  # the simulator's coordinate case, unrolled
        if planar2:
            ux = np.ascontiguousarray(upts[:, 0])
            uy = np.ascontiguousarray(upts[:, 1])
            t0 = np.empty(u)
            t1 = np.empty(u)

        def refresh_col(j):
            if planar2:
                # (c0-x)^2 + (c1-y)^2 elementwise — same products and
                # single-add reduction as the einsum form.
                c0, c1 = ctr[j]
                np.subtract(c0, ux, out=t0)
                np.multiply(t0, t0, out=t0)
                np.subtract(c1, uy, out=t1)
                np.multiply(t1, t1, out=t1)
                np.add(t0, t1, out=D[:, j])
            else:
                ctrbuf[j] = ctr[j]
                diffc = np.subtract(ctrbuf[j], upts, out=scratch)
                np.einsum("ij,ij->i", diffc, diffc, out=D[:, j])

        block_list = block.tolist()
        for i, p in enumerate(block_list):
            w = pw[start + i]
            if n == 0:
                cnt.append(1.0)
                wts.append(w)
                ls.append(list(p))
                ss.append([x * x for x in p])
                ctr.append(list(p))
                rad.append(radius_floor)  # singleton deviation is zero
                n = 1
                refresh_col(0)
                stats["spawned"] += 1
                continue
            row = D[uid[i], :n]
            nearest = int(row.argmin())
            if sqrt(row[nearest]) <= rad[nearest]:
                cnt[nearest] += 1.0
                wts[nearest] += w
                row_ls = ls[nearest]
                row_ss = ss[nearest]
                c = cnt[nearest]
                if planar2:
                    row_ls[0] = l0 = row_ls[0] + p[0]
                    row_ls[1] = l1 = row_ls[1] + p[1]
                    row_ss[0] = s0 = row_ss[0] + p[0] * p[0]
                    row_ss[1] = s1 = row_ss[1] + p[1] * p[1]
                    m0 = l0 / c
                    m1 = l1 / c
                    old = ctr[nearest]
                    if m0 != old[0] or m1 != old[1]:
                        ctr[nearest] = [m0, m1]
                        refresh_col(nearest)
                    # same sequential fold as radius_of, reusing means;
                    # the branches mirror max() exactly (incl. NaN).
                    total = s0 / c - m0 * m0
                    total += s1 / c - m1 * m1
                    if 0.0 > total:
                        total = 0.0
                    dev = sqrt(total)
                    rad[nearest] = (radius_floor if radius_floor > dev
                                    else dev)
                else:
                    for dim, x in enumerate(p):
                        row_ls[dim] += x
                        row_ss[dim] += x * x
                    new_ctr = [l / c for l in row_ls]
                    if new_ctr != ctr[nearest]:
                        ctr[nearest] = new_ctr
                        refresh_col(nearest)
                    rad[nearest] = radius_of(nearest)
                stats["absorbed"] += 1
                continue
            cnt.append(1.0)
            wts.append(w)
            ls.append(list(p))
            ss.append([x * x for x in p])
            ctr.append(list(p))
            rad.append(radius_floor)
            refresh_col(n)
            n += 1
            stats["spawned"] += 1
            if n > max_clusters:
                keep, drop = closest_pair(np.asarray(ctr))
                cnt[keep] += cnt[drop]
                wts[keep] += wts[drop]
                row_ls = ls[keep]
                row_ss = ss[keep]
                drop_ls = ls[drop]
                drop_ss = ss[drop]
                for dim in range(d):
                    row_ls[dim] += drop_ls[dim]
                    row_ss[dim] += drop_ss[dim]
                for seq in (cnt, wts, ls, ss, ctr, rad):
                    del seq[drop]
                n -= 1
                D[:, drop:n] = D[:, drop + 1:n + 1]
                c = cnt[keep]
                new_ctr = [l / c for l in row_ls]
                if new_ctr != ctr[keep]:
                    ctr[keep] = new_ctr
                    refresh_col(keep)
                rad[keep] = radius_of(keep)
                stats["merged"] += 1
        start = stop
    return (np.asarray(cnt, dtype=float), np.asarray(wts, dtype=float),
            np.asarray(ls, dtype=float).reshape(n, d),
            np.asarray(ss, dtype=float).reshape(n, d),
            stats)
