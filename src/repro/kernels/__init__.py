"""repro.kernels — the numeric hot-path kernels.

The control loop is dominated by three numeric kernels, the world every
experiment starts from by a fourth, and the yardstick every figure is
read against by a fifth:

* **weighted k-means** assignment/update over the pooled ``k*m``
  micro-cluster pseudo-points (:mod:`repro.kernels.wkmeans`),
* **micro-cluster CF maintenance** — the absorb/spawn/merge rule over
  ``(counts, weights, linear, square)`` rows
  (:mod:`repro.kernels.cf`),
* **coordinate-space distances** for candidate ranking and
  migration-gain prediction (:mod:`repro.kernels.wkmeans` cross/pairwise
  distances),
* **coordinate embedding** — the Vivaldi/RNP gossip rounds of
  ``coords.embed_matrix`` as wavefront-batched struct-of-arrays steps
  (:mod:`repro.kernels.embed`).  Its oracle is not a scalar loop but the
  node classes themselves: :class:`~repro.coords.rnp.RNPNode` and
  :class:`~repro.coords.vivaldi.VivaldiNode`, updated one object at a
  time, remain the reference and the path live gossip
  (:mod:`repro.sim.gossip`) runs.
* **exhaustive subset search** — the optimal strategy's scan of every
  ``C(n, k)`` candidate subset as prefix-shared running minima
  (:mod:`repro.kernels.subset`).  Its oracle is the chunked
  column-gather scan it replaced: numpy too, but one gather per subset.

Each kernel has one implementation, the vectorised numpy one, in
:mod:`~repro.kernels.wkmeans`, :mod:`~repro.kernels.cf`,
:mod:`~repro.kernels.embed` and :mod:`~repro.kernels.subset`.  Its
scalar twin of the same name in :mod:`repro.kernels._reference` (pure
Python loops; for the embedding, the per-node object loop; for the
subset search, the gather scan) is the oracle the differential tests
check the kernel against and the baseline ``benchmarks/test_kernels.py``
measures its speedup from.  Nothing in the package imports it: tests
swap the twins in for the kernels themselves.

One helper is shared: :func:`fold_norms`, the Euclidean norm over a
last axis with its summation order stated.  ``cross_distances``, the
RNP refit, ``RNPNode``'s gradient and the embedding's stability
statistic all call it, so kernel and oracle cannot drift apart on a
norm's order.

Seeding, probability draws and all control flow stay on
``numpy.random.Generator`` outside the kernels, so a run on the twins
consumes the same random stream as a production run.  That is what
makes the differential tests meaningful: same seed, same decisions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fold_norms"]


def fold_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, squares added left to right.

    Each norm is ``sqrt(((x0*x0 + x1*x1) + x2*x2) + …)``: the order of
    the scalar twins' loops, and the bits of ``np.linalg.norm(axis=-1)``
    below 8 components, where numpy's ``add.reduce`` adds in order (from
    8 on it sums pairwise).  The squares' columns are added one at a
    time because a reduction over a short last axis costs numpy several
    times that arithmetic.

    >>> import numpy as np
    >>> fold_norms(np.array([[3.0, 4.0], [0.0, -2.0]])).tolist()
    [5.0, 2.0]
    """
    squares = vectors * vectors
    if squares.shape[-1] < 2:           # one component or none: no order
        return np.sqrt(squares.sum(axis=-1))
    total = squares[..., 0] + squares[..., 1]
    for k in range(2, squares.shape[-1]):
        total += squares[..., k]
    return np.sqrt(total, out=total)
