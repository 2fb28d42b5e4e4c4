"""repro.kernels — the numeric hot-path kernels.

The control loop is dominated by three numeric kernels, the world every
experiment starts from by a fourth, and the yardstick every figure is
read against by a fifth:

* **weighted k-means** assignment/update over the pooled ``k*m``
  micro-cluster pseudo-points (:mod:`repro.kernels.wkmeans`),
* **micro-cluster CF maintenance** — the absorb/spawn/merge rule over
  ``(count, weight, linear_sum, square_sum)`` rows
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

Seeding, probability draws and all control flow stay on
``numpy.random.Generator`` outside the kernels, so a run on the twins
consumes the same random stream as a production run.  That is what
makes the differential tests meaningful: same seed, same decisions.
"""
