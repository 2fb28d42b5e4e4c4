"""repro.kernels — the numeric hot-path kernels behind a backend switch.

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

Every kernel exists in two implementations selected by one *backend*
switch:

``"numpy"``
    Vectorised array kernels — the production path, and the only code
    in :mod:`~repro.kernels.wkmeans`, :mod:`~repro.kernels.cf`,
    :mod:`~repro.kernels.embed` and :mod:`~repro.kernels.subset`.
``"python"``
    Scalar pure-Python loops (for the embedding, the per-node object
    loop; for the subset search, the gather scan) in
    :mod:`repro.kernels._reference` — the oracle the
    differential test suite checks the vectorised path against, and the
    baseline the ``benchmarks/test_kernels.py`` speedup is measured
    from.  Imported only while this backend is selected.

There is one way to select the oracle: ``with use_backend("python"):`` —
nothing else takes a backend argument.  ``REPRO_KERNEL_BACKEND`` is
:func:`use_backend`'s default, read once at import, so a whole process
(and the runner workers it spawns) starts on that backend.

Both backends consume the *same* random stream: seeding, probability
draws and all control flow stay on ``numpy.random.Generator``; only the
arithmetic kernels switch.  That is what makes the differential suite
meaningful — same seed, same decisions, backend-independent.

Examples
--------
>>> from repro import kernels
>>> kernels.get_backend()
'numpy'
>>> with kernels.use_backend("python"):
...     kernels.get_backend()
'python'
>>> kernels.get_backend()
'numpy'
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator

__all__ = ["BACKENDS", "get_backend", "use_backend"]

#: The recognised kernel backends.
BACKENDS = ("python", "numpy")


def _validated(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKENDS}"
        )
    return name


_backend = _validated(os.environ.get("REPRO_KERNEL_BACKEND", "numpy"))


def get_backend() -> str:
    """The kernel backend currently in force."""
    return _backend


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Run the enclosed block on kernel backend ``name``."""
    global _backend
    previous = _backend
    _backend = _validated(name)
    try:
        yield _backend
    finally:
        _backend = previous


def scalar_oracle() -> ModuleType | None:
    """:mod:`repro.kernels._reference` while the backend is ``"python"``.

    ``None`` on the numpy backend — the dispatch point of every public
    kernel is ``if oracle := scalar_oracle(): return oracle.<kernel>(...)``,
    so the numpy path never imports the scalar module.
    """
    if _backend == "numpy":
        return None
    from repro.kernels import _reference
    return _reference
