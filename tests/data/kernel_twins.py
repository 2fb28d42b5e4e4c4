"""Swap the scalar twins of :mod:`repro.kernels._reference` in for the kernels.

Every public function of ``_reference`` is the twin of the function of
the same name in one kernel module (``repro.kernels.cf``, ``embed``,
``subset``, ``wkmeans``); the pairs are derived, and a twin with no
kernel, or with more than one, is an error.  Inside
:func:`scalar_twins` each kernel is replaced by its twin in its home
module and in every loaded ``repro`` module that bound it with
``from ... import`` (``coords.embedding`` binds ``embed_rounds``,
``placement.optimal`` binds ``best_subset``), so a whole experiment run
inside the block takes the scalar path while the package itself has no
switch.  Twins are looked up when the block is entered, so a test may
wrap one (``monkeypatch.setattr(_reference, name, wrapper)``) first.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from contextlib import contextmanager
from typing import Iterator

import repro.kernels
from repro.kernels import _reference

#: Parametrize ids of a differential: the production kernels, then the
#: scalar twins (:func:`kernel_path`).
PATHS = ("numpy", "python")


def twin_pairs() -> list[tuple[str, object, object]]:
    """``(name, kernel, twin)`` for every public function of ``_reference``."""
    modules = [importlib.import_module(f"repro.kernels.{info.name}")
               for info in pkgutil.iter_modules(repro.kernels.__path__)
               if not info.name.startswith("_")]
    pairs = []
    for name, twin in vars(_reference).items():
        if name.startswith("_") or not inspect.isfunction(twin):
            continue
        kernels = [getattr(module, name) for module in modules
                   if inspect.isfunction(getattr(module, name, None))]
        if len(kernels) != 1:
            raise LookupError(
                f"_reference.{name} must twin exactly one kernel function, "
                f"found {len(kernels)}")
        pairs.append((name, kernels[0], twin))
    return pairs


def _rebind(swaps: dict[int, object]) -> None:
    """Rebind every ``repro`` module attribute whose ``id`` is a key of
    ``swaps`` to that key's value (ids, because module attributes need
    not be hashable)."""
    for name, module in list(sys.modules.items()):
        if (module is None or module is _reference
                or name.partition(".")[0] != "repro"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in swaps:
                setattr(module, attr, swaps[id(value)])


@contextmanager
def scalar_twins() -> Iterator[None]:
    """Run the enclosed block with every kernel replaced by its twin.

    Leaving the block scans the modules again, so a module first
    imported inside it, which bound a twin, is put back on the kernel.
    """
    pairs = [(kernel, twin) for _name, kernel, twin in twin_pairs()]
    _rebind({id(kernel): twin for kernel, twin in pairs})
    try:
        yield
    finally:
        _rebind({id(twin): kernel for kernel, twin in pairs})


@contextmanager
def kernel_path(name: str) -> Iterator[None]:
    """The production kernels for ``"numpy"``, their twins for ``"python"``."""
    if name not in PATHS:
        raise ValueError(f"unknown kernel path {name!r}; expected one of {PATHS}")
    if name == "python":
        with scalar_twins():
            yield
    else:
        yield
