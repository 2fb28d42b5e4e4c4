"""Shared test configuration.

Makes ``python -m pytest`` work from the repository root without the
``PYTHONPATH=src`` incantation by prepending ``src/`` to ``sys.path``
(the documented tier-1 command keeps working — the explicit PYTHONPATH
entry is then simply redundant).
"""

import importlib
import inspect
import os
import pkgutil
import sys

import pytest

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session")
def package_callables():
    """``(dotted name, callable, parameters)`` of every function, class
    and method defined under ``src/repro`` — what the "nothing in the
    package takes argument X" guards walk.
    """
    import repro

    def callables(module):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member

    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        for where, obj in callables(importlib.import_module(info.name)):
            try:
                parameters = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            found.append((where, obj, parameters))
    assert len(found) > 500
    return found
