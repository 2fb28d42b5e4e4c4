"""repro.obs — the simulation observability layer.

Three pillars (see ``docs/observability.md`` for the full reference):

* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  mergeable fixed-bucket histograms in a :class:`MetricsRegistry`;
  additive, so per-node registries pool like the paper's CF vectors.
* **Tracing** (:mod:`repro.obs.tracing`) — a :class:`Tracer` ring
  buffer of typed :class:`Span` events stamped with *simulated* time.
* **Phase timers** — ``perf_counter``-based wall-clock accumulators
  around the hot paths (``registry.phase("name")``), answering the
  Table II overhead question for our own implementation.

The module keeps one process-wide active registry/tracer pair.  By
default both are no-ops, so the instrumentation threaded through the
simulator, clustering, placement and store costs at most one ``enabled``
check per call site and records nothing.  Crucially, instrumentation
never draws randomness and never schedules events, so **identical seeds
produce identical simulations with observability on or off**.

Typical use::

    from repro import obs

    with obs.observe() as (registry, tracer):
        run_figure2(setting)                       # instrumented run
        print(registry.counter("accesses.served").value)
        print(tracer.kind_counts())

or imperatively (the CLI's ``--metrics-out`` does this)::

    registry, tracer = obs.enable()
    try:
        ...
    finally:
        obs.disable()

Examples
--------
>>> from repro import obs
>>> obs.get_registry().enabled        # disabled by default
False
>>> with obs.observe() as (registry, tracer):
...     obs.get_registry() is registry
True
>>> obs.get_registry().enabled        # restored afterwards
False
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    PhaseTimer,
)
from repro.obs.tracing import (
    ACCESS_SERVED,
    MACRO_ROUND,
    MIGRATION_FINISH,
    MIGRATION_START,
    NullTracer,
    NULL_TRACER,
    Span,
    Tracer,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BOUNDS_MS",
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ACCESS_SERVED",
    "MACRO_ROUND",
    "MIGRATION_START",
    "MIGRATION_FINISH",
    # switchboard
    "get_registry",
    "get_tracer",
    "enable",
    "disable",
    "observe",
]

_active_registry: MetricsRegistry = NULL_REGISTRY
_active_tracer: Tracer = NULL_TRACER


def get_registry() -> MetricsRegistry:
    """The process-wide active metrics registry (no-op by default)."""
    return _active_registry


def get_tracer() -> Tracer:
    """The process-wide active tracer (no-op by default)."""
    return _active_tracer


def enable(registry: MetricsRegistry | None = None,
           tracer: Tracer | None = None) -> tuple[MetricsRegistry, Tracer]:
    """Install a live registry/tracer pair and return it.

    Passing ``None`` (the default) creates fresh instances.  The
    previous pair is simply replaced; use :func:`observe` when the
    previous state must be restored afterwards.
    """
    global _active_registry, _active_tracer
    _active_registry = registry if registry is not None else MetricsRegistry()
    _active_tracer = tracer if tracer is not None else Tracer()
    return _active_registry, _active_tracer


def disable() -> None:
    """Restore the default no-op registry and tracer."""
    global _active_registry, _active_tracer
    _active_registry = NULL_REGISTRY
    _active_tracer = NULL_TRACER


@contextmanager
def observe(registry: MetricsRegistry | None = None,
            tracer: Tracer | None = None
            ) -> Iterator[tuple[MetricsRegistry, Tracer]]:
    """Context manager: observability on inside, prior state restored after."""
    global _active_registry, _active_tracer
    previous = (_active_registry, _active_tracer)
    pair = enable(registry, tracer)
    try:
        yield pair
    finally:
        _active_registry, _active_tracer = previous
