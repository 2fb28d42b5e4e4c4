"""Workload generation: who accesses what, from where, and when.

The paper's evaluation treats all non-candidate nodes as clients with
uniform demand; its future-work section calls for "more realistic
evaluation based on data accesses in actual applications".  This package
provides both:

* :class:`ClientPopulation` — which nodes issue requests and with what
  relative intensity (uniform, region-weighted, or explicitly weighted);
* :class:`ZipfObjectPopularity` — object selection for multi-object
  workloads (web-style skew);
* temporal patterns (:class:`DiurnalPattern`, :class:`FlashCrowd`,
  :class:`RegionalShift`) that modulate client intensity over simulated
  time — the regimes under which gradual migration earns its keep;
* :class:`WorkloadArrivals` / :class:`TraceArrivals` — the above (or a
  recorded trace) as blocks of arrivals, which
  :class:`~repro.store.batched.BatchedAccessWorkload` and
  :func:`replay_trace` feed to the store's data plane;
* :func:`generate_trace` — the same stream as a pure, replayable list.

The per-event tick process the arrival blocks are certified against
lives in :mod:`repro.workloads._reference`, for tests only.
"""

from repro.workloads.population import ClientPopulation, ZipfObjectPopularity
from repro.workloads.temporal import (
    ConstantPattern,
    DiurnalPattern,
    FlashCrowd,
    RegionalShift,
    TemporalPattern,
)
from repro.workloads.access import (
    AccessEvent,
    generate_trace,
    load_trace,
    replay_trace,
    save_trace,
)
from repro.workloads.batched import (
    ArrivalBatch,
    TraceArrivals,
    WorkloadArrivals,
)

__all__ = [
    "ClientPopulation",
    "ZipfObjectPopularity",
    "TemporalPattern",
    "ConstantPattern",
    "DiurnalPattern",
    "FlashCrowd",
    "RegionalShift",
    "AccessEvent",
    "generate_trace",
    "load_trace",
    "replay_trace",
    "save_trace",
    "ArrivalBatch",
    "TraceArrivals",
    "WorkloadArrivals",
]
