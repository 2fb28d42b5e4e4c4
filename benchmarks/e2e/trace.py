"""Spans around the calls into each layer, recorded from outside the program.

The traced run wraps the public callables of every layer *in place* —
class methods with ``setattr`` on the class, module functions at every
namespace that imported them — so the program itself is not edited.  Nothing is wrapped unless :meth:`LayerTracer.install` is called:
the untraced repeats that produce the end-to-end numbers run the
original objects.

Each span records name, parent span, trace id, start and end.  The layer
is the part of the name before the first dot (``store.rank`` belongs to
``store``).  A span's self time is its duration minus the time its child
spans cover; the program is single-threaded, so children nest strictly
and the subtraction is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Any, Callable, NamedTuple

#: Name of the span the harness opens around one whole workload pass.
ROOT_SPAN = "bench.pass"


class Target(NamedTuple):
    """One callable to wrap: ``owner`` is ``module`` or ``module:Class``."""

    span: str
    owner: str
    attr: str
    #: Starts a new trace id (a cell, an engine window, an epoch, a chaos run).
    new_trace: bool = False
    #: ``work(args, kwargs, result) -> number`` summed per span name.
    work: Callable[[tuple, dict, Any], float] | None = None


def _n_points(args, kwargs, result):        # absorb_stream(.., points, ..)
    return len(args[4] if len(args) > 4 else kwargs["points"])


def _batch_size(args, kwargs, result):      # generate_until -> ArrivalBatch
    return result.size


def _summary_bytes(args, kwargs, result):   # run_epoch -> EpochReport
    return result.summary_bytes


_PLACEMENTS = (
    ("placement.random", "repro.placement.random_placement:RandomPlacement"),
    ("placement.offline", "repro.placement.offline_kmeans:OfflineKMeansPlacement"),
    ("placement.online", "repro.placement.online:OnlineClusteringPlacement"),
    ("placement.optimal", "repro.placement.optimal:OptimalPlacement"),
)
_SELECTIONS = ("NearestSelection", "LeastPendingSelection", "C3Selection")

TARGETS: tuple[Target, ...] = (
    Target("net.matrix_build", "repro.net.planetlab", "synthetic_planetlab_matrix"),
    Target("coords.embed", "repro.coords.embedding", "embed_matrix"),
    Target("store.build", "repro.store.kvstore:ReplicatedStore", "__init__"),
    Target("store.build", "repro.store.kvstore:ReplicatedStore", "create_object"),
    Target("store.build", "repro.store.kvstore:ReplicatedStore", "create_group"),
    Target("catalog.build", "repro.catalog.catalog:ShardedCatalog", "__init__"),
    Target("runner.execute", "repro.runner.pool", "execute"),
    Target("runner.cell", "repro.runner.jobs:PlacementRunSpec", "execute", True),
    Target("runner.cell", "repro.runner.jobs:Table2Spec", "execute", True),
    Target("runner.cache_put", "repro.runner.cache:ResultCache", "put"),
    Target("runner.cache_put", "repro.runner.cache:ResultCache", "put_many"),
    Target("runner.cache_get", "repro.runner.cache:ResultCache", "get"),
    *(Target(span, owner, "place") for span, owner in _PLACEMENTS),
    Target("clustering.wkmeans", "repro.clustering.kmeans", "weighted_kmeans"),
    Target("kernels.absorb_stream", "repro.kernels.cf", "absorb_stream",
           work=_n_points),
    Target("core.record_batch", "repro.core.summarizer:ReplicaAccessSummary",
           "record_batch"),
    Target("core.record_access", "repro.core.summarizer:ReplicaAccessSummary",
           "record_access"),
    Target("kernels.cross_distances", "repro.kernels.wkmeans", "cross_distances"),
    Target("kernels.cross_distances", "repro.coords.space:EuclideanSpace",
           "cross_distances"),
    Target("core.place_replicas", "repro.core.macro", "place_replicas"),
    Target("placement.availability_refine", "repro.placement.availability",
           "refine_for_availability"),
    Target("core.epoch", "repro.store.kvstore:ReplicatedStore", "run_epoch",
           True, _summary_bytes),
    Target("core.epoch", "repro.catalog.catalog:ShardedCatalog",
           "run_unit_epoch", True),
    Target("workloads.arrivals", "repro.workloads.batched:WorkloadArrivals",
           "generate_until", work=_batch_size),
    Target("sim.run", "repro.sim.simulator:Simulator", "run_until"),
    Target("store.advance", "repro.store.batched:BatchedAccessEngine",
           "advance", True),
    Target("store.flush", "repro.store.kvstore:ReplicatedStore",
           "flush_pending_accesses"),
    Target("store.client_read", "repro.store.kvstore:StorageClient", "read"),
    Target("store.client_read", "repro.store.kvstore:StorageClient",
           "materialize_read"),
    Target("store.client_write", "repro.store.kvstore:StorageClient", "write"),
    Target("store.route_read", "repro.store.kvstore:ReplicatedStore",
           "route_read"),
    *(Target("store.rank", f"repro.store.selection:{cls}", "rank")
      for cls in _SELECTIONS),
    Target("store.queue_admit", "repro.store.queueing:ServerQueue", "admit"),
    Target("chaos.run", "repro.chaos.harness", "run_scenario", True),
)


def _resolve(target: Target) -> tuple[Any, Any]:
    """``(owner object, original callable)`` of a target."""
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        return owner, vars(owner)[target.attr]
    return owner, getattr(owner, target.attr)


#: Top-level packages whose namespaces are searched for references to a
#: wrapped module function: the program, and the benchmark's own workloads.
_SEARCHED = ("repro", "workloads")


def wrap_sites() -> list[tuple[Any, str, Any, Target]]:
    """Every ``(namespace, attribute, original, target)`` a traced run
    replaces.

    A class method has one site, its class.  A module function has one
    per loaded module that holds a reference to it (its home module, the
    package ``__init__`` that re-exports it, every ``from x import f``
    importer), so callers that bound the name at import time are traced
    too.
    """
    sites = []
    for target in TARGETS:
        owner, original = _resolve(target)
        if isinstance(owner, type):
            sites.append((owner, target.attr, original, target))
            continue
        for name, module in list(sys.modules.items()):
            if module is None or name.partition(".")[0] not in _SEARCHED:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    sites.append((module, attr, original, target))
    return sites


class LayerTracer:
    """In-memory span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        #: One row per span: [name, parent, trace, start, end, child_s, work].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace_id = 0
        self._next_trace = 0
        self._installed: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[Target, Callable] = {}
        for namespace, attr, original, target in wrap_sites():
            if target not in wrappers:
                wrappers[target] = self._wrap(original, target.span,
                                              target.new_trace, target.work)
            setattr(namespace, attr, wrappers[target])
            self._installed.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in self._installed:
            setattr(namespace, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, new_trace, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            previous_trace = self._trace_id
            if new_trace:
                self._next_trace += 1
                self._trace_id = self._next_trace
            row = [name, stack[-1] if stack else -1, self._trace_id,
                   0.0, 0.0, 0.0, 0.0]
            spans.append(row)
            stack.append(index)
            result = None
            row[3] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                row[4] = end = clock()
                stack.pop()
                self._trace_id = previous_trace
                if row[1] >= 0:
                    spans[row[1]][5] += end - row[3]
                if work is not None and result is not None:
                    row[6] = work(args, kwargs, result)
        return traced

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the :data:`ROOT_SPAN` span."""
        return self._wrap(fn, ROOT_SPAN, False, None)()

    # -- reading -------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, work, durations.

        Inclusive time counts only outermost spans of a name, so a
        wrapped method that calls another span of the same name (the
        coordinate space's ``cross_distances`` calling the kernel's) is
        not counted twice.
        """
        out: dict[str, dict[str, Any]] = {}
        for name, parent, _trace, start, end, child_s, work in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "work": 0.0,
                                          "durations": []})
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += duration - child_s
            entry["work"] += work
            entry["durations"].append(duration)
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                entry["total_s"] += duration
        return out

    def dump(self, path: str, **header: Any) -> None:
        """Write every span as JSON (see README: reading a trace file)."""
        origin = self.spans[0][3] if self.spans else 0.0
        doc = dict(header)
        doc["columns"] = ["id", "parent", "trace", "layer", "name",
                          "start_s", "end_s", "self_s"]
        doc["spans"] = [
            [i, parent, trace, name.split(".", 1)[0], name,
             start - origin, end - origin, (end - start) - child_s]
            for i, (name, parent, trace, start, end, child_s, _work)
            in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump(doc, handle)
            handle.write("\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Per-layer metrics that are counts of simulated or seeded work: they
#: repeat exactly between runs of one commit, and ``compare.py`` requires
#: them equal.  Everything else in the per-layer set is host time.
EXACT_COUNTS = frozenset({
    "runner.cells", "placement.calls", "clustering.wkmeans_calls",
    "clustering.wkmeans_iterations", "kernels.absorb_points",
    "kernels.absorb_spawn_ratio", "core.record_batch_calls",
    "core.record_access_calls", "kernels.cross_distances_calls",
    "core.place_replicas_calls", "core.epochs", "core.epochs_degraded",
    "core.migrations", "core.migration_bytes", "core.summary_bytes",
    "workloads.arrivals", "sim.events", "store.bulk_share",
    "store.client_read_calls", "store.writes", "store.route_read_calls",
    "store.rank_calls", "store.queue_admits", "store.queue_rejected",
    "store.read_timeouts", "store.failed_reads", "net.messages_sent",
    "net.bytes_sent", "chaos.faults_injected", "chaos.failovers",
    "chaos.repairs", "runner.cache_hit_ratio", "runner.shm_bytes",
    "sim_delay_mean_ms", "sim_delay_tail_ms",
})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: LayerTracer, registry_snapshot: dict,
                      detail: dict, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    ``registry_snapshot`` is ``repro.obs``'s registry after the pass
    (the † counts), ``detail`` the workload's own counters.  A layer the
    workload does not exercise reads 0.
    """
    spans = tracer.aggregate()
    counters = registry_snapshot.get("counters", {})
    gauges = registry_snapshot.get("gauges", {})

    def self_s(name): return spans.get(name, {}).get("self_s", 0.0)
    def total_s(name): return spans.get(name, {}).get("total_s", 0.0)
    def calls(name): return spans.get(name, {}).get("calls", 0)
    def work(name): return spans.get(name, {}).get("work", 0.0)

    cells = sorted(spans.get("runner.cell", {}).get("durations", []))
    placements = [span for span, _owner in _PLACEMENTS]
    placement_s = sum(total_s(p) for p in placements)
    root = spans[ROOT_SPAN]
    reads = detail.get("reads", 0)
    # The two run_figure2 passes of sweep_pool, in call order.
    executes = spans.get("runner.execute", {}).get("durations", [])
    pool_pass_s = executes[0] if detail.get("pool_jobs") else 0.0
    replay_s = executes[1] if detail.get("pool_jobs") else 0.0
    hits = counters.get("kernels.distcache.hits", 0.0)
    spawned = counters.get("clustering.micro.spawned", 0.0)

    metrics = {
        "net.matrix_build_s": self_s("net.matrix_build"),
        "coords.embed_s": self_s("coords.embed"),
        "store.build_s": total_s("store.build"),
        "runner.execute_self_s": self_s("runner.execute"),
        "runner.cells": len(cells),
        "runner.cell_p50_ms": 1e3 * statistics.median(cells) if cells else 0.0,
        "runner.cell_p95_ms": (1e3 * cells[int(0.95 * (len(cells) - 1))]
                               if cells else 0.0),
        "runner.pool_pass_s": pool_pass_s,
        "runner.replay_s": replay_s,
        "runner.pool_cpu_efficiency": _ratio(
            detail.get("children_cpu_s", 0.0),
            detail.get("pool_jobs", 0) * pool_pass_s),
        "runner.dispatch_overhead_s": gauges.get("runner.dispatch_overhead", 0.0),
        "runner.chunks": counters.get("runner.chunks", 0.0),
        "runner.chunk_size": gauges.get("runner.chunk_size", 0.0),
        "runner.shm_bytes": gauges.get("runner.shm_bytes", 0.0),
        "runner.cache_put_s": total_s("runner.cache_put"),
        "runner.cache_get_s": total_s("runner.cache_get"),
        "runner.cache_hit_ratio": _ratio(
            counters.get("runner.cache_hits", 0.0),
            counters.get("runner.cache_hits", 0.0)
            + counters.get("runner.cache_misses", 0.0)),
        "placement.random_s": total_s("placement.random"),
        "placement.offline_s": total_s("placement.offline"),
        "placement.online_s": total_s("placement.online"),
        "placement.optimal_s": total_s("placement.optimal"),
        "placement.calls": sum(calls(p) for p in placements),
        "analysis.cell_overhead_s": (total_s("runner.cell") - placement_s
                                     if placement_s else 0.0),
        "clustering.wkmeans_s": self_s("clustering.wkmeans"),
        "clustering.wkmeans_calls": calls("clustering.wkmeans"),
        "clustering.wkmeans_iterations": counters.get(
            "clustering.kmeans.iterations", 0.0),
        "kernels.absorb_stream_s": self_s("kernels.absorb_stream"),
        "kernels.absorb_points": work("kernels.absorb_stream"),
        "kernels.absorb_us_per_point": 1e6 * _ratio(
            self_s("kernels.absorb_stream"), work("kernels.absorb_stream")),
        "kernels.absorb_spawn_ratio": _ratio(
            spawned, spawned + counters.get("clustering.micro.absorbed", 0.0)),
        "core.record_batch_s": self_s("core.record_batch"),
        "core.record_batch_calls": calls("core.record_batch"),
        "core.record_access_s": self_s("core.record_access"),
        "core.record_access_calls": calls("core.record_access"),
        "kernels.cross_distances_s": self_s("kernels.cross_distances"),
        "kernels.cross_distances_calls": calls("kernels.cross_distances"),
        "kernels.distcache_hit_ratio": _ratio(
            hits, hits + counters.get("kernels.distcache.misses", 0.0)),
        "core.place_replicas_s": self_s("core.place_replicas"),
        "core.place_replicas_calls": calls("core.place_replicas"),
        "placement.availability_refine_s": self_s(
            "placement.availability_refine"),
        "core.epoch_s": total_s("core.epoch"),
        "core.epochs": detail.get("epochs", 0),
        "core.epochs_degraded": detail.get("epochs_degraded", 0),
        "core.migrations": detail.get("migrations", 0),
        "core.migration_bytes": counters.get("store.migration_bytes", 0.0),
        "core.summary_bytes": work("core.epoch"),
        "workloads.arrivals_s": self_s("workloads.arrivals"),
        "workloads.arrivals": work("workloads.arrivals"),
        "workloads.us_per_arrival": 1e6 * _ratio(
            self_s("workloads.arrivals"), work("workloads.arrivals")),
        "sim.run_self_s": self_s("sim.run"),
        "sim.events": counters.get("sim.events_processed", 0.0),
        "sim.us_per_event": 1e6 * _ratio(
            self_s("sim.run"), counters.get("sim.events_processed", 0.0)),
        "store.advance_self_s": self_s("store.advance"),
        "store.bulk_share": (1.0 - _ratio(calls("store.client_read"), reads)
                             if reads else 0.0),
        "store.flush_s": total_s("store.flush"),
        "store.client_read_s": self_s("store.client_read"),
        "store.client_read_calls": calls("store.client_read"),
        "store.client_write_s": self_s("store.client_write"),
        "store.writes": calls("store.client_write"),
        "store.route_read_s": self_s("store.route_read"),
        "store.route_read_calls": calls("store.route_read"),
        "store.rank_s": self_s("store.rank"),
        "store.rank_calls": calls("store.rank"),
        "store.queue_admit_s": self_s("store.queue_admit"),
        "store.queue_admits": calls("store.queue_admit"),
        "store.queue_rejected": detail.get("queue_rejected", 0),
        "store.read_timeouts": counters.get("store.read_timeouts", 0.0),
        "store.failed_reads": detail.get("failed_reads", 0),
        "net.messages_sent": counters.get("net.messages_sent", 0.0),
        "net.bytes_sent": counters.get("net.bytes_sent", 0.0),
        "catalog.build_s": total_s("catalog.build"),
        "chaos.world_build_s": (total_s("net.matrix_build")
                                + total_s("coords.embed")
                                if calls("chaos.run") else 0.0),
        "chaos.faults_injected": detail.get("faults_injected", 0),
        "chaos.failovers": detail.get("failovers", 0),
        "chaos.repairs": detail.get("repairs", 0),
        "trace.overhead_ratio": _ratio(root["total_s"], untraced_wall_s),
        "trace.unattributed_share": _ratio(root["self_s"], root["total_s"]),
    }
    return {name: float(value) for name, value in metrics.items()}
