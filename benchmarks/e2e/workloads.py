"""The five workloads: what one timed pass of each runs, and at what size.

Every workload is a pair of functions: ``setup(seed, n_nodes, size)`` builds what
stays fixed across passes (the paper's 226-node world, candidate sites,
the scenario), and ``run(context, size)`` is one timed pass that returns
a :class:`PassResult`.  All randomness derives from ``seed``; the
program only ever sees the generated inputs.

Sizes.  ISSUE 11 sized single passes at 12–27 s on a 2-core host.  The
driver's budget (114 runs in 3420 s, set-up included) leaves about 10 s
of timed work per run and needs at least three passes in it, so every
simulated horizon and ``n_runs`` is the issue's size times one common
factor of 0.1 — never the world size.  The two store workloads scale
their epoch period with the horizon so that they keep the issue's epoch
counts (5 and 24); ``catalog_chaos`` keeps its 5 s epochs, which keeps
its epochs-per-read ratio.  ``smoke`` is a plumbing check on a 40-node
world and measures nothing.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis.experiment import (
    EvaluationSetting,
    draw_candidates,
    run_figure1,
    run_figure2,
    run_figure3,
    run_table2,
)
from repro.chaos import load_scenario, run_scenario
from repro.core.controller import ControllerConfig
from repro.core.migration import MigrationPolicy
from repro.runner import seed_sequence
from repro.runner.workers import world_memo
from repro.sim import Simulator
from repro.store import (
    BatchedAccessWorkload,
    DeterministicService,
    QueueingConfig,
    ReplicatedStore,
)
from repro.workloads import ClientPopulation

HERE = os.path.dirname(os.path.abspath(__file__))

#: Scratch space for result caches: inside the checkout, git-ignored.
SCRATCH = os.path.join(HERE, "out")

#: Stream tags mixed into ``seed_sequence`` keys (arbitrary, fixed).
_CANDIDATES_STREAM = 211
_SIM_STREAM = 212

N_DC = 20
SETTLE_MS = 5_000.0

PROFILES: dict[str, dict[str, Any]] = {
    "full": {
        "n_nodes": 226,
        "paper_sweep": {
            "n_runs": 1,
            "fig1_x": (5, 10, 15, 20, 25, 30),
            "fig2_x": (1, 2, 3, 4, 5, 6, 7),
            "fig3_m": (1, 2, 4, 7, 11),
            "fig3_k": (1, 2, 3, 4, 5, 6, 7),
            "table2_n": (100, 1_000, 10_000),
        },
        "sweep_pool": {"n_runs": 3, "fig2_x": (1, 2, 3, 4, 5, 6, 7)},
        "store_reads": {"rate_per_second": 20_000.0, "horizon_ms": 5_000.0,
                        "epoch_period_ms": 1_000.0},
        "store_queued_mixed": {"rate_per_second": 900.0,
                               "horizon_ms": 24_000.0,
                               "epoch_period_ms": 1_000.0},
        "catalog_chaos": {"time_scale": 0.1, "overrides": {}},
    },
    "smoke": {
        "n_nodes": 40,
        "paper_sweep": {
            "n_runs": 1,
            "fig1_x": (5, 10),
            "fig2_x": (1, 3),
            "fig3_m": (1, 4),
            "fig3_k": (1, 3),
            "table2_n": (100, 300),
        },
        "sweep_pool": {"n_runs": 1, "fig2_x": (1, 3)},
        "store_reads": {"rate_per_second": 20_000.0, "horizon_ms": 500.0,
                        "epoch_period_ms": 250.0},
        "store_queued_mixed": {"rate_per_second": 900.0,
                               "horizon_ms": 4_000.0,
                               "epoch_period_ms": 1_000.0},
        "catalog_chaos": {"time_scale": 0.02,
                          "overrides": {"n_nodes": 40,
                                        "rate_per_second": 150.0}},
    },
}


@dataclass
class PassResult:
    """What one timed pass produced."""

    ops: int                 # operations attempted
    failed: int              # operations without a correct result
    sim_delay_mean_ms: float
    sim_delay_tail_ms: float
    #: Simulated outputs the golden digest is taken over (JSON-able).
    values: dict
    #: Counters for the invariant checks and the per-layer metrics.
    detail: dict


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_world(seed: int, n_nodes: int, size: dict) -> dict:
    """The paper's world plus one dispersed candidate/client split.

    The sweeps' ``n_runs`` is fixed here, not per pass: the world memo is
    keyed by the whole setting, so a pass that changed it would rebuild
    the world inside the timed section.
    """
    setting = EvaluationSetting(n_nodes=n_nodes, coord_system="rnp", seed=seed,
                                n_runs=size.get("n_runs", 1))
    matrix, planar, _heights = world_memo.get_or_build(setting)
    candidates, clients = draw_candidates(
        matrix, N_DC,
        np.random.default_rng(seed_sequence(seed, 0, _CANDIDATES_STREAM)))
    return {"seed": seed, "setting": setting, "matrix": matrix,
            "planar": planar, "candidates": candidates, "clients": clients}


def setup_chaos(seed: int, n_nodes: int, size: dict) -> dict:
    """Load the committed scenario.

    ``run_scenario`` builds its own world inside the timed pass, because
    ``repro chaos`` users pay that per cell; no world is built here.
    """
    scenario = load_scenario(os.path.join(HERE, "catalog_chaos.toml"))
    return {"seed": seed,
            "scenario": dataclasses.replace(scenario, seed=seed)}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _series_means(figure) -> dict[str, list[float]]:
    return {name: figure.means(name) for name in figure.series}


def _online_points(*figures) -> list[float]:
    return [mean for figure in figures
            for mean in figure.means("online clustering")]


def _non_finite(series: dict[str, list[float]]) -> int:
    return sum(1 for means in series.values() for mean in means
               if not math.isfinite(mean))


def run_paper_sweep(context: dict, size: dict) -> PassResult:
    """Fig. 1–3 and Table II, serially, no cache: the paper's evaluation."""
    setting = context["setting"]
    fig1 = run_figure1(setting, size["fig1_x"])
    fig2 = run_figure2(setting, size["fig2_x"])
    fig3 = run_figure3(setting, size["fig3_m"], size["fig3_k"])
    rows = run_table2(size["table2_n"], seed=context["seed"])
    figures = {"figure1": _series_means(fig1), "figure2": _series_means(fig2),
               "figure3": _series_means(fig3)}
    points = sum(len(means) for series in figures.values()
                 for means in series.values())
    online = _online_points(fig1, fig2)
    table = [{field: value for field, value in dataclasses.asdict(row).items()
              if not field.endswith("_seconds")} for row in rows]
    return PassResult(
        ops=points * setting.n_runs + len(rows),
        failed=setting.n_runs * sum(_non_finite(s) for s in figures.values()),
        sim_delay_mean_ms=float(np.mean(online)),
        sim_delay_tail_ms=float(max(online)),
        values={"figures": figures, "table2": table},
        detail={"figures": figures},
    )


def run_sweep_pool(context: dict, size: dict) -> PassResult:
    """Fig. 2 through the warm pool into a cold cache, then replayed."""
    setting = context["setting"]
    jobs = min(2, os.cpu_count() or 1)
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as cache_dir:
        cpu_before = _cpu_children()
        cold = run_figure2(setting, size["fig2_x"], jobs=jobs,
                           cache_dir=cache_dir)
        children_cpu_s = _cpu_children() - cpu_before
        replay = run_figure2(setting, size["fig2_x"], jobs=jobs,
                             cache_dir=cache_dir, resume=True)
    series = _series_means(cold)
    cells = setting.n_runs * sum(len(means) for means in series.values())
    online = _online_points(cold)
    return PassResult(
        ops=2 * cells,
        failed=setting.n_runs * (_non_finite(series)
                                 + _non_finite(_series_means(replay))),
        sim_delay_mean_ms=float(np.mean(online)),
        sim_delay_tail_ms=float(max(online)),
        values={"figure2": series},
        detail={"figures": {"figure2": series},
                "replay_equal": _series_means(replay) == series,
                "pool_jobs": jobs, "children_cpu_s": children_cpu_s},
    )


# ----------------------------------------------------------------------
# Live store
# ----------------------------------------------------------------------
def _run_store(context: dict, size: dict, *, queued: bool) -> PassResult:
    seed = context["seed"]
    matrix, candidates = context["matrix"], context["candidates"]
    sim = Simulator(seed=int(
        seed_sequence(seed, 0, _SIM_STREAM).generate_state(1)[0]))
    extra: dict[str, Any] = {}
    if queued:
        extra = dict(queueing=QueueingConfig(DeterministicService(2.0)),
                     strategy="least-pending", read_timeout_ms=600.0)
    store = ReplicatedStore(sim, matrix, candidates, context["planar"],
                            selection="oracle", **extra)
    store.create_object(
        "obj", k=3,
        controller_config=ControllerConfig(k=3, max_micro_clusters=10),
        policy=MigrationPolicy(min_relative_gain=0.05,
                               min_absolute_gain_ms=0.0),
        epoch_period_ms=size["epoch_period_ms"])
    if queued:
        population = ClientPopulation.hotspot(context["clients"], matrix,
                                              anchor=candidates[0], exponent=2)
        write_fraction = 0.05
    else:
        population = ClientPopulation.uniform(context["clients"])
        write_fraction = 0.0
    workload = BatchedAccessWorkload(
        store, population, ["obj"], rate_per_second=size["rate_per_second"],
        write_fraction=write_fraction)
    sim.run_until(size["horizon_ms"])
    workload.stop()
    sim.run_until(size["horizon_ms"] + SETTLE_MS)

    issued = workload.operations_issued
    # A read that exhausts its retries is logged too, as a read-timeout.
    completed = len(store.log) - store.failed_reads
    read_delays = store.log.delays("read")
    quantiles = store.log.tail_quantiles("read")
    reports = store.epoch_reports("obj")
    counts = {
        "issued": issued,
        "completed": completed,
        "reads": int(read_delays.size),
        "epochs": len(reports),
        "migrations": store.controller("obj").tally.migrations,
        "final_sites": list(store.installed_sites("obj")),
        "queue": store.queue_stats(),
        "failed_reads": store.failed_reads,
    }
    mean = float(read_delays.mean())
    return PassResult(
        ops=issued,
        failed=issued - completed,
        sim_delay_mean_ms=mean,
        sim_delay_tail_ms=quantiles["p999"],
        values={**counts, "mean_ms": mean, **quantiles},
        detail={**counts,
                "epochs_degraded": sum(1 for r in reports if r.degraded),
                "queue_rejected": counts["queue"]["rejected"]},
    )


def run_store_reads(context: dict, size: dict) -> PassResult:
    """Steady read-only load at volume: everything on the bulk path."""
    return _run_store(context, size, queued=False)


def run_store_queued_mixed(context: dict, size: dict) -> PassResult:
    """Writes, server queues, pending-aware selection: the per-event path."""
    return _run_store(context, size, queued=True)


def run_catalog_chaos(context: dict, size: dict) -> PassResult:
    """A sharded catalog under a fault schedule: control-plane heavy."""
    scenario, scale = context["scenario"], size["time_scale"]
    faults = tuple(
        dataclasses.replace(
            fault, at=fault.at * scale,
            until=None if fault.until is None else fault.until * scale)
        for fault in scenario.faults)
    scenario = dataclasses.replace(
        scenario, duration_ms=scenario.duration_ms * scale, faults=faults,
        **size["overrides"])
    result = run_scenario(scenario, run_index=0)
    counts = dataclasses.asdict(result)
    counts["final_sites"] = list(result.final_sites)
    return PassResult(
        # Reads still in flight when the horizon cuts the run off have no
        # outcome yet; they are neither attempted-and-done nor failed.
        ops=result.reads_completed + result.failed_reads,
        failed=result.failed_reads,
        sim_delay_mean_ms=result.mean_delay_ms,
        sim_delay_tail_ms=result.p999_ms,
        values=counts,
        detail={**counts,
                "issued": result.reads_issued,
                "completed": result.reads_completed,
                "reads": result.reads_completed,
                "queue_rejected": result.queue_rejections,
                "faults_injected": result.crashes + result.partitions},
    )


#: name -> (set-up, one pass).  Order is the order the full run uses.
WORKLOADS: dict[str, tuple[Callable[[int, int, dict], dict],
                           Callable[[dict, dict], PassResult]]] = {
    "paper_sweep": (setup_world, run_paper_sweep),
    "sweep_pool": (setup_world, run_sweep_pool),
    "store_reads": (setup_world, run_store_reads),
    "store_queued_mixed": (setup_world, run_store_queued_mixed),
    "catalog_chaos": (setup_chaos, run_catalog_chaos),
}
