"""End-to-end simulator throughput: per-event oracle vs batched engine.

Runs the full live stack (64-node world, 12 candidate data centers,
3 replicas, uniform read-only clients — the paper's setting scaled to
a dense workload) under the production driver (``"batched"``) and the
per-event test oracle of ``repro.workloads._reference`` (``"event"``)
and records the numbers in ``BENCH_sim.json`` next to this module:

* the headline floor is a >= 10x end-to-end speedup at >= 1e5 client
  accesses — the batched engine's reason to exist;
* a scaling curve of batched-engine runs up to 1e6 accesses pins that
  throughput (accesses/second of wall clock) does not collapse with
  volume, i.e. the engine really is usable at millions of accesses;
* the per-run ``events_processed`` counts document the mechanism: the
  batched runs retire hundreds of heap events where the oracle retires
  hundreds of thousands.

Every batched run here is an instance of the configuration family the
differential suite (``tests/integration/test_engine_equivalence.py``)
proves bitwise-identical to the oracle, so the speedup is not bought
with accuracy.
"""

import gc
import json
import pathlib
import time

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation
from repro.workloads._reference import AccessWorkload

from conftest import print_result

BENCH_OUT = pathlib.Path(__file__).parent / "BENCH_sim.json"

N_NODES = 64
N_DC = 12
SEED = 7


def _world():
    rng = np.random.default_rng(1234)
    coords = rng.uniform(0, 100, size=(N_NODES, 2))
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(rtt, 0.0)
    return LatencyMatrix((rtt + rtt.T) / 2), coords


def _run_once(engine, rate_per_second, horizon_ms):
    matrix, coords = _world()
    sim = Simulator(seed=SEED)
    store = ReplicatedStore(sim, matrix, list(range(N_DC)), coords)
    store.create_object("obj", size_gb=0.5, k=3)
    population = ClientPopulation.uniform(list(range(N_DC, N_NODES)))
    workload_cls = (BatchedAccessWorkload if engine == "batched"
                    else AccessWorkload)
    workload = workload_cls(store, population, ["obj"],
                            rate_per_second=rate_per_second)
    # The previous run's garbage (up to 3e5 events, 1e5 log records) must
    # not be collected on this run's clock: measured +35 % on the first
    # batched run after an oracle run.
    gc.collect()
    start = time.perf_counter()
    sim.run_until(horizon_ms)
    wall_s = time.perf_counter() - start
    return {
        "engine": engine,
        "rate_per_second": rate_per_second,
        "horizon_ms": horizon_ms,
        "accesses": workload.operations_issued,
        "wall_s": round(wall_s, 3),
        "us_per_access": round(wall_s / workload.operations_issued * 1e6, 2),
        "events_processed": sim.events_processed,
    }


def _run(engine, rate_per_second, horizon_ms, repeats=2):
    # Best-of-N: single wall-clock samples on a shared machine swing by
    # +-50%, and the floors below compare runs measured minutes apart.
    # The minimum is the least-noisy estimator of the code's true cost.
    runs = [_run_once(engine, rate_per_second, horizon_ms)
            for _ in range(repeats)]
    return min(runs, key=lambda r: r["wall_s"])


@pytest.mark.bench
def test_sim_throughput(capsys):
    # Headline: both drivers on the same >= 1e5-access workload.
    event = _run("event", 2_000, 52_000.0)
    batched = _run("batched", 2_000, 52_000.0)
    assert event["accesses"] == batched["accesses"] >= 100_000
    speedup = event["wall_s"] / batched["wall_s"]

    # Scaling curve: batched engine from 2e4 up to 1e6 accesses.
    curve = [
        _run("batched", 2_000, 10_000.0),    # ~2e4
        batched,                             # ~1e5
        _run("batched", 20_000, 52_000.0),  # ~1e6
    ]

    doc = {
        "benchmark": "sim-throughput",
        "setting": {"n_nodes": N_NODES, "n_dc": N_DC, "k": 3,
                    "seed": SEED, "workload": "uniform read-only"},
        "headline": {
            "accesses": event["accesses"],
            "event_wall_s": event["wall_s"],
            "batched_wall_s": batched["wall_s"],
            "event_us_per_access": event["us_per_access"],
            "batched_us_per_access": batched["us_per_access"],
            "speedup": round(speedup, 2),
            "event_events_processed": event["events_processed"],
            "batched_events_processed": batched["events_processed"],
        },
        "batched_scaling": curve,
    }
    BENCH_OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print_result(capsys, json.dumps(doc, indent=2))

    # The tentpole floor: >= 10x end to end at >= 1e5 accesses.
    assert speedup >= 10.0, doc
    # A million accesses must complete, and throughput must hold up:
    # the 1e6 run's per-access wall may not blow up relative to the 1e5
    # run (it is denser, not slower per access).  Measured ratio is
    # ~1.2-1.3x (absorb amortizes better, list/GC overhead grows a
    # little); 2.5x is the honest floor that still fails on a real
    # complexity regression without tripping on scheduler noise.
    million = curve[-1]
    assert million["accesses"] >= 1_000_000, doc
    assert million["us_per_access"] <= 2.5 * batched["us_per_access"], doc
    # The mechanism: the batched runs retire ~1e2 heap events, not ~1e6.
    assert batched["events_processed"] < event["events_processed"] / 100, doc
