"""Batched-engine throughput under a dense correlated-fault schedule.

Chaos runs used to be the batched engine's worst case: every crash and
recovery is a barrier, and with a fault every few seconds the bulk
windows shrink until the engine degenerates to oracle speed — while
re-deriving every route from scratch in each window.  The engine's
per-unit tables in :mod:`repro.store.batched` (keyed on each unit's
version and the network's fault epoch) keep routes alive between
consecutive windows whose state did not change, so a dense
correlated-outage schedule no longer collapses the speedup.

The schedule here cycles a two-node rack outage (crash + recovery)
every 3 simulated seconds for the whole run — a fault density far
beyond any bundled scenario — on a 64-node world at ~1e5 client
accesses.  ``BENCH_chaos.json`` records the wall clock of the production
driver (``"batched"``) and of the per-event test oracle of
``repro.workloads._reference`` (``"event"``), the events each retired,
and the barrier count (``barriers_fired``) that measures how chopped-up
the run was for bulk processing.

Every batched configuration here is an instance of the family the
differential suite (``tests/integration/test_engine_equivalence.py``
and ``tests/integration/test_availability_chaos.py``) proves bitwise
identical to the per-event oracle, so the speedup is not bought with
accuracy.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.net.domains import FailureDomains
from repro.sim import FailureInjector, Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation
from repro.workloads._reference import AccessWorkload

from conftest import print_result

BENCH_OUT = pathlib.Path(__file__).parent / "BENCH_chaos.json"

N_NODES = 64
N_DC = 12
SEED = 7
RATE_PER_SECOND = 2_000
HORIZON_MS = 52_000.0
FAULT_PERIOD_MS = 3_000.0
OUTAGE_MS = 1_500.0


def _world():
    rng = np.random.default_rng(1234)
    coords = rng.uniform(0, 100, size=(N_NODES, 2))
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(rtt, 0.0)
    return LatencyMatrix((rtt + rtt.T) / 2), coords


def _run_once(engine):
    matrix, coords = _world()
    candidates = list(range(N_DC))
    domains = FailureDomains.contiguous(N_DC, regions=2, dcs_per_region=3,
                                        racks_per_dc=1, p_rack=0.05)
    sim = Simulator(seed=SEED)
    store = ReplicatedStore(sim, matrix, candidates, coords,
                            selection="oracle", domains=domains)
    store.create_object("obj", size_gb=0.5, k=3)
    population = ClientPopulation.uniform(list(range(N_DC, N_NODES)))
    workload_cls = (BatchedAccessWorkload if engine == "batched"
                    else AccessWorkload)
    workload = workload_cls(store, population, ["obj"],
                            rate_per_second=RATE_PER_SECOND)

    # Dense correlated outages: one rack (two candidates) blinks out
    # every FAULT_PERIOD_MS for the entire run, rack choice rotating so
    # replica holders are hit regularly.
    injector = FailureInjector(store.network)
    n_racks = N_DC // 2
    at = FAULT_PERIOD_MS
    cycle = 0
    while at < HORIZON_MS:
        rack = cycle % n_racks
        for member in (2 * rack, 2 * rack + 1):
            injector.crash_at(at, candidates[member])
            injector.recover_at(at + OUTAGE_MS, candidates[member])
        at += FAULT_PERIOD_MS
        cycle += 1

    start = time.perf_counter()
    sim.run_until(HORIZON_MS)
    wall_s = time.perf_counter() - start
    return {
        "engine": engine,
        "accesses": workload.operations_issued,
        "faults_injected": 2 * cycle,
        "wall_s": round(wall_s, 3),
        "us_per_access": round(wall_s / workload.operations_issued * 1e6, 2),
        "events_processed": sim.events_processed,
        "barriers_fired": sim.queue.barriers_fired,
    }


def _run(engine, repeats=2):
    # Best-of-N: single samples on a shared machine swing by +-50%; the
    # minimum is the least-noisy estimator of the code's true cost.
    runs = [_run_once(engine) for _ in range(repeats)]
    return min(runs, key=lambda r: r["wall_s"])


@pytest.mark.bench
def test_chaos_throughput(capsys):
    event = _run("event")
    batched = _run("batched")
    assert event["accesses"] == batched["accesses"] >= 100_000
    speedup = event["wall_s"] / batched["wall_s"]

    doc = {
        "benchmark": "chaos-throughput",
        "setting": {"n_nodes": N_NODES, "n_dc": N_DC, "k": 3, "seed": SEED,
                    "rate_per_second": RATE_PER_SECOND,
                    "horizon_ms": HORIZON_MS,
                    "fault_period_ms": FAULT_PERIOD_MS,
                    "outage_ms": OUTAGE_MS,
                    "workload": "uniform read-only + cycling rack outages"},
        "event": event,
        "batched": batched,
        "speedup": round(speedup, 2),
    }
    BENCH_OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print_result(capsys, json.dumps(doc, indent=2))

    # Conservative floor: even with a fault barrier every 1.5 simulated
    # seconds the batched engine must stay well clear of oracle speed.
    assert speedup >= 3.0, doc
