"""Tail latency under a hotspot: queue-aware selection vs ``nearest``.

The scenario the queueing extension exists for: client mass piles up
around one replica site, and every ``nearest`` read funnels into that
server's FIFO queue while its siblings idle.  With deterministic 2 ms
service the hot server's capacity is 500 req/s; at 900 req/s offered,
``nearest`` drives it far past saturation and the backlog — hence the
p999 read delay — grows without bound for the whole run.
``least-pending`` needs no server-side information to fix this: each
client's own outstanding-request counts push overflow reads to the
farther replicas, trading a bounded RTT penalty for an unbounded
queueing one.

``BENCH_tail.json`` records both strategies' delay quantiles and queue
stats.  The acceptance floor is deliberately loose (p999 ratio <= 0.7)
against run-to-run drift; the measured ratio is typically far smaller
because the ``nearest`` tail scales with the horizon.

Both runs escalate every arrival to the per-event path (an active
server queue does), so the comparison is exact simulation.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import (
    BatchedAccessWorkload,
    DeterministicService,
    QueueingConfig,
    ReplicatedStore,
)
from repro.workloads import ClientPopulation

from conftest import print_result

BENCH_OUT = pathlib.Path(__file__).parent / "BENCH_tail.json"

N_DC = 6
N_CLIENTS = 30
SEED = 5
SERVICE_MS = 2.0
RATE_PER_SECOND = 900.0
HORIZON_MS = 30_000.0
REPLICA_SITES = (0, 2, 4)


def _world():
    """Candidates on a ring, clients clustered around candidate 0."""
    rng = np.random.default_rng(SEED + 999)
    angles = np.linspace(0.0, 2 * np.pi, N_DC, endpoint=False)
    dc_coords = np.column_stack([np.cos(angles), np.sin(angles)]) * 100.0
    client_coords = dc_coords[0] + rng.normal(size=(N_CLIENTS, 2)) * 15.0
    coords = np.vstack([dc_coords, client_coords])
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    return LatencyMatrix((rtt + rtt.T) / 2), coords


def _run_once(strategy):
    matrix, coords = _world()
    sim = Simulator(seed=SEED)
    store = ReplicatedStore(
        sim, matrix, list(range(N_DC)), coords, selection="oracle",
        queueing=QueueingConfig(DeterministicService(SERVICE_MS)),
        strategy=strategy)
    store.create_object("obj", size_gb=0.5, k=3,
                        initial_sites=list(REPLICA_SITES))
    clients = list(range(N_DC, N_DC + N_CLIENTS))
    population = ClientPopulation.hotspot(clients, matrix, anchor=0,
                                          exponent=2.0)
    workload = BatchedAccessWorkload(store, population, ["obj"],
                                     rate_per_second=RATE_PER_SECOND)

    start = time.perf_counter()
    sim.run_until(HORIZON_MS)
    wall_s = time.perf_counter() - start

    quantiles = store.log.tail_quantiles("read")
    per_server = {
        site: store.servers[site].queue.accepted
        for site in REPLICA_SITES
    }
    return {
        "strategy": strategy,
        "reads_issued": workload.operations_issued,
        "reads_completed": len(store.log),
        "mean_delay_ms": round(float(store.log.delays("read").mean()), 3),
        "p50_ms": round(quantiles["p50"], 3),
        "p99_ms": round(quantiles["p99"], 3),
        "p999_ms": round(quantiles["p999"], 3),
        "queue_stats": store.queue_stats(),
        "accepted_per_replica": per_server,
        "wall_s": round(wall_s, 3),
    }


@pytest.mark.bench
def test_tail_latency_hotspot(capsys):
    nearest = _run_once("nearest")
    least_pending = _run_once("least-pending")
    ratio = least_pending["p999_ms"] / nearest["p999_ms"]

    doc = {
        "benchmark": "tail-latency-hotspot",
        "setting": {"n_dc": N_DC, "n_clients": N_CLIENTS, "k": 3,
                    "seed": SEED, "service_ms": SERVICE_MS,
                    "rate_per_second": RATE_PER_SECOND,
                    "horizon_ms": HORIZON_MS,
                    "replica_sites": list(REPLICA_SITES),
                    "workload": "hotspot(anchor=0, exponent=2) read-only"},
        "nearest": nearest,
        "least_pending": least_pending,
        "p999_ratio": round(ratio, 4),
    }
    BENCH_OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print_result(capsys, json.dumps(doc, indent=2))

    # Both arms draw the identical arrival stream.
    assert nearest["reads_issued"] == least_pending["reads_issued"]
    # The hot server is genuinely saturated under nearest: it absorbed
    # the overwhelming majority of admissions...
    hot = nearest["accepted_per_replica"][0]
    assert hot > 0.9 * nearest["queue_stats"]["accepted"]
    # ...while least-pending actually spread the load.
    spread = least_pending["accepted_per_replica"]
    assert min(spread.values()) > 0.1 * max(spread.values())
    # The acceptance floor: queue-aware selection collapses the p999
    # tail to at most 70% of nearest's.
    assert ratio <= 0.7, doc
