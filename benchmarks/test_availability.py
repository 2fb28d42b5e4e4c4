"""Availability extension — failures, retries and re-replication.

The paper defers data availability to future work; this bench exercises
the extension built for it.  A replicated object serves a steady read
workload while data-center nodes crash and recover randomly
(exponential MTBF/MTTR).  Three configurations are compared:

* ``fragile``   — no client retries, no repair: reads to dead replicas
  are simply lost;
* ``retries``   — client-side failover to the next replica (the paper's
  "access a second replica" scenario);
* ``self-heal`` — retries plus the availability monitor re-replicating
  lost redundancy from surviving copies.

Reported: completed-read fraction, mean read delay, repairs performed.

The benchmark timing measures one availability sweep of the monitor.
"""

import numpy as np
import pytest

from repro.analysis import draw_candidates
from repro.coords import embed_matrix
from repro.core import ControllerConfig
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.sim import FailureInjector, Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation

from conftest import print_result

RUN_MS = 120_000.0


def run_config(name: str, read_timeout_ms, auto_repair: bool):
    matrix, _ = synthetic_planetlab_matrix(PlanetLabParams(n=70), seed=17)
    planar = embed_matrix(matrix, system="rnp", rounds=80,
                          rng=np.random.default_rng(18)).coords[:, :3]
    sim = Simulator(seed=17)
    candidates, clients = draw_candidates(matrix, 12,
                                          np.random.default_rng(19))
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle",
                            read_timeout_ms=read_timeout_ms,
                            max_read_attempts=3,
                            auto_repair=auto_repair,
                            repair_period_ms=2_000.0)
    store.create_object(
        "obj", k=3,
        controller_config=ControllerConfig(k=3, max_micro_clusters=10))
    injector = FailureInjector(store.network)
    injector.random_failures(candidates, mtbf_ms=30_000.0,
                             mttr_ms=15_000.0, until=RUN_MS,
                             rng=np.random.default_rng(20))
    workload = BatchedAccessWorkload(
        store, ClientPopulation.uniform(clients), ["obj"],
        rate_per_second=150.0)
    sim.run_until(RUN_MS + 5_000.0)

    reads = [r for r in store.log.records if r.kind == "read"]
    issued = workload.operations_issued
    return {
        "name": name,
        "issued": issued,
        "completed": len(reads),
        "completion": len(reads) / issued,
        "mean_delay": float(np.mean([r.delay_ms for r in reads])),
        "repairs": store.repairs,
        "crashes": len(injector.crashes()),
    }


@pytest.fixture(scope="module")
def configs():
    return [
        run_config("fragile", read_timeout_ms=None, auto_repair=False),
        run_config("retries", read_timeout_ms=600.0, auto_repair=False),
        run_config("self-heal", read_timeout_ms=600.0, auto_repair=True),
    ]


def test_availability_table(configs, capsys, benchmark):
    lines = ["Availability under random crash/repair (3 replicas, 12 DCs)",
             f"{'config':>10} | {'completed':>14} | {'mean delay':>10} | "
             f"{'repairs':>7} | {'crashes':>7}"]
    for row in configs:
        lines.append(
            f"{row['name']:>10} | {row['completed']:>6}/{row['issued']:<6} "
            f"({row['completion']:>4.0%}) | {row['mean_delay']:>7.1f} ms | "
            f"{row['repairs']:>7} | {row['crashes']:>7}")
    print_result(capsys, benchmark(lambda: "\n".join(lines)))
    fragile, retries, heal = configs
    assert heal["completion"] >= retries["completion"] >= fragile["completion"]


def test_failures_actually_happened(configs):
    assert all(row["crashes"] >= 3 for row in configs)


def test_retries_recover_most_reads(configs):
    fragile, retries, _ = configs
    assert fragile["completion"] < 0.995   # failures visibly hurt
    assert retries["completion"] > fragile["completion"]


def test_self_heal_repairs_and_nearly_full_availability(configs):
    heal = configs[2]
    assert heal["repairs"] >= 1
    assert heal["completion"] > 0.98


def test_monitor_sweep_kernel(benchmark):
    matrix, _ = synthetic_planetlab_matrix(PlanetLabParams(n=40), seed=2)
    planar = np.zeros((40, 3))
    sim = Simulator(seed=2)
    store = ReplicatedStore(sim, matrix, tuple(range(10)), planar,
                            auto_repair=True)
    for i in range(20):
        store.create_object(f"obj-{i}", k=3,
                            controller_config=ControllerConfig(k=3))
    benchmark(store._check_availability)
