"""Failures, client failover and self-healing replication.

The paper's introduction notes that users within a latency budget "may
have time to access a second or more replicas if they cannot access the
first"; its conclusion defers data availability to future work.  This
example exercises both: data-center nodes crash and recover at random
while a read workload runs, under three configurations —

* no failure handling at all (reads to dead replicas are lost),
* client-side failover (retry the next-closest replica on timeout),
* failover plus the store's availability monitor, which re-replicates
  lost redundancy from surviving copies.

Run:  python examples/availability.py
"""

import numpy as np

from repro.analysis import draw_candidates
from repro.coords import embed_matrix
from repro.core import ControllerConfig
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.sim import FailureInjector, Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation

RUN_MS = 120_000.0


def run(name, read_timeout_ms, auto_repair):
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
    injector.random_failures(candidates, mtbf_ms=30_000.0, mttr_ms=15_000.0,
                             until=RUN_MS, rng=np.random.default_rng(20))
    workload = BatchedAccessWorkload(
        store, ClientPopulation.uniform(clients), ["obj"],
        rate_per_second=150.0)
    sim.run_until(RUN_MS + 5_000.0)
    reads = [r for r in store.log.records if r.kind == "read"]
    return {
        "name": name,
        "issued": workload.operations_issued,
        "done": len(reads),
        "delay": float(np.mean([r.delay_ms for r in reads])),
        "repairs": store.repairs,
        "crashes": len(injector.crashes()),
    }


def main() -> None:
    rows = [
        run("no handling", read_timeout_ms=None, auto_repair=False),
        run("client retries", read_timeout_ms=600.0, auto_repair=False),
        run("retries + self-heal", read_timeout_ms=600.0, auto_repair=True),
    ]
    print(f"(injected {rows[0]['crashes']} crashes over "
          f"{RUN_MS / 1000:.0f} s; 3 replicas on 12 data centers)\n")
    print(f"{'configuration':>20} | {'reads completed':>15} | "
          f"{'mean delay':>10} | {'repairs':>7}")
    print("-" * 64)
    for row in rows:
        print(f"{row['name']:>20} | {row['done']:>6}/{row['issued']:<6} "
              f"{row['done'] / row['issued']:>4.0%} | {row['delay']:>7.1f} ms"
              f" | {row['repairs']:>7}")
    print()
    print("Retries recover lost reads at a latency cost (timeout + second")
    print("round-trip); self-healing restores both availability and speed.")


if __name__ == "__main__":
    main()
