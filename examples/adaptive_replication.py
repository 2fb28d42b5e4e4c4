"""Adaptive degree of replication under a flash crowd.

Section III-C: "this approach can also vary the number of replicas by
setting the parameter k — creating more replicas as the demand of an
object increases and discarding replicas as the demand decreases."

A single object serves a steady trickle of requests; at t = 60 s a
flash crowd multiplies demand 25× for one minute.  The adaptive
controller grows k toward ``k_max`` while the crowd lasts and sheds the
extra replicas afterwards.  The script prints one line per placement
epoch: demand, chosen k, replica sites and the migration verdict.

Run:  python examples/adaptive_replication.py
"""

import numpy as np

from repro.coords import embed_matrix
from repro.core import ControllerConfig, MigrationPolicy
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation, FlashCrowd

N_NODES = 80
N_DATACENTERS = 10
EPOCH_MS = 15_000.0


def main() -> None:
    matrix, topology = synthetic_planetlab_matrix(
        PlanetLabParams(n=N_NODES), seed=5)
    embedding = embed_matrix(matrix, system="rnp", rounds=100,
                             rng=np.random.default_rng(6))
    planar = embedding.coords[:, :embedding.space.dim]

    sim = Simulator(seed=5)
    store = ReplicatedStore(sim, matrix, tuple(range(N_DATACENTERS)),
                            planar, selection="oracle")
    store.create_object(
        "hot-object", k=1,
        controller_config=ControllerConfig(
            k=1, max_micro_clusters=10,
            adaptive_k=True, k_min=1, k_max=5,
            demand_low=2_000, demand_high=2_500),
        policy=MigrationPolicy(min_relative_gain=0.0,
                               min_absolute_gain_ms=0.0),
        epoch_period_ms=EPOCH_MS,
    )

    clients = tuple(range(N_DATACENTERS, N_NODES))
    crowd = FlashCrowd(clients, start_ms=60_000.0, duration_ms=60_000.0,
                       multiplier=25.0)
    population = ClientPopulation.uniform(clients)
    BatchedAccessWorkload(store, population, ["hot-object"],
                          rate_per_second=100.0, pattern=crowd)

    # The temporal pattern reweights *who* asks; model the rate surge by
    # adding a second workload only active during the crowd window.
    surge = BatchedAccessWorkload(store, population, ["hot-object"],
                                  rate_per_second=250.0)
    surge.stop()

    def surge_driver():
        if 60_000.0 <= sim.now < 120_000.0:
            for c in clients[::4]:
                store.clients[c].read("hot-object")

    from repro.sim import PeriodicProcess
    PeriodicProcess(sim, 100.0, surge_driver)

    sim.run_until(240_000.0)

    print(f"{'epoch t(s)':>10} | {'demand':>7} | {'k':>2} | "
          f"{'sites':>16} | verdict")
    print("-" * 64)
    for i, report in enumerate(store.epoch_reports("hot-object")):
        t = (i + 1) * EPOCH_MS / 1000.0
        sites = ",".join(str(s) for s in sorted(
            report.proposed_sites if report.migrated
            else report.previous_sites))
        print(f"{t:>10.0f} | {report.accesses:>7} | {report.k:>2} | "
              f"{sites:>16} | {report.verdict.reason}")

    ks = [r.k for r in store.epoch_reports("hot-object")]
    print()
    print(f"k grew to {max(ks)} during the crowd and settled at {ks[-1]} "
          "afterwards.")


if __name__ == "__main__":
    main()
