"""Geo-distributed content service: the paper's motivating scenario.

A content service stores several objects of different popularity
(Zipf-distributed) in a replicated store spanning 12 data centers.
Its audience is concentrated in Europe.  Each object starts at random
sites — the uninformed placement the paper says real systems use — and
the per-object placement controllers gradually migrate replicas using
micro-cluster summaries.

The script reports, per object, the mean read delay before the first
migration epoch and at steady state, plus the control-plane overhead
(summary bytes shipped — the O(k·m) cost the paper advertises).

Run:  python examples/geo_cdn.py
"""

import numpy as np

from repro.coords import embed_matrix
from repro.core import ControllerConfig, MigrationPolicy
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation, ZipfObjectPopularity

N_NODES = 100
N_DATACENTERS = 12
OBJECTS = [f"video-{i}" for i in range(5)]
EPOCH_MS = 20_000.0
RUN_MS = 160_000.0


def main() -> None:
    matrix, topology = synthetic_planetlab_matrix(
        PlanetLabParams(n=N_NODES), seed=21)
    embedding = embed_matrix(matrix, system="rnp", rounds=100,
                             rng=np.random.default_rng(22))
    planar = embedding.coords[:, :embedding.space.dim]

    sim = Simulator(seed=21)
    candidates = tuple(range(N_DATACENTERS))
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle")

    for key in OBJECTS:
        store.create_object(
            key, size_gb=2.0, k=3,
            controller_config=ControllerConfig(k=3, max_micro_clusters=10),
            policy=MigrationPolicy(min_relative_gain=0.03,
                                   min_absolute_gain_ms=0.5),
            epoch_period_ms=EPOCH_MS,
        )

    # A European-heavy audience (the service's home market).
    clients = tuple(range(N_DATACENTERS, N_NODES))
    population = ClientPopulation.region_weighted(
        clients, topology,
        {"eu-west": 6.0, "eu-central": 6.0}, default_weight=1.0)
    popularity = ZipfObjectPopularity(OBJECTS, exponent=1.0)
    BatchedAccessWorkload(store, population, OBJECTS, rate_per_second=300.0,
                          popularity=popularity)

    sim.run_until(RUN_MS)

    print(f"{'object':>10} | {'reads':>6} | {'delay@start':>11} | "
          f"{'delay@end':>9} | {'migrations':>10} | {'summary KB':>10}")
    print("-" * 72)
    for key in OBJECTS:
        records = [r for r in store.log.records if r.key == key
                   and r.kind == "read"]
        early = [r.delay_ms for r in records if r.time < EPOCH_MS]
        late = [r.delay_ms for r in records if r.time > RUN_MS - 2 * EPOCH_MS]
        reports = store.epoch_reports(key)
        tally = store.controller(key).tally
        print(f"{key:>10} | {len(records):>6} | "
              f"{np.mean(early):>8.1f} ms | {np.mean(late):>6.1f} ms | "
              f"{sum(1 for r in reports if r.migrated):>10} | "
              f"{tally.summary_bytes / 1024:>10.1f}")

    total_reads = sum(1 for r in store.log.records if r.kind == "read")
    data_bytes = store.network.per_kind_bytes.get("read-rep", 0)
    control_bytes = store.network.per_kind_bytes.get("summary", 0)
    print()
    print(f"total reads: {total_reads}; placement control traffic: "
          f"{control_bytes / 1024:.1f} KB "
          f"({control_bytes / max(data_bytes, 1) * 100:.4f}% of data traffic)")


if __name__ == "__main__":
    main()
