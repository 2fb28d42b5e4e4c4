"""Object groups: placing many objects as one virtual object.

Section II-A: a placement solution "can be applied to a group of data
objects by treating accesses to any object of the group as accesses to
a virtual object that represents all the objects of the group."

This example shows why grouping matters.  A photo service stores 30
small albums, all accessed by the same (European) audience.  Two
configurations run the same workload:

* ``per-object``  — every album is placed independently: 30 controllers,
  30 summary streams, 30 migration decisions;
* ``grouped``     — one group ("the European albums") placed as a single
  virtual object: one controller, one summary stream, one migration.

Quality ends up the same — the audience is shared, so the right sites
are the same — but the grouped configuration reaches it with a fraction
of the control traffic and migrations.

Run:  python examples/object_groups.py
"""

import numpy as np

from repro.analysis import draw_candidates
from repro.coords import embed_matrix
from repro.core import ControllerConfig, MigrationPolicy
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation

N_NODES = 80
N_ALBUMS = 30
RUN_MS = 120_000.0
ALBUMS = [f"album-{i:02d}" for i in range(N_ALBUMS)]


def build_world():
    matrix, topology = synthetic_planetlab_matrix(
        PlanetLabParams(n=N_NODES), seed=41)
    planar = embed_matrix(matrix, system="rnp", rounds=100,
                          rng=np.random.default_rng(42)).coords[:, :3]
    candidates, clients = draw_candidates(matrix, 12,
                                          np.random.default_rng(43))
    population = ClientPopulation.region_weighted(
        clients, topology, {"eu-west": 8.0, "eu-central": 8.0},
        default_weight=1.0)
    return matrix, planar, candidates, population


def run(grouped: bool):
    matrix, planar, candidates, population = build_world()
    sim = Simulator(seed=41)
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle")
    config = ControllerConfig(k=2, max_micro_clusters=10)
    policy = MigrationPolicy(min_relative_gain=0.05)
    if grouped:
        store.create_group("eu-albums", {key: 0.2 for key in ALBUMS},
                           k=2, controller_config=config, policy=policy,
                           epoch_period_ms=20_000.0)
    else:
        for key in ALBUMS:
            store.create_object(key, size_gb=0.2, k=2,
                                controller_config=config, policy=policy,
                                epoch_period_ms=20_000.0)
    BatchedAccessWorkload(store, population, ALBUMS, rate_per_second=300.0)
    sim.run_until(RUN_MS)

    unit_keys = ["eu-albums"] if grouped else ALBUMS
    migrations = sum(
        sum(1 for r in store.epoch_reports(k) if r.migrated)
        for k in unit_keys)
    summary_kb = sum(store.controller(k).tally.summary_bytes
                     for k in unit_keys) / 1024
    last_30s = [r.delay_ms for r in store.log.records
                if r.time > RUN_MS - 30_000.0]
    return {
        "mode": "grouped" if grouped else "per-object",
        "reads": len(store.log),
        "final_delay": float(np.mean(last_30s)),
        "migrations": migrations,
        "summary_kb": summary_kb,
    }


def main() -> None:
    rows = [run(grouped=False), run(grouped=True)]
    print(f"{N_ALBUMS} albums, one shared European audience, "
          f"identical workloads\n")
    print(f"{'mode':>12} | {'reads':>6} | {'final delay':>11} | "
          f"{'migrations':>10} | {'summary KB':>10}")
    print("-" * 62)
    for row in rows:
        print(f"{row['mode']:>12} | {row['reads']:>6} | "
              f"{row['final_delay']:>8.1f} ms | {row['migrations']:>10} | "
              f"{row['summary_kb']:>10.1f}")
    per, grp = rows
    print()
    print(f"Grouping cut control-plane summary traffic "
          f"{per['summary_kb'] / max(grp['summary_kb'], 0.1):.0f}x and "
          f"migrations {per['migrations']}->{grp['migrations']}")
    print(f"while final delay stayed comparable "
          f"({per['final_delay']:.1f} vs {grp['final_delay']:.1f} ms).")


if __name__ == "__main__":
    main()
