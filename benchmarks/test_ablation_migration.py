"""Ablation — the migration threshold (Section III-C policy).

The paper migrates only when the latency gain clears a threshold,
trading access delay against migration (transfer) cost.  This bench
runs the full simulated store under a regional demand shift for a range
of thresholds and reports both sides of the trade: mean read delay over
the run and the number of migrations (≈ dollars at $0.1/GB).

The benchmark timing measures one placement epoch of the controller.
"""

import numpy as np
import pytest

from repro.analysis import draw_candidates
from repro.coords import embed_matrix
from repro.core import ControllerConfig, MigrationPolicy, ReplicationController
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation, RegionalShift

from conftest import print_result

THRESHOLDS = (0.0, 0.02, 0.05, 0.20, 0.50)


def run_scenario(threshold: float):
    params = PlanetLabParams(n=80)
    matrix, topology = synthetic_planetlab_matrix(params, seed=3)
    result = embed_matrix(matrix, system="rnp", rounds=80,
                          rng=np.random.default_rng(4))
    planar = result.coords[:, :result.space.dim]
    sim = Simulator(seed=3)
    candidates, _ = draw_candidates(matrix, 15, np.random.default_rng(5))
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle")
    store.create_object(
        "obj", k=2,
        controller_config=ControllerConfig(k=2, max_micro_clusters=10),
        policy=MigrationPolicy(min_relative_gain=threshold,
                               min_absolute_gain_ms=0.0),
        epoch_period_ms=10_000.0,
    )
    clients = tuple(i for i in range(80) if i not in set(candidates))
    regions = sorted({topology.region_name(c) for c in clients})
    pattern = RegionalShift(topology, regions[0], regions[-1],
                            start_ms=30_000.0, end_ms=90_000.0,
                            intensity=15.0)
    BatchedAccessWorkload(store, ClientPopulation.uniform(clients), ["obj"],
                          rate_per_second=100.0, pattern=pattern)
    sim.run_until(120_000.0)
    reports = store.epoch_reports("obj")
    return {
        "delay": store.log.mean_delay(kind="read"),
        "migrations": sum(1 for r in reports if r.migrated),
        "dollars": store.controller("obj").tally.migration_dollars,
    }


@pytest.fixture(scope="module")
def sweep():
    return {t: run_scenario(t) for t in THRESHOLDS}


def test_migration_threshold_table(sweep, capsys, benchmark):
    lines = ["Migration-threshold ablation — regional demand shift, k=2",
             f"{'threshold':>10} | {'mean read delay':>16} | "
             f"{'migrations':>10} | {'cost ($)':>9}"]
    for t, row in sweep.items():
        lines.append(f"{t:>10.2f} | {row['delay']:>13.1f} ms | "
                     f"{row['migrations']:>10d} | {row['dollars']:>9.2f}")
    print_result(capsys, benchmark(lambda: "\n".join(lines)))
    migrations = [sweep[t]["migrations"] for t in THRESHOLDS]
    for a, b in zip(migrations, migrations[1:]):
        assert a >= b


def test_lower_thresholds_migrate_at_least_as_often(sweep):
    migrations = [sweep[t]["migrations"] for t in THRESHOLDS]
    for a, b in zip(migrations, migrations[1:]):
        assert a >= b


def test_chasing_demand_beats_never_migrating(sweep):
    # An infinite threshold is "place once, never move"; 0.5 is close.
    assert sweep[0.0]["delay"] <= sweep[0.50]["delay"] * 1.02


def test_moderate_threshold_near_best_delay_at_lower_cost(sweep):
    # The paper's operating point: most of the latency win, fewer moves.
    best_delay = min(row["delay"] for row in sweep.values())
    moderate = sweep[0.05]
    assert moderate["delay"] <= best_delay * 1.15
    assert moderate["migrations"] <= sweep[0.0]["migrations"]


def test_epoch_kernel(benchmark):
    rng = np.random.default_rng(0)
    dc_coords = rng.uniform(-100, 100, size=(20, 3))
    controller = ReplicationController(
        dc_coords, [0, 1, 2],
        config=ControllerConfig(k=3, max_micro_clusters=10))
    points = rng.normal(0, 60, size=(512, 3))

    def one_epoch():
        for site in controller.sites:
            controller.record_batch(site, points[:128])
        controller.run_epoch(np.random.default_rng(1))

    benchmark(one_epoch)
