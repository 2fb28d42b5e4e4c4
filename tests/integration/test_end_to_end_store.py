"""Integration tests: the full simulated system, end to end.

These run the event simulator with live coordinate gossip, the
replicated store, realistic workloads and periodic placement epochs —
the deployment story the paper tells, not just the batch evaluation.
"""

import numpy as np
import pytest

from repro.core import ControllerConfig, MigrationPolicy
from repro.net import GeoTopology, PlanetLabParams, synthetic_planetlab_matrix
from repro.coords import EuclideanSpace, embed_matrix
from repro.sim import Network, Simulator
from repro.sim.gossip import CoordinateGossip
from repro.store import (
    BatchedAccessWorkload,
    ConsistencyConfig,
    ReplicatedStore,
)
from repro.workloads import ClientPopulation, FlashCrowd, RegionalShift


def build_world(seed=0, n=60):
    params = PlanetLabParams(n=n)
    matrix, topology = synthetic_planetlab_matrix(params, seed=seed)
    result = embed_matrix(matrix, system="rnp", rounds=80,
                          rng=np.random.default_rng(seed + 1))
    planar = result.coords[:, :result.space.dim]
    return matrix, topology, planar


class TestGradualMigrationChasesDemand:
    def test_controller_reduces_read_delay_over_time(self):
        matrix, topology, planar = build_world(seed=4)
        sim = Simulator(seed=4)
        candidates = tuple(range(12))
        store = ReplicatedStore(sim, matrix, candidates, planar,
                                selection="oracle")
        # Start the replica at the candidate *worst* for the clients.
        clients = tuple(range(12, 60))
        block = matrix.rows(clients, candidates)
        worst = candidates[int(np.argmax(block.mean(axis=0)))]
        store.create_object(
            "obj", initial_sites=[worst],
            controller_config=ControllerConfig(k=1, max_micro_clusters=10,
                                               radius_floor=5.0),
            policy=MigrationPolicy(min_relative_gain=0.02,
                                   min_absolute_gain_ms=0.5),
            epoch_period_ms=10_000.0,
        )
        population = ClientPopulation.uniform(clients)
        BatchedAccessWorkload(store, population, ["obj"],
                              rate_per_second=200.0)
        sim.run_until(60_000.0)

        early = store.log.mean_delay(kind="read", since=0.0) \
            if len(store.log) else None
        first_10s = np.mean([r.delay_ms for r in store.log.records
                             if r.time < 10_000.0])
        last_10s = np.mean([r.delay_ms for r in store.log.records
                            if r.time >= 50_000.0])
        assert early is not None
        # After epochs the replica has migrated toward the population.
        assert last_10s < first_10s * 0.8
        reports = store.epoch_reports("obj")
        assert any(r.migrated for r in reports)

    def test_migration_stabilizes(self):
        # Once placed well, later epochs should stop migrating
        # (the paper's threshold prevents oscillation).
        matrix, topology, planar = build_world(seed=5)
        sim = Simulator(seed=5)
        candidates = tuple(range(10))
        store = ReplicatedStore(sim, matrix, candidates, planar,
                                selection="oracle")
        store.create_object(
            "obj", k=2,
            controller_config=ControllerConfig(k=2, max_micro_clusters=10),
            policy=MigrationPolicy(min_relative_gain=0.05,
                                   min_absolute_gain_ms=1.0),
            epoch_period_ms=8_000.0,
        )
        population = ClientPopulation.uniform(tuple(range(10, 60)))
        BatchedAccessWorkload(store, population, ["obj"],
                              rate_per_second=150.0)
        sim.run_until(100_000.0)
        reports = store.epoch_reports("obj")
        assert len(reports) >= 10
        # The tail of the run must be quiet.
        assert not any(r.migrated for r in reports[-4:])


class TestRegionalShiftScenario:
    def test_replicas_follow_moving_population(self):
        matrix, topology, planar = build_world(seed=7)
        sim = Simulator(seed=7)
        candidates = tuple(range(12))
        store = ReplicatedStore(sim, matrix, candidates, planar,
                                selection="oracle")
        store.create_object(
            "obj", k=2,
            controller_config=ControllerConfig(k=2, max_micro_clusters=12),
            policy=MigrationPolicy(min_relative_gain=0.03,
                                   min_absolute_gain_ms=0.5),
            epoch_period_ms=15_000.0,
        )
        clients = tuple(range(12, 60))
        regions = sorted({topology.region_name(c) for c in clients})
        assert len(regions) >= 2
        shift = RegionalShift(topology, regions[0], regions[1],
                              start_ms=30_000.0, end_ms=90_000.0,
                              intensity=20.0)
        population = ClientPopulation.uniform(clients)
        BatchedAccessWorkload(store, population, ["obj"],
                              rate_per_second=150.0, pattern=shift)
        sim.run_until(150_000.0)
        reports = store.epoch_reports("obj")
        migrations = [r for r in reports if r.migrated]
        # The moving population must trigger at least one chase.
        assert migrations
        assert len(store.log) > 1000


class TestAdaptiveReplication:
    def test_flash_crowd_grows_k_then_shrinks(self):
        matrix, topology, planar = build_world(seed=9)
        sim = Simulator(seed=9)
        candidates = tuple(range(10))
        store = ReplicatedStore(sim, matrix, candidates, planar,
                                selection="oracle")
        store.create_object(
            "obj", k=1,
            controller_config=ControllerConfig(
                k=1, max_micro_clusters=10, adaptive_k=True,
                k_min=1, k_max=4, demand_low=1_200, demand_high=1_500),
            policy=MigrationPolicy(min_relative_gain=0.0,
                                   min_absolute_gain_ms=0.0),
            epoch_period_ms=10_000.0,
        )
        clients = tuple(range(10, 60))
        crowd = FlashCrowd(clients[:20], start_ms=20_000.0,
                           duration_ms=40_000.0, multiplier=30.0)
        population = ClientPopulation.uniform(clients)
        workload = BatchedAccessWorkload(
            store, population, ["obj"], rate_per_second=100.0, pattern=crowd)

        # Manually modulate the aggregate rate: during the crowd, issue
        # extra operations so total demand crosses the high watermark.
        burst = BatchedAccessWorkload(
            store, ClientPopulation.uniform(clients[:20]), ["obj"],
            rate_per_second=300.0)
        burst.stop()

        def maybe_burst():
            if 20_000.0 <= sim.now < 60_000.0:
                for c in clients[:10]:
                    store.clients[c].read("obj")

        from repro.sim import PeriodicProcess
        PeriodicProcess(sim, 50.0, maybe_burst)
        sim.run_until(120_000.0)
        ks = [r.k for r in store.epoch_reports("obj")]
        assert max(ks) > 1          # grew under demand
        assert ks[-1] < max(ks)     # shrank after the crowd passed
        assert workload.operations_issued > 0


class TestQuorumTradeoff:
    def run_with_quorum(self, read_quorum):
        matrix, topology, planar = build_world(seed=11)
        sim = Simulator(seed=11)
        store = ReplicatedStore(
            sim, matrix, tuple(range(8)), planar, selection="oracle",
            consistency=ConsistencyConfig(read_quorum=read_quorum,
                                          propagate_updates=False))
        store.create_object("obj", initial_sites=[0, 3, 6])
        population = ClientPopulation.uniform(tuple(range(8, 60)))
        BatchedAccessWorkload(store, population, ["obj"],
                              rate_per_second=300.0, write_fraction=0.2)
        sim.run_until(30_000.0)
        return store.log

    def test_larger_quorum_fresher_but_slower(self):
        log1 = self.run_with_quorum(1)
        log3 = self.run_with_quorum(3)
        # Quorum 3 reads wait for the slowest of three replicas.
        assert log3.mean_delay(kind="read") > log1.mean_delay(kind="read")
        # But they see every write (max version across all replicas).
        assert log3.stale_fraction() <= log1.stale_fraction()
        assert log3.stale_fraction() == 0.0


class TestLiveGossipIntegration:
    def test_store_routes_with_live_coordinates(self):
        matrix, topology, _ = build_world(seed=13)
        sim = Simulator(seed=13)
        network_gossip = Network(sim, matrix)
        gossip = CoordinateGossip(network_gossip, system="rnp",
                                  period=250.0)
        # Let coordinates warm up before the store starts routing.
        sim.run_until(30_000.0)
        store = ReplicatedStore(sim, matrix, tuple(range(8)), gossip,
                                selection="coords")
        store.create_object("obj", initial_sites=[0, 4])
        population = ClientPopulation.uniform(tuple(range(8, 60)))
        BatchedAccessWorkload(store, population, ["obj"],
                              rate_per_second=100.0)
        sim.run_until(60_000.0)
        assert len(store.log) > 1000
        # Coordinate routing should be close to oracle routing quality:
        # compare against the per-read oracle delay.
        oracle = np.array([
            min(matrix.latency(r.client, s)
                for s in store.installed_sites("obj"))
            for r in store.log.records
        ])
        measured = store.log.delays()
        # Mean penalty of trusting coordinates stays small.
        assert measured.mean() <= oracle.mean() * 1.35
