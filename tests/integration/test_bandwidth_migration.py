"""Integration: bandwidth-limited transfers and byte-weighted placement."""

import numpy as np
import pytest

from repro.coords import EuclideanSpace, embed_matrix
from repro.core import ControllerConfig, MigrationPolicy
from repro.net import UniformBandwidth
from repro.net.planetlab import small_matrix
from repro.sim import Simulator
from repro.store import ReplicatedStore


def build(bandwidth=None, size_gb=1.0):
    matrix = small_matrix(n=20, seed=9)
    coords = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(3)).coords
    sim = Simulator(seed=9)
    store = ReplicatedStore(sim, matrix, tuple(range(5)), coords,
                            selection="oracle", bandwidth=bandwidth)
    store.create_object(
        "obj", size_gb=size_gb, initial_sites=[4],
        controller_config=ControllerConfig(k=1, max_micro_clusters=8,
                                           radius_floor=2.0),
        policy=MigrationPolicy(min_relative_gain=0.01,
                               min_absolute_gain_ms=0.1),
    )
    return sim, matrix, store


class TestBandwidthLimitedMigration:
    def drive_and_migrate(self, store, sim):
        clients = [store.add_client(i) for i in range(10, 16)]
        for _ in range(20):
            for c in clients:
                c.read("obj")
        sim.run()
        report = store.run_epoch("obj")
        return report

    def test_migration_takes_transfer_time_under_bandwidth(self):
        # 1 GB at 1 Gbps ~ 8.6 seconds of serialization.
        sim, matrix, store = build(bandwidth=UniformBandwidth(mbps=1000.0),
                                   size_gb=1.0)
        report = self.drive_and_migrate(store, sim)
        if not report.migrated:
            pytest.skip("no migration proposed for this seed")
        migrated_at = sim.now
        # Immediately after the epoch the transfer is still in flight.
        assert store._units["obj"].awaiting
        sim.run_until(migrated_at + 2_000.0)
        assert store._units["obj"].awaiting      # 2 s < 8.6 s: still moving
        sim.run_until(migrated_at + 15_000.0)
        assert not store._units["obj"].awaiting  # transfer completed

    def test_latency_only_migration_is_fast(self):
        sim, matrix, store = build(bandwidth=None, size_gb=1.0)
        report = self.drive_and_migrate(store, sim)
        if not report.migrated:
            pytest.skip("no migration proposed for this seed")
        sim.run_until(sim.now + 1_000.0)
        assert not store._units["obj"].awaiting

    def test_reads_served_by_old_replica_during_transfer(self):
        sim, matrix, store = build(bandwidth=UniformBandwidth(mbps=1000.0))
        report = self.drive_and_migrate(store, sim)
        if not report.migrated:
            pytest.skip("no migration proposed for this seed")
        before = len(store.log)
        client = store.clients[10]
        client.read("obj")
        sim.run_until(sim.now + 1_000.0)
        assert len(store.log) == before + 1  # served despite the transfer


class TestByteWeightedPlacement:
    def test_heavy_byte_clients_dominate_placement(self):
        # Two client groups with equal access counts; one exchanges 100x
        # the bytes.  With byte weighting, placement follows the bytes.
        matrix = small_matrix(n=20, seed=11)
        coords = np.zeros((20, 2))
        coords[0] = [0.0, 0.0]       # candidate A
        coords[1] = [100.0, 0.0]     # candidate B
        coords[10:14] = [2.0, 0.0]   # light group near A
        coords[14:18] = [98.0, 0.0]  # heavy group near B

        from repro.core import ControllerConfig, ReplicationController
        from repro.core import MigrationPolicy
        ctrl = ReplicationController(
            coords[[0, 1]], [0],
            config=ControllerConfig(k=1, max_micro_clusters=8,
                                    radius_floor=2.0,
                                    use_bytes_weight=True),
            policy=MigrationPolicy(min_relative_gain=0.0,
                                   min_absolute_gain_ms=0.0))
        # Ten rounds of the light group (1 byte) then the heavy group
        # (100 bytes), as one block.
        ctrl.record_batch(0, np.tile(coords[10:18], (10, 1)),
                          np.tile([1.0] * 4 + [100.0] * 4, 10))
        ctrl.run_epoch(np.random.default_rng(0))
        # k=1 placement lands at candidate B, where the bytes are.
        assert ctrl.sites == (1,)
