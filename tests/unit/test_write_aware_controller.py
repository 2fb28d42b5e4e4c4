"""Unit tests for the write-aware control loop."""

import numpy as np
import pytest

from repro.coords import EuclideanSpace, embed_matrix
from repro.core import ControllerConfig, MigrationPolicy, ReplicationController
from repro.net.planetlab import small_matrix
from repro.sim import Simulator
from repro.store import ReplicatedStore

LINE_DCS = np.array([[float(x), 0.0] for x in (0, 25, 50, 75, 100)])


def make(write_aware=True, k=2, **kwargs):
    config = ControllerConfig(k=k, max_micro_clusters=10, radius_floor=2.0,
                              write_aware=write_aware, **kwargs)
    return ReplicationController(
        LINE_DCS, list(range(k)), config,
        policy=MigrationPolicy(min_relative_gain=0.0,
                               min_absolute_gain_ms=0.0))


class TestRecording:
    def test_kind_validation(self):
        ctrl = make()
        with pytest.raises(ValueError, match="kind"):
            ctrl.record_batch(0, np.zeros((1, 2)), kind="delete")

    def test_writes_separate_stream_when_aware(self):
        ctrl = make(write_aware=True)
        ctrl.record_batch(0, np.zeros((1, 2)), kind="read")
        ctrl.record_batch(0, np.zeros((1, 2)), kind="write")
        assert ctrl._summaries[0].accesses == 1
        assert ctrl._write_summaries[0].accesses == 1

    def test_writes_fold_into_reads_when_not_aware(self):
        ctrl = make(write_aware=False)
        ctrl.record_batch(0, np.zeros((1, 2)), kind="write")
        assert ctrl._summaries[0].accesses == 1
        assert ctrl._write_summaries[0].accesses == 0

    def test_epoch_counts_both_streams(self):
        ctrl = make(write_aware=True)
        ctrl.record_batch(0, np.tile([10.0, 0.0], (3, 1)), kind="read")
        ctrl.record_batch(1, np.tile([20.0, 0.0], (2, 1)), kind="write")
        report = ctrl.run_epoch(np.random.default_rng(0))
        assert report.accesses == 5


class TestWriteAwarePlacement:
    def test_write_heavy_workload_tightens_placement(self):
        # Readers at both ends, overwhelming writes in the center:
        # the write-aware controller should not keep replicas at the
        # extremes (update fan-out over 100 units dominates).
        rng = np.random.default_rng(0)
        aware = make(write_aware=True)
        blind = make(write_aware=False)
        for ctrl in (aware, blind):
            ctrl.record_batch(0, [0.0, 0.0] + rng.normal(0, 1, (10, 2)),
                              kind="read")
            ctrl.record_batch(1, [100.0, 0.0] + rng.normal(0, 1, (10, 2)),
                              kind="read")
            ctrl.record_batch(0, [50.0, 0.0] + rng.normal(0, 1, (300, 2)),
                              kind="write")
        aware_report = aware.run_epoch(np.random.default_rng(1))
        blind_report = blind.run_epoch(np.random.default_rng(1))
        aware_spread = abs(LINE_DCS[aware.sites[0], 0]
                           - LINE_DCS[aware.sites[1], 0])
        blind_spread = abs(LINE_DCS[blind.sites[0], 0]
                           - LINE_DCS[blind.sites[1], 0])
        assert aware_spread <= blind_spread
        assert aware_report.epoch == blind_report.epoch == 1

    def test_read_only_workload_behaves_like_paper_mode(self):
        rng = np.random.default_rng(2)
        aware = make(write_aware=True)
        blind = make(write_aware=False)
        for ctrl in (aware, blind):
            ctrl.record_batch(0, [5.0, 0.0] + rng.normal(0, 1, (30, 2)))
            ctrl.record_batch(1, [95.0, 0.0] + rng.normal(0, 1, (30, 2)))
        aware.run_epoch(np.random.default_rng(3))
        blind.run_epoch(np.random.default_rng(3))
        assert sorted(aware.sites) == sorted(blind.sites)

    def test_summaries_roll_over_in_both_streams(self):
        ctrl = make(write_aware=True)
        ctrl.record_batch(0, np.zeros((1, 2)), kind="write")
        ctrl.record_batch(0, np.zeros((1, 2)), kind="read")
        ctrl.run_epoch(np.random.default_rng(0))
        report = ctrl.run_epoch(np.random.default_rng(1))
        assert report.accesses == 0


class TestStoreIntegration:
    def test_store_routes_kinds_to_streams(self):
        matrix = small_matrix(n=15, seed=4)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        sim = Simulator(seed=4)
        store = ReplicatedStore(sim, matrix, (0, 1, 2), coords,
                                selection="oracle")
        store.create_object(
            "obj", initial_sites=[0, 1],
            controller_config=ControllerConfig(
                k=2, max_micro_clusters=8, write_aware=True))
        client = store.add_client(8)
        client.read("obj")
        client.write("obj")
        sim.run()
        ctrl = store.controller("obj")
        assert sum(s.accesses for s in ctrl._summaries.values()) == 1
        assert sum(s.accesses for s in ctrl._write_summaries.values()) == 1
