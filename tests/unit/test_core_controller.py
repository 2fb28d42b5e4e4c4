"""Unit tests for repro.core.controller."""

import numpy as np
import pytest

from repro import obs
from repro.coords import EuclideanSpace
from repro.core import (
    ControllerConfig,
    MigrationCostModel,
    MigrationPolicy,
    ReplicationController,
)


def make_controller(**overrides):
    dc_coords = np.array([
        [0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0], [50.0, 50.0],
    ])
    defaults = dict(
        dc_coords=dc_coords,
        initial_sites=[3],
        config=ControllerConfig(k=1, max_micro_clusters=10, radius_floor=2.0),
        policy=MigrationPolicy(min_relative_gain=0.05, min_absolute_gain_ms=1.0),
    )
    defaults.update(overrides)
    return ReplicationController(**defaults)


class TestConstruction:
    def test_initial_sites_validated(self):
        dc = np.zeros((3, 2))
        with pytest.raises(ValueError, match="at least one"):
            ReplicationController(dc, [])
        with pytest.raises(ValueError, match="candidate"):
            ReplicationController(dc, [7])

    def test_duplicate_initial_sites_deduplicated(self):
        dc = np.array([[0.0, 0.0], [1.0, 1.0]])
        ctrl = ReplicationController(dc, [1, 1, 0],
                                     config=ControllerConfig(k=2))
        assert ctrl.sites == (1, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(k=0)
        with pytest.raises(ValueError):
            ControllerConfig(max_micro_clusters=0)
        with pytest.raises(ValueError):
            ControllerConfig(adaptive_k=True, k=5, k_max=3)
        with pytest.raises(ValueError):
            ControllerConfig(adaptive_k=True, demand_low=100, demand_high=50)


class TestAccessRecording:
    def test_record_to_unknown_site_rejected(self):
        ctrl = make_controller()
        with pytest.raises(KeyError, match="replica"):
            ctrl.record_batch(0, np.zeros((1, 2)))

    def test_clustering_coords_strips_height(self):
        space = EuclideanSpace(dim=2, use_height=True)
        coords = np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
        planar = ReplicationController.clustering_coords(coords, space)
        assert planar.shape == (2, 2)
        assert np.allclose(planar, [[1.0, 2.0], [3.0, 4.0]])

    def test_clustering_coords_passthrough_without_height(self):
        space = EuclideanSpace(dim=2)
        coords = np.array([[1.0, 2.0]])
        assert np.allclose(
            ReplicationController.clustering_coords(coords, space), coords)


class TestEpochs:
    def test_migrates_towards_user_population(self):
        ctrl = make_controller()
        assert ctrl.sites == (3,)  # replica starts far from users
        rng = np.random.default_rng(0)
        ctrl.record_batch(3, rng.normal([2.0, 2.0], 1.0, size=(200, 2)))
        report = ctrl.run_epoch(np.random.default_rng(1))
        assert report.migrated
        assert ctrl.sites == (0,)  # nearest DC to the population
        assert report.accesses == 200
        assert report.proposed_predicted_delay < report.current_predicted_delay

    def test_no_migration_when_already_optimal(self):
        ctrl = make_controller(initial_sites=[0])
        rng = np.random.default_rng(0)
        ctrl.record_batch(0, rng.normal([2.0, 2.0], 1.0, size=(100, 2)))
        report = ctrl.run_epoch(np.random.default_rng(1))
        assert not report.migrated
        assert ctrl.sites == (0,)

    def test_empty_epoch_is_a_noop(self):
        ctrl = make_controller()
        report = ctrl.run_epoch()
        assert not report.migrated
        assert report.accesses == 0
        assert report.verdict.reason == "no accesses observed"
        assert ctrl.sites == (3,)

    def test_summaries_reset_after_epoch(self):
        ctrl = make_controller(initial_sites=[0])
        ctrl.record_batch(0, np.zeros((1, 2)))
        ctrl.run_epoch()
        # Summary window rolled over; next epoch sees no accesses.
        report = ctrl.run_epoch()
        assert report.accesses == 0

    def test_migration_callback_fired(self):
        calls = []
        ctrl = make_controller(
            on_migrate=lambda old, new: calls.append((old, new)))
        rng = np.random.default_rng(0)
        ctrl.record_batch(3, rng.normal([2.0, 2.0], 1.0, size=(100, 2)))
        ctrl.run_epoch(np.random.default_rng(1))
        assert calls == [((3,), (0,))]

    def test_tally_accumulates(self):
        ctrl = make_controller()
        rng = np.random.default_rng(0)
        ctrl.record_batch(3, rng.normal([2.0, 2.0], 1.0, size=(50, 2)))
        with obs.observe() as (registry, _):
            ctrl.run_epoch(np.random.default_rng(1))
        assert ctrl.tally.epochs == 1
        assert ctrl.tally.summary_bytes > 0
        assert ctrl.tally.migrations == 1
        # Clustering wall time lives on the obs phase timer, and covers
        # (at least) the Algorithm 1 call it wraps.
        clustering = registry.timer("controller.clustering")
        assert clustering.calls == 1
        assert (clustering.total_seconds
                >= registry.timer("macro.place_replicas").total_seconds > 0)

    def test_k2_places_two_sites(self):
        ctrl = make_controller(
            initial_sites=[4, 3],
            config=ControllerConfig(k=2, max_micro_clusters=10, radius_floor=2.0),
        )
        rng = np.random.default_rng(0)
        ctrl.record_batch(4, rng.normal([2.0, 2.0], 1.0, size=(100, 2)))
        ctrl.record_batch(3, rng.normal([98.0, 98.0], 1.0, size=(100, 2)))
        report = ctrl.run_epoch(np.random.default_rng(1))
        assert report.migrated
        assert sorted(ctrl.sites) == [0, 3]

    def test_each_report_counts_one_epochs_accesses(self):
        # Summaries restart every epoch: each report (and adaptive k's
        # demand) sees one epoch's accesses, never a running total.
        ctrl = make_controller(
            initial_sites=[0, 1],
            config=ControllerConfig(
                k=2, max_micro_clusters=10, radius_floor=2.0,
                adaptive_k=True, k_min=1, k_max=7,
                demand_low=10, demand_high=120))
        rng = np.random.default_rng(0)
        reports = []
        for _ in range(5):
            ctrl.record_batch(0, rng.normal([2.0, 2.0], 1.0, size=(25, 2)))
            ctrl.record_batch(1, rng.normal([98.0, 2.0], 1.0, size=(25, 2)))
            reports.append(ctrl.run_epoch(np.random.default_rng(1)))
        assert [r.accesses for r in reports] == [50] * 5
        assert not any(r.migrated for r in reports)
        assert ctrl.k == 2


class TestAdaptiveK:
    def make_adaptive(self):
        return make_controller(
            initial_sites=[0],
            config=ControllerConfig(
                k=1, max_micro_clusters=10, radius_floor=2.0,
                adaptive_k=True, k_min=1, k_max=3,
                demand_low=5, demand_high=50,
            ),
            policy=MigrationPolicy(min_relative_gain=0.0,
                                   min_absolute_gain_ms=0.0),
        )

    def test_k_grows_under_demand(self):
        ctrl = self.make_adaptive()
        rng = np.random.default_rng(0)
        ctrl.record_batch(0, rng.normal([2.0, 2.0], 1.0, size=(100, 2)))
        ctrl.run_epoch(np.random.default_rng(1))
        assert ctrl.k == 2

    def test_k_shrinks_when_idle(self):
        ctrl = self.make_adaptive()
        ctrl.k = 3
        ctrl.record_batch(0, np.array([[2.0, 2.0]]))
        ctrl.run_epoch(np.random.default_rng(1))
        assert ctrl.k == 2

    def test_k_respects_bounds(self):
        ctrl = self.make_adaptive()
        # Zero accesses: k would shrink but is already at k_min.
        ctrl.run_epoch()
        assert ctrl.k == 1
        ctrl.k = 3
        rng = np.random.default_rng(0)
        ctrl.record_batch(0, rng.normal([2.0, 2.0], 1.0, size=(100, 2)))
        ctrl.run_epoch(np.random.default_rng(1))
        assert ctrl.k == 3  # k_max

    def test_notes_record_adaptation(self):
        ctrl = self.make_adaptive()
        rng = np.random.default_rng(0)
        ctrl.record_batch(0, rng.normal([2.0, 2.0], 1.0, size=(100, 2)))
        ctrl.run_epoch(np.random.default_rng(1))
        assert any("k -> 2" in note for note in ctrl.tally.notes)
