"""Edge-case tests across modules: forwarding, sync, metrics, reports."""

import numpy as np
import pytest

from repro.analysis.experiment import FigureResult
from repro.analysis.report import format_figure
from repro.analysis.stats import SeriesPoint, summarize
from repro.coords import (
    EuclideanSpace,
    closest_selection_accuracy,
    embed_matrix,
    selection_penalty_ms,
)
from repro.core import ControllerConfig, ReplicationController
from repro.net import LatencyMatrix
from repro.net.planetlab import small_matrix
from repro.sim import Simulator
from repro.store import ReplicatedStore


class TestReadForwarding:
    """A request that lands on a server which just dropped its replica."""

    def build(self):
        matrix = small_matrix(n=12, seed=5)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        sim = Simulator(seed=5)
        store = ReplicatedStore(sim, matrix, (0, 1, 2), coords,
                                selection="oracle")
        store.create_object("obj", initial_sites=[0, 1])
        return sim, matrix, store

    def test_forwarded_read_still_completes(self):
        sim, matrix, store = self.build()
        client = store.add_client(6)
        target = store.route_read(6, "obj")[0]
        other = 1 if target == 0 else 0
        client.read("obj")
        # While the request is in flight, the target drops its replica
        # (as a migration retirement would).
        store.servers[target].drop("obj")
        store._units["obj"].installed = {other}
        sim.run()
        assert len(store.log) == 1
        record = store.log.records[0]
        assert record.server == other
        # The forwarded path is strictly longer than the direct one.
        assert record.delay_ms > matrix.latency(6, target) - 1e-9

    def test_read_lost_when_object_fully_retired(self):
        sim, matrix, store = self.build()
        client = store.add_client(6)
        client.read("obj")
        for site in (0, 1):
            store.servers[site].drop("obj")
        store._units["obj"].installed = set()
        sim.run()
        assert len(store.log) == 0  # silently lost (no timeout configured)


class TestControllerSyncSites:
    def make(self):
        dc = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        return ReplicationController(dc, [0],
                                     config=ControllerConfig(k=1))

    def test_sync_keeps_existing_summaries(self):
        ctrl = self.make()
        ctrl.record_batch(0, np.array([[1.0, 1.0]]))
        ctrl.sync_sites([0, 2])
        assert ctrl.sites == (0, 2)
        assert ctrl._summaries[0].accesses == 1
        assert ctrl._summaries[2].accesses == 0

    def test_sync_drops_removed_sites(self):
        ctrl = self.make()
        ctrl.sync_sites([1])
        with pytest.raises(KeyError):
            ctrl.record_batch(0, np.zeros((1, 2)))
        ctrl.record_batch(1, np.zeros((1, 2)))

    def test_sync_validation(self):
        ctrl = self.make()
        with pytest.raises(ValueError, match="empty"):
            ctrl.sync_sites([])
        with pytest.raises(ValueError, match="candidate"):
            ctrl.sync_sites([7])

    def test_sync_deduplicates(self):
        ctrl = self.make()
        ctrl.sync_sites([2, 2, 1])
        assert ctrl.sites == (2, 1)


class TestSelectionMetrics:
    def test_perfect_coords_give_perfect_selection(self):
        # RTT == planar distance: predictions are exact.
        points = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 40.0],
                           [60.0, 10.0], [15.0, 25.0]])
        diff = points[:, None] - points[None, :]
        matrix = LatencyMatrix(np.linalg.norm(diff, axis=-1))
        space = EuclideanSpace(2)
        acc = closest_selection_accuracy(matrix, points, space,
                                         clients=[3, 4], candidates=[0, 1, 2])
        assert acc == 1.0
        assert selection_penalty_ms(matrix, points, space,
                                    [3, 4], [0, 1, 2]) == pytest.approx(0.0)

    def test_empty_inputs_rejected(self):
        matrix = small_matrix(n=5, seed=0)
        space = EuclideanSpace(2)
        coords = np.zeros((5, 2))
        with pytest.raises(ValueError, match="non-empty"):
            closest_selection_accuracy(matrix, coords, space, [], [0])


class TestReportFormatting:
    def test_non_integer_x_rendered(self):
        series = {
            "a": [SeriesPoint(0.5, summarize([1.0, 2.0])),
                  SeriesPoint(1.5, summarize([3.0]))],
        }
        result = FigureResult("Fig", "x", "y", series)
        text = format_figure(result)
        assert "0.5" in text and "1.5" in text

    def test_precision_control(self):
        series = {"a": [SeriesPoint(1.0, summarize([1.23456]))]}
        result = FigureResult("Fig", "x", "y", series)
        assert "1.235" in format_figure(result, precision=3)

    def test_figure_result_accessors(self):
        series = {"a": [SeriesPoint(1.0, summarize([2.0]))]}
        result = FigureResult("Fig", "x", "y", series)
        assert result.means("a") == [2.0]
        assert result.xs("a") == [1.0]


class TestLatencyMatrixMore:
    def test_two_node_matrix(self):
        m = LatencyMatrix(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert m.triangle_violation_fraction() == 0.0
        assert m.median() == 5.0

    def test_submatrix_of_submatrix(self):
        m = small_matrix(n=10, seed=1)
        sub = m.submatrix([0, 3, 7]).submatrix([2, 0])
        assert sub.n == 2
        assert sub.latency(0, 1) == m.latency(7, 0)


class TestOnlinePlacementRadiusFloor:
    def test_radius_floor_plumbed_through(self):
        from repro.placement import OnlineClusteringPlacement
        strategy = OnlineClusteringPlacement(micro_clusters=4,
                                             radius_floor=42.0)
        assert strategy.radius_floor == 42.0

    def test_negative_radius_rejected_by_summary(self):
        from repro.core import ReplicaAccessSummary
        with pytest.raises(ValueError):
            ReplicaAccessSummary(radius_floor=-1.0)
