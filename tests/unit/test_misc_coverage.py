"""Tests for smaller surfaces: describe(), strategy checks, cost tally,
consistency delays, custom regions, CLI coords command."""

import numpy as np
import pytest

from repro.core import CostTally
from repro.coords import EuclideanSpace, embed_matrix
from repro.net import GeoTopology, PlanetLabParams, Region, synthetic_planetlab_matrix
from repro.net.planetlab import small_matrix
from repro.placement import PlacementProblem, PlacementStrategy
from repro.sim import Simulator
from repro.store import ConsistencyConfig, ReplicatedStore


class TestDescribe:
    def test_describe_mentions_key_stats(self):
        m = small_matrix(n=20, seed=1)
        text = m.describe()
        assert "20 nodes" in text
        assert "median" in text
        assert "triangle-inequality" in text

    def test_describe_small_matrix(self):
        m = small_matrix(n=3, seed=0)
        assert "3 nodes" in m.describe()


class TestCustomRegions:
    def test_single_region_topology(self):
        region = Region("only", 10.0, 20.0, weight=1.0, spread_deg=1.0)
        topo = GeoTopology(15, regions=(region,),
                           rng=np.random.default_rng(0))
        assert all(topo.region_name(i) == "only" for i in range(15))
        # All nodes close to the region center.
        assert np.all(np.abs(topo.lat - 10.0) < 6.0)

    def test_matrix_from_custom_regions(self):
        regions = (
            Region("west", 40.0, -120.0, weight=1.0, spread_deg=1.0),
            Region("east", 40.0, -70.0, weight=1.0, spread_deg=1.0),
        )
        params = PlanetLabParams(n=20, regions=regions,
                                 congested_fraction=0.0)
        matrix, topo = synthetic_planetlab_matrix(params, seed=0)
        same = topo.same_region()
        iu = np.triu_indices(20, k=1)
        intra = matrix.rtt[iu][same[iu]]
        inter = matrix.rtt[iu][~same[iu]]
        assert np.median(intra) < np.median(inter)


class TestStrategyContractChecks:
    class Broken(PlacementStrategy):
        name = "broken"

        def __init__(self, mode):
            self.mode = mode

        def place(self, problem, rng):
            if self.mode == "short":
                return self._check(problem, [problem.candidates[0]])
            if self.mode == "dup":
                c = problem.candidates[0]
                return self._check(problem, [c, c])
            return self._check(problem, [9999, 9998])

    @pytest.fixture()
    def problem(self):
        matrix = small_matrix(n=10, seed=0)
        return PlacementProblem(matrix, (0, 1, 2, 3), (4, 5, 6), k=2)

    def test_wrong_count_detected(self, problem):
        with pytest.raises(AssertionError, match="expected 2"):
            self.Broken("short").place(problem, np.random.default_rng(0))

    def test_duplicates_detected(self, problem):
        with pytest.raises(AssertionError, match="duplicate"):
            self.Broken("dup").place(problem, np.random.default_rng(0))

    def test_non_candidate_detected(self, problem):
        with pytest.raises(AssertionError, match="non-candidate"):
            self.Broken("bad").place(problem, np.random.default_rng(0))


class TestCostTally:
    def test_merge(self):
        a = CostTally(summary_bytes=100,
                      migrations=2, migration_dollars=0.5, epochs=3,
                      notes=["a"])
        b = CostTally(summary_bytes=50,
                      migrations=1, migration_dollars=0.1, epochs=1,
                      notes=["b"])
        merged = a.merge(b)
        assert merged.summary_bytes == 150
        assert merged.migrations == 3
        assert merged.migration_dollars == pytest.approx(0.6)
        assert merged.epochs == 4
        assert merged.notes == ["a", "b"]


class TestPropagationDelay:
    def test_delayed_propagation_window(self):
        matrix = small_matrix(n=15, seed=2)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        sim = Simulator(seed=2)
        store = ReplicatedStore(
            sim, matrix, (0, 1), coords, selection="oracle",
            consistency=ConsistencyConfig(propagate_updates=True,
                                          propagation_delay_ms=5_000.0))
        store.create_object("obj", initial_sites=[0, 1])
        client = store.add_client(10)
        client.write("obj")
        # Shortly after the ack, the peer is still stale ...
        sim.run_until(1_000.0)
        versions = {store.servers[0].replicas["obj"],
                    store.servers[1].replicas["obj"]}
        assert versions == {0, 1}
        # ... and after the batching window plus transfer, it caught up.
        sim.run_until(10_000.0)
        assert store.servers[0].replicas["obj"] == 1
        assert store.servers[1].replicas["obj"] == 1


class TestCliCoords:
    def test_coords_command_small(self, capsys):
        from repro.cli import main
        assert main(["coords", "--nodes", "30", "--runs", "2",
                     "--coord-system", "mds", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Coordinate-system ablation" in out
        for system in ("mds", "rnp", "vivaldi", "gnp"):
            assert system in out
