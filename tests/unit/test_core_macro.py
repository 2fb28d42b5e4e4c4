"""Unit tests for repro.core.macro (Algorithm 1)."""

import numpy as np
import pytest

from repro.clustering import MicroClusters
from repro.core import (
    DelayEstimator,
    assign_sites,
    estimate_average_delay,
    macro_cluster,
    place_replicas,
)

from tests.data.records import population as cf


class TestMacroCluster:
    def test_three_populations_recovered(self):
        micros = MicroClusters.concat([
            cf([0.0, 0.0], count=10), cf([1.0, 0.0], count=10),
            cf([100.0, 0.0], count=10), cf([101.0, 0.0], count=10),
            cf([0.0, 100.0], count=10), cf([0.0, 101.0], count=10),
        ])
        macros = macro_cluster(micros, 3, np.random.default_rng(0))
        assert len(macros) == 3
        centroids = sorted(tuple(np.round(m.centroid, 0)) for m in macros)
        assert centroids == [(0.0, 0.0), (0.0, 100.0), (100.0, 0.0)]
        assert all(m.count == 20 for m in macros)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="micro-clusters"):
            macro_cluster(MicroClusters.empty(2), 3)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="positive"):
            macro_cluster(cf([0, 0]), 0)

    def test_count_weighting_pulls_centroid(self):
        micros = MicroClusters.concat([cf([0.0, 0.0], count=9),
                                       cf([10.0, 0.0], count=1)])
        macros = macro_cluster(micros, 1, np.random.default_rng(0))
        assert macros[0].centroid[0] == pytest.approx(1.0)
        assert macros[0].count == 10

    def test_bytes_weighting_mode(self):
        micros = MicroClusters.concat([cf([0.0, 0.0], weight=9.0),
                                       cf([10.0, 0.0], weight=1.0)])
        macros = macro_cluster(micros, 1, np.random.default_rng(0),
                               use_bytes_weight=True)
        assert macros[0].centroid[0] == pytest.approx(1.0)

    def test_zero_weights_fall_back_to_uniform(self):
        micros = MicroClusters.concat([cf([0.0, 0.0], weight=0.0),
                                       cf([10.0, 0.0], weight=0.0)])
        macros = macro_cluster(micros, 1, np.random.default_rng(0),
                               use_bytes_weight=True)
        assert macros[0].centroid[0] == pytest.approx(5.0)


class TestPlaceReplicas:
    def setup_method(self):
        self.dc_coords = np.array([
            [0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [50.0, 50.0], [200.0, 200.0],
        ])

    def test_each_population_gets_nearest_dc(self):
        micros = MicroClusters.concat([
            cf([2.0, 1.0], count=50),
            cf([98.0, 1.0], count=50),
            cf([1.0, 99.0], count=50),
        ])
        decision = place_replicas(micros, 3, self.dc_coords,
                                  np.random.default_rng(0))
        assert sorted(decision.data_centers) == [0, 1, 2]
        assert len(decision.macro_clusters) == 3

    def test_sites_are_distinct_under_contention(self):
        # Two heavy populations both closest to DC 0.
        micros = MicroClusters.concat([cf([1.0, 0.0], count=100),
                                       cf([0.0, 1.0], count=50)])
        decision = place_replicas(micros, 2, self.dc_coords,
                                  np.random.default_rng(0))
        assert len(set(decision.data_centers)) == 2
        assert 0 in decision.data_centers

    def test_heaviest_macro_wins_contended_site(self):
        micros = MicroClusters.concat([cf([1.0, 0.0], count=100),
                                       cf([0.0, 1.0], count=50)])
        decision = place_replicas(micros, 2, self.dc_coords,
                                  np.random.default_rng(0))
        # The count-100 macro-cluster is processed first and takes DC 0.
        first_macro = decision.macro_clusters[0]
        assert first_macro.count == 100
        assert decision.data_centers[0] == 0

    def test_k_capped_by_candidates(self):
        micros = cf([0.0, 0.0], count=10)
        dc = np.array([[0.0, 0.0], [10.0, 10.0]])
        decision = place_replicas(micros, 5, dc, np.random.default_rng(0))
        assert len(decision.data_centers) == 2

    def test_padding_when_fewer_macros_than_k(self):
        # One point population, k=3: placement must still return 3 sites.
        micros = cf([0.0, 0.0], count=10)
        decision = place_replicas(micros, 3, self.dc_coords,
                                  np.random.default_rng(0))
        assert len(decision.data_centers) == 3
        assert len(set(decision.data_centers)) == 3
        assert decision.data_centers[0] == 0  # nearest to the population

    def test_rejects_no_candidates(self):
        with pytest.raises(ValueError, match="candidate"):
            place_replicas(cf([0, 0]), 1, np.empty((0, 2)))

    def test_predicted_delay_weighted_mean(self):
        micros = MicroClusters.concat([cf([0.0, 0.0], count=3),
                                       cf([100.0, 0.0], count=1)])
        dc = np.array([[0.0, 0.0]])
        decision = place_replicas(micros, 1, dc, np.random.default_rng(0))
        # 3 accesses at distance 0, 1 access at distance 100.
        assert decision.predicted_delay == pytest.approx(25.0)


class TestAssignSites:
    # Candidates on a line; every population sits nearest candidate 0.
    DCS = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])

    def test_heaviest_first_and_ties_in_input_order(self):
        centroids = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                              [4.0, 0.0]])
        sites, order = assign_sites(centroids, [2.0, 3.0, 3.0, 1.0],
                                    self.DCS, 4)
        # Populations 1 and 2 tie: the earlier one claims first.
        assert order == [1, 2, 0, 3]
        assert sites == [0, 1, 2, 3]

    def test_padding_next_to_the_heaviest(self):
        centroids = np.array([[0.0, 0.0], [30.0, 0.0]])
        sites, order = assign_sites(centroids, [1.0, 5.0], self.DCS, 3)
        assert order == [1, 0]
        assert sites == [3, 0, 2]

    def test_heights_are_part_of_the_cost(self):
        sites, _ = assign_sites(np.array([[4.0, 0.0]]), [1.0], self.DCS, 1,
                                heights=np.array([7.0, 0.0, 0.0, 0.0]))
        assert sites == [1]

    def test_rejects_no_populations(self):
        with pytest.raises(ValueError, match="populations"):
            assign_sites(np.empty((0, 2)), [], self.DCS, 2)


class TestEstimateAverageDelay:
    def test_nearest_replica_rule(self):
        micros = MicroClusters.concat([cf([0.0, 0.0], count=1),
                                       cf([100.0, 0.0], count=1)])
        replicas = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert estimate_average_delay(micros, replicas) == pytest.approx(0.0)

    def test_count_weighting(self):
        micros = MicroClusters.concat([cf([0.0, 0.0], count=1),
                                       cf([10.0, 0.0], count=3)])
        replicas = np.array([[0.0, 0.0]])
        assert estimate_average_delay(micros, replicas) == pytest.approx(7.5)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError, match="micro-clusters"):
            estimate_average_delay(MicroClusters.empty(2), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="replica"):
            estimate_average_delay(cf([0, 0]), np.empty((0, 2)))

    def test_fractional_counts_from_decay_supported(self):
        # A record's counts need not be integers (a decayed or
        # externally built summary); the weighted mean must stay exact.
        micros = MicroClusters([0.5, 1.5], [0.5, 1.5],
                               [[0.0, 0.0], [15.0, 0.0]],
                               [[0.0, 0.0], [150.0, 0.0]])
        replicas = np.array([[0.0, 0.0]])
        # The second centroid is 15/1.5 = 10; weights 0.5 and 1.5.
        value = estimate_average_delay(micros, replicas)
        assert value == pytest.approx((0.5 * 0.0 + 1.5 * 10.0) / 2.0)


class TestDelayEstimator:
    @pytest.mark.parametrize("zero_counts", [False, True])
    def test_delay_is_np_average_bitwise(self, zero_counts):
        rng = np.random.default_rng(5)
        m = 37                  # past numpy's 8-wide pairwise blocks
        counts = np.zeros(m) if zero_counts else rng.random(m) * 40.0
        linear = rng.normal(scale=50.0, size=(m, 2))
        micros = MicroClusters(counts, counts, linear, linear ** 2)
        dcs = rng.normal(scale=60.0, size=(9, 2))
        with np.errstate(divide="ignore"):
            estimator = DelayEstimator(micros, dcs, rng.random(9) * 3.0)
        weights = counts
        if zero_counts:
            # All-zero counts fall back to uniform weights.  Their
            # centroids divide by zero, so give the fallback finite costs.
            weights = np.ones(m)
            estimator.cost = rng.random((m, 9)) * 100.0
        for sites in ([4], [0, 8], [2, 5, 7], list(range(9))):
            nearest = estimator.cost[:, sites].min(axis=1)
            assert (estimator.delay(sites)
                    == float(np.average(nearest, weights=weights)))
