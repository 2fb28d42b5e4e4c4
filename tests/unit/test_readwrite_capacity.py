"""Unit tests for read/write-aware placement and capacity constraints."""

import numpy as np
import pytest

from repro.clustering import ClusterFeature
from repro.core import (
    assign_sites,
    estimate_rw_cost,
    macro_cluster,
    place_replicas,
    place_replicas_rw,
)


def cf(point, count=1):
    cluster = ClusterFeature.from_point(np.asarray(point, dtype=float))
    for _ in range(count - 1):
        cluster.absorb(np.asarray(point, dtype=float))
    return cluster


LINE_DCS = np.array([[float(x), 0.0] for x in (0, 25, 50, 75, 100)])


def seeded_sites(micros, k, capacities):
    """Algorithm 1's mapping alone, before the swap refinement."""
    macros = macro_cluster(micros, k, np.random.default_rng(0))
    sites, _ = assign_sites(np.stack([m.centroid for m in macros]),
                            [m.count for m in macros], LINE_DCS, k,
                            capacities=capacities)
    return tuple(sites)


class TestEstimateRWCost:
    def test_read_only_matches_plain_estimator(self):
        from repro.core import estimate_average_delay
        reads = [cf([10.0, 0.0], count=4), cf([90.0, 0.0], count=2)]
        replicas = np.array([[0.0, 0.0], [100.0, 0.0]])
        combined, read_mean, write_mean = estimate_rw_cost(reads, [], replicas)
        assert combined == pytest.approx(
            estimate_average_delay(reads, replicas))
        assert write_mean == 0.0
        assert read_mean == pytest.approx(combined)

    def test_write_cost_includes_propagation(self):
        writes = [cf([0.0, 0.0], count=1)]
        replicas = np.array([[10.0, 0.0], [110.0, 0.0]])
        combined, _, write_mean = estimate_rw_cost([], writes, replicas)
        # Writer -> nearest replica (10) + mean fan-out (100).
        assert write_mean == pytest.approx(110.0)
        assert combined == pytest.approx(110.0)

    def test_single_replica_has_no_propagation(self):
        writes = [cf([0.0, 0.0], count=1)]
        replicas = np.array([[10.0, 0.0]])
        _, _, write_mean = estimate_rw_cost([], writes, replicas)
        assert write_mean == pytest.approx(10.0)

    def test_counts_weight_the_combination(self):
        reads = [cf([0.0, 0.0], count=3)]   # read cost 10 each
        writes = [cf([0.0, 0.0], count=1)]  # write cost 10 (single replica)
        replicas = np.array([[10.0, 0.0]])
        combined, read_mean, write_mean = estimate_rw_cost(reads, writes,
                                                           replicas)
        assert combined == pytest.approx(10.0)
        assert read_mean == pytest.approx(10.0)
        assert write_mean == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="micro-clusters"):
            estimate_rw_cost([], [], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="replica"):
            estimate_rw_cost([cf([0, 0])], [], np.empty((0, 2)))


class TestPlaceReplicasRW:
    def test_read_only_spreads_replicas(self):
        reads = [cf([0.0, 0.0], count=10), cf([100.0, 0.0], count=10)]
        decision = place_replicas_rw(reads, [], 2, LINE_DCS,
                                     np.random.default_rng(0))
        assert sorted(decision.data_centers) == [0, 4]

    def test_write_heavy_pulls_replicas_together(self):
        # Same reader geography, but massive write traffic from the
        # center: propagation cost punishes the spread placement.
        reads = [cf([0.0, 0.0], count=2), cf([100.0, 0.0], count=2)]
        writes = [cf([50.0, 0.0], count=50)]
        decision = place_replicas_rw(reads, writes, 2, LINE_DCS,
                                     np.random.default_rng(0))
        chosen = sorted(decision.data_centers)
        spread = LINE_DCS[chosen[1], 0] - LINE_DCS[chosen[0], 0]
        assert spread <= 50.0  # strictly tighter than the read-only [0, 100]
        # And the write cost estimate reflects the compact layout.
        assert decision.predicted_write_delay < 60.0

    def test_more_writes_never_widen_the_placement(self):
        reads = [cf([0.0, 0.0], count=5), cf([100.0, 0.0], count=5)]
        spreads = []
        for write_count in (1, 20, 200):
            writes = [cf([50.0, 0.0], count=write_count)]
            decision = place_replicas_rw(reads, writes, 2, LINE_DCS,
                                         np.random.default_rng(0))
            chosen = sorted(decision.data_centers)
            spreads.append(LINE_DCS[chosen[1], 0] - LINE_DCS[chosen[0], 0])
        assert spreads[0] >= spreads[1] >= spreads[2]

    def test_write_only_population_supported(self):
        writes = [cf([50.0, 0.0], count=10)]
        decision = place_replicas_rw([], writes, 1, LINE_DCS,
                                     np.random.default_rng(0))
        assert decision.data_centers == (2,)  # the DC at x=50

    def test_distinct_sites_and_k_cap(self):
        reads = [cf([0.0, 0.0], count=10)]
        decision = place_replicas_rw(reads, [], 9, LINE_DCS,
                                     np.random.default_rng(0))
        assert len(decision.data_centers) == 5
        assert len(set(decision.data_centers)) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="candidate"):
            place_replicas_rw([cf([0, 0])], [], 1, np.empty((0, 2)))


class TestCapacityConstraints:
    def test_validation(self):
        reads = [cf([0.0, 0.0], count=10)]
        with pytest.raises(ValueError, match="capacities"):
            place_replicas(reads, 1, LINE_DCS,
                           dc_capacities=np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            place_replicas(reads, 1, LINE_DCS,
                           dc_capacities=np.zeros(5))

    def test_overloaded_nearest_is_skipped(self):
        # Two equal populations both closest to DC 2 (x=50); capacity 12
        # fits only one of them, so the second goes elsewhere.
        micros = [cf([45.0, 0.0], count=10), cf([55.0, 0.0], count=10)]
        capacities = np.array([100.0, 100.0, 12.0, 100.0, 100.0])
        chosen = set(seeded_sites(micros, 2, capacities))
        assert len(chosen) == 2
        # The overloaded site takes at most one population.
        assert chosen != {2}

    def test_unconstrained_behaviour_unchanged(self):
        micros = [cf([2.0, 0.0], count=10), cf([98.0, 0.0], count=10)]
        unconstrained = place_replicas(micros, 2, LINE_DCS,
                                       np.random.default_rng(0))
        roomy = place_replicas(micros, 2, LINE_DCS,
                               np.random.default_rng(0),
                               dc_capacities=np.full(5, 1e9))
        assert sorted(unconstrained.data_centers) == sorted(roomy.data_centers)

    def test_refinement_respects_capacity(self):
        # All demand near x=50; capacity there is tiny, so refinement
        # must not concentrate both replicas around it.
        rng = np.random.default_rng(1)
        micros = [cf([50.0 + float(rng.normal(0, 3)), 0.0], count=5)
                  for _ in range(8)]
        capacities = np.array([100.0, 15.0, 15.0, 15.0, 100.0])
        decision = place_replicas(micros, 2, LINE_DCS,
                                  np.random.default_rng(0),
                                  dc_capacities=capacities)
        # Total demand is 40; sites 1..3 can hold only 15 each, so at
        # least one big site (0 or 4) must be chosen.
        assert set(decision.data_centers) & {0, 4}

    def test_fallback_when_nothing_fits(self):
        # One population larger than every capacity: the roomiest
        # candidate absorbs the overload rather than failing.
        micros = [cf([50.0, 0.0], count=1000)]
        capacities = np.array([10.0, 10.0, 30.0, 10.0, 10.0])
        assert seeded_sites(micros, 1, capacities) == (2,)
