"""Unit tests for the failure-domain tree and its co-failure model.

The closed forms (``p_pair_down``, ``prob_all_down``,
``expected_survivors``) are checked against brute-force enumeration of
every independent domain-failure combination — the model's source
definition.
"""

import itertools

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.net.domains import FailureDomains


def brute_force(domains, sites, predicate):
    """Sum P(failure combination) over combinations satisfying
    ``predicate(down_sites)`` — exhaustive over the independent atoms
    (regions, DCs, racks, nodes) touching ``sites``."""
    atoms = sorted({("region", int(domains.region_of[s]), domains.p_region)
                    for s in sites}
                   | {("dc", int(domains.dc_of[s]), domains.p_dc)
                      for s in sites}
                   | {("rack", int(domains.rack_of[s]), domains.p_rack)
                      for s in sites}
                   | {("node", int(s), domains.p_node) for s in sites})
    total = 0.0
    for states in itertools.product((False, True), repeat=len(atoms)):
        prob = 1.0
        failed = set()
        for (level, ident, p), state in zip(atoms, states):
            prob *= p if state else 1.0 - p
            if state:
                failed.add((level, ident))
        down = {
            s for s in sites
            if ("region", int(domains.region_of[s])) in failed
            or ("dc", int(domains.dc_of[s])) in failed
            or ("rack", int(domains.rack_of[s])) in failed
            or ("node", int(s)) in failed
        }
        if predicate(down):
            total += prob
    return total


@pytest.fixture
def tree():
    # 2 regions x 2 DCs x 2 racks x 2 positions = 16 positions.
    return FailureDomains.contiguous(16, regions=2, dcs_per_region=2,
                                     racks_per_dc=2, p_region=0.02,
                                     p_dc=0.05, p_rack=0.10, p_node=0.03)


class TestConstruction:
    def test_contiguous_structure(self, tree):
        assert tree.n == 16
        assert tree.rack_of.tolist() == [i // 2 for i in range(16)]
        assert tree.dc_of.tolist() == [i // 4 for i in range(16)]
        assert tree.region_of.tolist() == [i // 8 for i in range(16)]

    def test_contiguous_uneven(self):
        # 5 positions over 4 racks: one rack gets two.
        domains = FailureDomains.contiguous(5, regions=2, dcs_per_region=1,
                                            racks_per_dc=2)
        assert sorted(domains.rack_of.tolist()) == [0, 0, 1, 2, 3]
        assert len(set(domains.region_of.tolist())) == 2

    def test_too_many_racks(self):
        with pytest.raises(ValueError, match="every rack"):
            FailureDomains.contiguous(3, regions=2, dcs_per_region=1,
                                      racks_per_dc=2)

    def test_nesting_violation(self):
        # Rack 0 spans DCs 0 and 1.
        with pytest.raises(ValueError, match="spans multiple"):
            FailureDomains(region_of=[0, 0], dc_of=[0, 1], rack_of=[0, 0])

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="p_rack"):
            FailureDomains.contiguous(4, 1, 1, 2, p_rack=1.0)
        with pytest.raises(ValueError, match="p_node"):
            FailureDomains.contiguous(4, 1, 1, 2, p_node=-0.1)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="one region/dc/rack"):
            FailureDomains(region_of=[0, 0], dc_of=[0], rack_of=[0, 0])
        with pytest.raises(ValueError, match="at least one"):
            FailureDomains(region_of=[], dc_of=[], rack_of=[])

    def test_from_matrix_groups_mutually_close_candidates(self):
        # Eight nodes on a line in four tight pairs: each pair must
        # become one rack, near pairs one region.
        x = np.array([0.0, 1.0, 100.0, 101.0, 200.0, 201.0, 300.0, 301.0])
        rtt = np.abs(x[:, None] - x[None, :])
        matrix = LatencyMatrix(rtt)
        domains = FailureDomains.from_matrix(
            matrix, list(range(8)), regions=2, dcs_per_region=2,
            racks_per_dc=1)
        assert domains.rack_of.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert domains.dc_of.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert domains.region_of.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


class TestTopologyQueries:
    def test_shared_depth(self, tree):
        assert tree.shared_depth(0, 1) == 3      # same rack
        assert tree.shared_depth(0, 2) == 2      # same DC, other rack
        assert tree.shared_depth(0, 4) == 1      # same region, other DC
        assert tree.shared_depth(0, 8) == 0      # other region
        assert tree.shared_depth(5, 5) == 3

    def test_members_and_resolve(self, tree):
        assert tree.members("rack", 3) == (6, 7)
        assert tree.members("dc", 1) == (4, 5, 6, 7)
        assert tree.resolve("region:1") == tuple(range(8, 16))
        with pytest.raises(ValueError, match="unknown level"):
            tree.members("continent", 0)
        with pytest.raises(ValueError, match="no positions"):
            tree.resolve("rack:99")
        with pytest.raises(ValueError, match="bad domain spec"):
            tree.resolve("rack")

    def test_densest_members(self, tree):
        assert tree.densest_members("rack", [0, 1, 5]) == (0, 1)
        assert tree.densest_members("dc", [4, 5, 9]) == (4, 5, 6, 7)
        # Tie: one replica each in racks 2 and 0 -> lowest rack id wins.
        assert tree.densest_members("rack", [5, 0]) == (0, 1)
        # No positions at all: lowest-id domain.
        assert tree.densest_members("region", []) == tuple(range(8))


class TestCoFailureModel:
    def test_p_down_matches_brute_force(self, tree):
        expected = brute_force(tree, [3], lambda down: 3 in down)
        assert tree.p_down(3) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(ValueError, match="outside"):
            tree.p_down(16)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (0, 4), (0, 8)])
    def test_p_pair_down_matches_brute_force(self, tree, pair):
        a, b = pair
        expected = brute_force(tree, [a, b],
                               lambda down: a in down and b in down)
        assert tree.p_pair_down(a, b) == pytest.approx(expected, abs=1e-12)

    def test_p_pair_down_monotone_in_shared_depth(self, tree):
        risks = [tree.p_pair_down(0, other) for other in (8, 4, 2, 1)]
        assert risks == sorted(risks)
        assert risks[0] < risks[-1]          # strictly, probs are > 0

    def test_cofailure_risk_is_mean_pairwise(self, tree):
        sites = [0, 2, 9]
        pairs = [(0, 2), (0, 9), (2, 9)]
        expected = sum(tree.p_pair_down(a, b) for a, b in pairs) / 3
        assert tree.cofailure_risk(sites) == pytest.approx(expected)
        assert tree.cofailure_risk([4]) == 0.0
        with pytest.raises(ValueError, match="distinct"):
            tree.cofailure_risk([1, 1, 2])

    def test_cofailure_risk_rejects_bad_sites(self, tree):
        with pytest.raises(ValueError, match="distinct"):
            tree.cofailure_risk([3, 5, 3])
        with pytest.raises(IndexError):
            tree.cofailure_risk([0, tree.n])
        with pytest.raises(IndexError):
            tree.p_pair_down(0, tree.n)
        with pytest.raises(ValueError, match="outside"):
            tree.p_pair_down(tree.n, tree.n)

    def test_cofailure_risk_rewards_spreading(self, tree):
        packed = tree.cofailure_risk([0, 1, 2])      # one DC
        spread = tree.cofailure_risk([0, 4, 8])      # rack/DC/region split
        assert spread < packed

    def test_expected_survivors_matches_brute_force(self, tree):
        sites = [0, 1, 10]
        expected = sum(
            brute_force(tree, [s], lambda down, s=s: s not in down)
            for s in sites)
        assert tree.expected_survivors(sites) == pytest.approx(expected)

    @pytest.mark.parametrize("sites", [[0, 1], [0, 1, 2], [0, 4, 8],
                                       [0, 1, 8, 9], [5]])
    def test_prob_all_down_matches_brute_force(self, tree, sites):
        expected = brute_force(
            tree, sites, lambda down: all(s in down for s in sites))
        assert tree.prob_all_down(sites) == pytest.approx(expected,
                                                          abs=1e-12)

    def test_prob_all_down_validates(self, tree):
        with pytest.raises(ValueError, match="non-empty"):
            tree.prob_all_down([])
