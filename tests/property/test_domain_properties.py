"""Property-based tests (hypothesis) for the co-failure model.

The invariants certified here are the ones the availability objective
leans on:

* joint pair-outage probability is monotone in shared-ancestor depth;
* a domain-disjoint placement never scores higher risk than any other
  placement of the same size (spreading is always weakly safer);
* the risk functional and expected survivors are exactly permutation
  invariant (bitwise — summation order is canonical);
* the exact all-replicas-down probability agrees with the intuition
  that co-located placements die together more often.
"""

from hypothesis import given, settings, strategies as st

from repro.net.domains import FailureDomains

prob = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)


@st.composite
def trees(draw, min_regions=1):
    regions = draw(st.integers(min_value=min_regions, max_value=3))
    dcs_per_region = draw(st.integers(min_value=1, max_value=3))
    racks_per_dc = draw(st.integers(min_value=1, max_value=3))
    n_racks = regions * dcs_per_region * racks_per_dc
    n = draw(st.integers(min_value=n_racks, max_value=2 * n_racks + 4))
    return FailureDomains.contiguous(
        n, regions, dcs_per_region, racks_per_dc,
        p_region=draw(prob), p_dc=draw(prob), p_rack=draw(prob),
        p_node=draw(prob))


@st.composite
def nested_trees(draw):
    """Any nesting, not only contiguous blocks: every position picks a
    rack, every rack a DC, every DC a region, ids in arbitrary order."""
    n = draw(st.integers(min_value=1, max_value=24))
    rack_of = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    dc_of_rack = draw(st.lists(st.integers(0, 4), min_size=8, max_size=8))
    region_of_dc = draw(st.lists(st.integers(0, 2), min_size=5,
                                 max_size=5))
    dc_of = [dc_of_rack[r] for r in rack_of]
    return FailureDomains(
        [region_of_dc[d] for d in dc_of], dc_of, rack_of,
        p_region=draw(prob), p_dc=draw(prob), p_rack=draw(prob),
        p_node=draw(prob))


def closed_form_risk(domains, sites):
    """``cofailure_risk`` from its definition: the closed-form joint
    outage of every sorted pair, summed in order, over the pair count."""
    ordered = sorted(sites)
    total, pairs = 0.0, 0
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            q = 1.0
            for level_p, level_depth in ((domains.p_region, 1),
                                         (domains.p_dc, 2),
                                         (domains.p_rack, 3)):
                if domains.shared_depth(a, b) >= level_depth:
                    q *= 1.0 - level_p
            total += (1.0 - 2.0 * domains.p_up
                      + domains.p_up * domains.p_up / q)
            pairs += 1
    return total / pairs


@st.composite
def tree_and_placement(draw, min_regions=1, min_size=2):
    domains = draw(trees(min_regions=min_regions))
    size = draw(st.integers(min_value=min(min_size, domains.n),
                            max_value=min(domains.n, 5)))
    sites = draw(st.permutations(range(domains.n)).map(
        lambda p: list(p[:size])))
    return domains, sites


class TestPairMonotonicity:
    @given(trees())
    @settings(max_examples=80, deadline=None)
    def test_p_pair_down_monotone_in_shared_depth(self, domains):
        # Enumerate every pair: deeper shared ancestry may never make
        # the joint outage less likely.
        pairs = [(a, b) for a in range(domains.n)
                 for b in range(a + 1, domains.n)]
        by_depth = sorted(pairs,
                          key=lambda p: domains.shared_depth(*p))
        for (a1, b1), (a2, b2) in zip(by_depth, by_depth[1:]):
            assert (domains.p_pair_down(a1, b1)
                    <= domains.p_pair_down(a2, b2) + 1e-12)

    @given(trees())
    @settings(max_examples=80, deadline=None)
    def test_pair_down_bounded_by_marginals(self, domains):
        for a in range(domains.n):
            for b in range(a + 1, domains.n):
                joint = domains.p_pair_down(a, b)
                marginal = domains.p_down(a)
                # Joint outage can never beat a single marginal, and
                # positive correlation keeps it at or above independence.
                assert joint <= marginal + 1e-12
                assert joint >= marginal * marginal - 1e-12


class TestRiskFunctional:
    @given(tree_and_placement(min_regions=2))
    @settings(max_examples=80, deadline=None)
    def test_disjoint_never_riskier(self, tp):
        domains, sites = tp
        # A placement with every site in a distinct region, if one
        # exists of the same size, is the safest possible.
        regions = sorted(set(domains.region_of.tolist()))
        if len(regions) < len(sites):
            return
        disjoint = [int(domains.members("region", r)[0])
                    for r in regions[:len(sites)]]
        assert (domains.cofailure_risk(disjoint)
                <= domains.cofailure_risk(sites) + 1e-12)

    @given(tree_and_placement(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_risk_exactly_permutation_invariant(self, tp, rnd):
        domains, sites = tp
        shuffled = list(sites)
        rnd.shuffle(shuffled)
        # Bitwise equality, not approx: summation order is canonical.
        assert (domains.cofailure_risk(shuffled)
                == domains.cofailure_risk(sites))

    @given(tree_and_placement(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_survivors_exactly_permutation_invariant(self, tp, rnd):
        domains, sites = tp
        shuffled = list(sites)
        rnd.shuffle(shuffled)
        assert (domains.expected_survivors(shuffled)
                == domains.expected_survivors(sites))

    @given(tree_and_placement())
    @settings(max_examples=80, deadline=None)
    def test_risk_and_survivors_in_range(self, tp):
        domains, sites = tp
        risk = domains.cofailure_risk(sites)
        assert 0.0 <= risk <= 1.0
        survivors = domains.expected_survivors(sites)
        assert 0.0 <= survivors <= len(sites)


class TestRiskTable:
    @given(nested_trees(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_table_equals_closed_form_bitwise(self, domains, data):
        size = data.draw(st.integers(min_value=min(2, domains.n),
                                     max_value=min(domains.n, 6)))
        sites = data.draw(st.permutations(range(domains.n)))[:size]
        if size < 2:
            assert domains.cofailure_risk(sites) == 0.0
            return
        assert (domains.cofailure_risk(sites)
                == closed_form_risk(domains, sites))
        for a in sites:
            for b in sites:
                if a != b:
                    assert (domains.p_pair_down(a, b)
                            == closed_form_risk(domains, [a, b]))


class TestAllDown:
    @given(trees())
    @settings(max_examples=80, deadline=None)
    def test_colocated_at_least_as_deadly_as_spread(self, domains):
        racks = sorted(set(domains.rack_of.tolist()))
        rack_members = domains.members("rack", racks[0])
        if len(rack_members) < 2 or len(racks) < 2:
            return
        packed = list(rack_members[:2])
        spread = [rack_members[0], domains.members("rack", racks[1])[0]]
        assert (domains.prob_all_down(packed)
                >= domains.prob_all_down(spread) - 1e-12)

    @given(tree_and_placement(min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_all_down_bounded_by_single_site(self, tp):
        domains, sites = tp
        value = domains.prob_all_down(sites)
        assert 0.0 <= value <= 1.0
        # Losing every site is at most as likely as losing any one.
        assert value <= domains.p_down(sites[0]) + 1e-12
