"""Unit tests for the availability-aware placement layer.

Covers the greedy λ-refinement (including the λ = 0 bit-identity
contract), the ``bound_transfers`` burst cap, the strategy wrapper,
the controller/cost-model knobs, and the candidate-position index map
that replaced the O(n) ``candidates.index`` lookups.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import ControllerConfig, MigrationCostModel
from repro.coords import EuclideanSpace, embed_matrix
from repro.net.domains import FailureDomains
from repro.net.planetlab import small_matrix
from repro.placement import (
    AvailabilityAwarePlacement,
    GreedyPlacement,
    OnlineClusteringPlacement,
    PlacementProblem,
    average_access_delay,
    bound_transfers,
    refine_for_availability,
)
from repro.sim import Simulator
from repro.store import ReplicatedStore


# Three DCs of two positions each, rack == DC, one region.
TREE = FailureDomains.contiguous(6, regions=1, dcs_per_region=3,
                                 racks_per_dc=1, p_rack=0.1, p_node=0.02)


def flat_delay(positions):
    return 0.0


class TestRefineForAvailability:
    def test_lambda_zero_returns_input_unchanged(self):
        sites = [3, 0, 5]

        def exploding_delay(positions):  # pragma: no cover
            raise AssertionError("lambda=0 must not evaluate anything")

        refined = refine_for_availability(sites, exploding_delay, TREE, 0.0)
        assert refined == sites
        assert refine_for_availability([], flat_delay, TREE, 5.0) == []

    def test_pure_risk_spreads_across_racks(self):
        # Positions 0 and 1 share a rack; with delay flat the refinement
        # must end rack-disjoint.
        refined = refine_for_availability([0, 1], flat_delay, TREE, 1.0)
        assert TREE.rack_of[refined[0]] != TREE.rack_of[refined[1]]

    def test_lambda_trades_delay_for_risk(self):
        # Leaving the {0, 1} rack costs 10 ms of predicted delay.
        def delay_of(positions):
            return sum(0.0 if p in (0, 1) else 10.0 for p in positions)

        same_rack_risk = TREE.cofailure_risk([0, 1])
        split_risk = TREE.cofailure_risk([0, 2])
        # Below the break-even λ the packed placement survives; above
        # it the refinement pays the 10 ms to split the rack.
        break_even = 10.0 / (same_rack_risk - split_risk)
        assert refine_for_availability(
            [0, 1], delay_of, TREE, 0.5 * break_even) == [0, 1]
        refined = refine_for_availability(
            [0, 1], delay_of, TREE, 2.0 * break_even)
        assert TREE.rack_of[refined[0]] != TREE.rack_of[refined[1]]

    def test_eligible_restricts_pool(self):
        refined = refine_for_availability([0, 1], flat_delay, TREE, 1.0,
                                          eligible=[0, 1])
        assert sorted(refined) == [0, 1]
        refined = refine_for_availability([0, 1], flat_delay, TREE, 1.0,
                                          eligible=[0, 1, 2])
        assert sorted(TREE.rack_of[p] for p in refined) == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            refine_for_availability([0, 0], flat_delay, TREE, 1.0)
        with pytest.raises(ValueError, match="outside"):
            refine_for_availability([0, 99], flat_delay, TREE, 1.0)
        # The pool is validated like the start: a negative position used
        # to wrap (a silently wrong placement), a large one was a bare
        # IndexError from inside cofailure_risk.
        for bad in (-1, 99):
            with pytest.raises(ValueError,
                               match=f"position {bad} outside 6 domains"):
                refine_for_availability([0, 1], flat_delay, TREE, 1.0,
                                        eligible=[0, 1, bad])


class TestBoundTransfers:
    def test_no_limit_is_passthrough(self):
        assert bound_transfers([0, 1], [4, 5], None, flat_delay) == [4, 5]

    def test_limit_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            bound_transfers([0], [1], 0, flat_delay)

    def test_within_limit_untouched(self):
        assert bound_transfers([0, 1, 2], [0, 1, 5], 1,
                               flat_delay) == [0, 1, 5]

    def test_trims_to_limit_by_objective(self):
        # Proposal replaces all three sites; only one new site may land
        # per epoch.  Objective prefers low position ids, so the trim
        # must keep the new site 3 (= lowest objective when paired with
        # incumbents 0 and 1 back in).
        def objective(positions):
            return float(sum(positions))

        trimmed = bound_transfers([0, 1, 2], [3, 4, 5], 1, objective)
        assert sorted(trimmed) == [0, 1, 3]

    def test_growth_beyond_droppable_incumbents(self):
        # Growing 1 -> 3 replicas with limit 1: one extra site can be
        # swapped back to the incumbent, the rest must stay (the cap
        # yields to growth).
        def objective(positions):
            return float(sum(positions))

        trimmed = bound_transfers([0], [3, 4, 5], 1, objective)
        assert 0 in trimmed and len(trimmed) == 3
        assert len(set(trimmed) - {0}) == 2

    def test_deterministic_tie_break(self):
        first = bound_transfers([0, 1], [2, 3], 1, flat_delay)
        second = bound_transfers([0, 1], [2, 3], 1, flat_delay)
        assert first == second


@pytest.fixture(scope="module")
def problem():
    matrix = small_matrix(n=30, seed=3)
    coords = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(dim=3)).coords
    candidates = tuple(range(6))
    clients = tuple(range(6, 30))
    return PlacementProblem(matrix, candidates, clients, k=2,
                            coords=coords)


class TestAvailabilityAwarePlacement:
    def test_lambda_zero_is_base_verbatim(self, problem):
        base = GreedyPlacement()
        wrapped = AvailabilityAwarePlacement(base, TREE, 0.0)
        rng = np.random.default_rng(5)
        expected = base.place(problem, np.random.default_rng(5))
        assert wrapped.place(problem, rng) == expected

    def test_refinement_never_worsens_combined_objective(self, problem):
        base = GreedyPlacement()
        lam = 500.0
        wrapped = AvailabilityAwarePlacement(base, TREE, lam)
        base_sites = base.place(problem, np.random.default_rng(5))
        refined = wrapped.place(problem, np.random.default_rng(5))
        position_of = {node: p for p, node in enumerate(problem.candidates)}

        def combined(sites):
            return (average_access_delay(problem.matrix, problem.clients,
                                         sites)
                    + lam * TREE.cofailure_risk(
                        [position_of[s] for s in sites]))

        assert combined(refined) <= combined(base_sites) + 1e-9

    def test_search_trials_are_not_booked_as_served_accesses(self, problem):
        # One final evaluation serves 24 clients whatever λ is; the
        # hypothetical placements the refinement scores are not traffic.
        served = {}
        for lam in (0.0, 50.0):
            strategy = AvailabilityAwarePlacement(
                OnlineClusteringPlacement(), TREE, lam)
            with obs.observe() as (registry, _):
                sites = strategy.place(problem, np.random.default_rng(5))
                average_access_delay(problem.matrix, problem.clients, sites)
                snapshot = registry.snapshot()
            served[lam] = (
                snapshot["counters"]["accesses.served"],
                snapshot["histograms"]["access.delay_ms"]["count"])
        assert served[0.0] == served[50.0] == (24, 24)

    def test_validation(self, problem):
        with pytest.raises(ValueError, match="non-negative"):
            AvailabilityAwarePlacement(GreedyPlacement(), TREE, -1.0)
        small_tree = FailureDomains.contiguous(3, 1, 1, 3)
        wrapped = AvailabilityAwarePlacement(GreedyPlacement(),
                                             small_tree, 1.0)
        with pytest.raises(ValueError, match="candidates"):
            wrapped.place(problem, np.random.default_rng(0))

    def test_name_mentions_lambda(self):
        wrapped = AvailabilityAwarePlacement(GreedyPlacement(), TREE, 2.5)
        assert "lam=2.5" in wrapped.name


class TestControllerKnobs:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="availability lambda"):
            ControllerConfig(availability_lambda=-1.0)
        with pytest.raises(ValueError, match="max_epoch_moves"):
            ControllerConfig(max_epoch_moves=0)

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_lambda_must_be_a_non_negative_number(self, lam):
        # NaN would pass a ``< 0`` check and then act as lambda = 0.
        with pytest.raises(ValueError, match="availability_lambda"):
            ControllerConfig(availability_lambda=lam)
        with pytest.raises(ValueError, match="availability_lambda"):
            AvailabilityAwarePlacement(GreedyPlacement(), TREE, lam)

    def test_cost_model_transfers_of_move(self):
        model = MigrationCostModel(dollars_per_gb=0.02, object_size_gb=2.0)
        assert model.transfers_of_move((0, 1, 2), (0, 1, 2)) == 0
        assert model.transfers_of_move((0, 1, 2), (0, 3, 4)) == 2
        assert model.cost_of_move((0, 1, 2), (0, 3, 4)) == \
            pytest.approx(2 * 0.02 * 2.0)


class TestPositionIndexMap:
    """The prebuilt candidate-position map must agree with the O(n)
    ``candidates.index`` lookups it replaced, for any candidate set."""

    @pytest.mark.parametrize("candidates", [
        (0, 1, 2, 3, 4),
        (7, 3, 11, 0, 19, 5),
        (4,),
    ])
    def test_map_matches_list_index(self, candidates):
        matrix = small_matrix(n=20, seed=0)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        store = ReplicatedStore(Simulator(seed=0), matrix, candidates,
                                coords)
        assert store._position_of == {
            node: list(candidates).index(node) for node in candidates}

    def test_store_rejects_mismatched_domains(self):
        matrix = small_matrix(n=20, seed=0)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        with pytest.raises(ValueError, match="candidate"):
            ReplicatedStore(Simulator(seed=0), matrix, (0, 1, 2), coords,
                            domains=FailureDomains.contiguous(5, 1, 1, 1))
