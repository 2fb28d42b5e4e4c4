"""Unit tests for the placement strategies."""

import numpy as np
import pytest

from repro import kernels
from repro.coords import EuclideanSpace, embed_matrix
from repro.net import LatencyMatrix
from repro.net.planetlab import small_matrix
from repro.placement import (
    GreedyPlacement,
    HotZonePlacement,
    OfflineKMeansPlacement,
    OnlineClusteringPlacement,
    OptimalPlacement,
    PlacementProblem,
    RandomPlacement,
    average_access_delay,
)

ALL_STRATEGIES = [
    RandomPlacement(),
    OfflineKMeansPlacement(),
    OnlineClusteringPlacement(micro_clusters=6, migration_rounds=2),
    OptimalPlacement(),
    GreedyPlacement(),
    HotZonePlacement(),
]


@pytest.fixture(scope="module")
def problem():
    matrix = small_matrix(n=40, seed=3)
    result = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(dim=3))
    rng = np.random.default_rng(5)
    candidates = tuple(int(i) for i in rng.choice(40, size=10, replace=False))
    clients = tuple(i for i in range(40) if i not in candidates)
    return PlacementProblem(matrix, candidates, clients, k=3,
                            coords=result.coords)


class TestPlacementProblem:
    def test_validation(self, problem):
        with pytest.raises(ValueError, match="k must be positive"):
            PlacementProblem(problem.matrix, problem.candidates,
                             problem.clients, k=0)
        with pytest.raises(ValueError, match="candidate"):
            PlacementProblem(problem.matrix, (), problem.clients, k=1)
        with pytest.raises(ValueError, match="client"):
            PlacementProblem(problem.matrix, problem.candidates, (), k=1)
        with pytest.raises(ValueError, match="outside matrix"):
            PlacementProblem(problem.matrix, (999,), problem.clients, k=1)
        with pytest.raises(ValueError, match="distinct"):
            PlacementProblem(problem.matrix, (1, 1), problem.clients, k=1)
        with pytest.raises(ValueError, match="coords"):
            PlacementProblem(problem.matrix, problem.candidates,
                             problem.clients, k=1, coords=np.zeros((3, 2)))

    def test_effective_k_caps(self, problem):
        big = PlacementProblem(problem.matrix, problem.candidates[:2],
                               problem.clients, k=5, coords=problem.coords)
        assert big.effective_k == 2

    def test_require_coords_raises_without(self, problem):
        bare = PlacementProblem(problem.matrix, problem.candidates,
                                problem.clients, k=2)
        with pytest.raises(ValueError, match="coordinates"):
            bare.require_coords()

    def test_coord_slices(self, problem):
        assert problem.candidate_coords().shape == (10, 3)
        assert problem.client_coords().shape == (30, 3)


class TestAverageAccessDelay:
    def test_single_site(self, problem):
        sites = [problem.candidates[0]]
        expected = problem.matrix.rows(problem.clients, sites).mean()
        assert average_access_delay(problem.matrix, problem.clients,
                                    sites) == pytest.approx(expected)

    def test_more_sites_never_hurt(self, problem):
        one = average_access_delay(problem.matrix, problem.clients,
                                   problem.candidates[:1])
        all_sites = average_access_delay(problem.matrix, problem.clients,
                                         problem.candidates)
        assert all_sites <= one

    def test_rejects_empty(self, problem):
        with pytest.raises(ValueError):
            average_access_delay(problem.matrix, [], [0])
        with pytest.raises(ValueError):
            average_access_delay(problem.matrix, [0], [])


class TestStrategyContracts:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                             ids=lambda s: s.name)
    def test_returns_k_distinct_candidates(self, problem, strategy):
        sites = strategy.place(problem, np.random.default_rng(0))
        assert len(sites) == 3
        assert len(set(sites)) == 3
        assert all(s in problem.candidates for s in sites)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                             ids=lambda s: s.name)
    def test_deterministic_given_rng(self, problem, strategy):
        s1 = strategy.place(problem, np.random.default_rng(11))
        s2 = strategy.place(problem, np.random.default_rng(11))
        assert s1 == s2

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                             ids=lambda s: s.name)
    def test_k1(self, problem, strategy):
        p1 = PlacementProblem(problem.matrix, problem.candidates,
                              problem.clients, k=1, coords=problem.coords)
        sites = strategy.place(p1, np.random.default_rng(0))
        assert len(sites) == 1

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                             ids=lambda s: s.name)
    def test_k_equals_candidates(self, problem, strategy):
        pk = PlacementProblem(problem.matrix, problem.candidates[:4],
                              problem.clients, k=4, coords=problem.coords)
        sites = strategy.place(pk, np.random.default_rng(0))
        assert sorted(sites) == sorted(pk.candidates)


class TestQualityOrdering:
    """The relationships the paper's figures rest on."""

    def test_optimal_is_lower_bound(self, problem):
        rng = np.random.default_rng(1)
        opt = average_access_delay(
            problem.matrix, problem.clients,
            OptimalPlacement().place(problem, rng))
        for strategy in ALL_STRATEGIES:
            delay = average_access_delay(
                problem.matrix, problem.clients,
                strategy.place(problem, np.random.default_rng(2)))
            assert opt <= delay + 1e-9

    def test_informed_strategies_beat_random_on_average(self, problem):
        random_delays = []
        online_delays = []
        offline_delays = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            random_delays.append(average_access_delay(
                problem.matrix, problem.clients,
                RandomPlacement().place(problem, rng)))
            online_delays.append(average_access_delay(
                problem.matrix, problem.clients,
                OnlineClusteringPlacement(micro_clusters=6).place(
                    problem, np.random.default_rng(seed))))
            offline_delays.append(average_access_delay(
                problem.matrix, problem.clients,
                OfflineKMeansPlacement().place(
                    problem, np.random.default_rng(seed))))
        assert np.mean(online_delays) < np.mean(random_delays)
        assert np.mean(offline_delays) < np.mean(random_delays)

    def test_greedy_close_to_optimal(self, problem):
        rng = np.random.default_rng(0)
        opt = average_access_delay(problem.matrix, problem.clients,
                                   OptimalPlacement().place(problem, rng))
        greedy = average_access_delay(problem.matrix, problem.clients,
                                      GreedyPlacement().place(problem, rng))
        assert greedy <= opt * 1.2


class TestOnlineSpecifics:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OnlineClusteringPlacement(micro_clusters=0)
        with pytest.raises(ValueError):
            OnlineClusteringPlacement(migration_rounds=0)
        with pytest.raises(ValueError):
            OnlineClusteringPlacement(accesses_per_client=0)
        with pytest.raises(ValueError):
            OnlineClusteringPlacement(selection="psychic")

    def test_summary_bytes_tracked_and_bounded(self, problem):
        strategy = OnlineClusteringPlacement(micro_clusters=6,
                                             migration_rounds=2)
        strategy.place(problem, np.random.default_rng(0))
        per_cluster = 16 + 2 * 8 * 3  # dim 3
        upper = 2 * 3 * 6 * per_cluster  # rounds * k * m * size
        assert 0 < strategy.last_summary_bytes <= upper

    def test_true_selection_mode(self, problem):
        strategy = OnlineClusteringPlacement(micro_clusters=6,
                                             selection="true")
        sites = strategy.place(problem, np.random.default_rng(0))
        assert len(sites) == 3


class TestOptimalSpecifics:
    def test_search_space_guard(self, problem):
        strategy = OptimalPlacement(max_combinations=10)
        with pytest.raises(ValueError, match="search space"):
            strategy.place(problem, np.random.default_rng(0))

    def test_beats_every_other_combination(self):
        matrix = small_matrix(n=12, seed=1)
        candidates = tuple(range(5))
        clients = tuple(range(5, 12))
        problem = PlacementProblem(matrix, candidates, clients, k=2)
        sites = OptimalPlacement().place(problem, np.random.default_rng(0))
        best = average_access_delay(matrix, clients, sites)
        from itertools import combinations
        for combo in combinations(candidates, 2):
            assert best <= average_access_delay(matrix, clients, combo) + 1e-9


    def test_backends_agree(self, problem):
        rng = np.random.default_rng(0)
        with kernels.use_backend("python"):
            oracle = OptimalPlacement().place(problem, rng)
        assert OptimalPlacement().place(problem, rng) == oracle

    def test_effective_k_caps_the_search(self, problem):
        capped = PlacementProblem(problem.matrix, problem.candidates[:4],
                                  problem.clients, k=9)
        sites = OptimalPlacement().place(capped, np.random.default_rng(0))
        assert sites == problem.candidates[:4]

    @pytest.mark.parametrize("backend", kernels.BACKENDS)
    def test_unreachable_client_is_a_clear_error(self, backend):
        def problem_with(unreachable, k):
            rtt = np.full((6, 6), 10.0)
            np.fill_diagonal(rtt, 0.0)
            for client, candidate in unreachable:
                rtt[client, candidate] = rtt[candidate, client] = np.inf
            return PlacementProblem(LatencyMatrix(rtt), (0, 1, 2), (3, 4, 5),
                                    k=k)

        rng = np.random.default_rng(0)
        with kernels.use_backend(backend):
            # Client 4 reaches no candidate; client 5 still reaches 1, 2.
            cut_off = problem_with([(4, 0), (4, 1), (4, 2), (5, 0)], k=2)
            with pytest.raises(ValueError, match="client 4 has no finite RTT"):
                OptimalPlacement().place(cut_off, rng)
            # Every client reaches someone, yet no single site serves all.
            split = problem_with([(4, 0), (4, 2), (5, 1), (5, 2)], k=1)
            with pytest.raises(ValueError,
                               match="no 1-subset of the candidates"):
                OptimalPlacement().place(split, rng)
            assert len(OptimalPlacement().place(
                problem_with([(4, 0), (4, 2), (5, 1), (5, 2)], k=2), rng)) == 2


class TestHotZoneSpecifics:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="cell"):
            HotZonePlacement(cells_per_axis=0)

    def test_concentrated_population_gets_local_replica(self):
        # All clients in one corner: hotzone must pick the candidate
        # nearest that corner first.
        matrix = small_matrix(n=20, seed=7)
        coords = np.zeros((20, 2))
        coords[10:] = [1.0, 1.0]           # clients cluster at (1, 1)
        coords[0] = [100.0, 100.0]          # far candidate
        coords[1] = [2.0, 2.0]              # near candidate
        problem = PlacementProblem(matrix, (0, 1), tuple(range(10, 20)),
                                   k=1, coords=coords)
        sites = HotZonePlacement(cells_per_axis=4).place(
            problem, np.random.default_rng(0))
        assert sites == (1,)
