"""Unit tests for the sharded catalog and its migration budget."""

import numpy as np
import pytest

from repro.catalog import (
    MigrationBudget,
    PlacementGroups,
    ShardedCatalog,
    keyspace,
)
from repro.coords import EuclideanSpace, embed_matrix
from repro.net.planetlab import small_matrix
from repro.sim import Simulator
from repro.store import ReplicatedStore


def build_store(seed=0, n=20, n_dc=5):
    matrix = small_matrix(n=n, seed=seed)
    coords = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(3)).coords
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, matrix, tuple(range(n_dc)), coords,
                            selection="oracle")
    return sim, store


class TestMigrationBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            MigrationBudget(-1, 1000.0)
        with pytest.raises(ValueError, match="window"):
            MigrationBudget(5, 0.0)

    def test_charge_and_window_roll(self):
        budget = MigrationBudget(5, window_ms=1000.0)
        assert budget.remaining(100.0) == 5
        budget.charge(100.0, 3)
        assert budget.remaining(900.0) == 2
        budget.charge(900.0, 4)            # overdraw clamps at zero
        assert budget.remaining(950.0) == 0
        # A new window refills the pool; the grand total keeps counting.
        assert budget.remaining(1_100.0) == 5
        assert budget.total_granted == 7


class TestShardedCatalogConstruction:
    def test_basic_sharding(self):
        _, store = build_store()
        catalog = ShardedCatalog(store, keyspace(40), n_shards=4, k=2)
        assert catalog.n_keys == 40
        assert catalog.n_groups == 40
        assert catalog.n_shards == 4
        assert sorted(catalog.keys()) == list(keyspace(40))
        assert sum(s.n_keys for s in catalog.shards) == 40
        for key in keyspace(40):
            shard = catalog.shard_of_key(key)
            assert key in catalog.shards[shard].unit_keys

    def test_groups_fold_keys_into_units(self):
        _, store = build_store()
        keys = keyspace(20)
        catalog = ShardedCatalog(store, keys, n_shards=2,
                                 groups=PlacementGroups.chunked(keys, 5),
                                 k=2)
        assert catalog.n_groups == 4
        assert len(store.unit_keys()) == 4
        # All members of a group live on the same shard as their unit.
        for key in keys:
            unit = catalog.groups.group_of(key)
            assert catalog.shard_of_key(key) == \
                catalog.ring.shard_of(unit)

    def test_home_coordinators_assigned_round_robin(self):
        _, store = build_store(n_dc=3)
        catalog = ShardedCatalog(store, keyspace(12), n_shards=5, k=2)
        homes = [catalog.shard_coordinator(s) for s in range(5)]
        assert homes == [store.candidates[s % 3] for s in range(5)]
        # Every unit's elected coordinator starts at its shard's home.
        for shard in catalog.shards:
            for unit in shard.unit_keys:
                assert store.current_coordinator(unit) == shard.home

    def test_validation(self):
        _, store = build_store()
        with pytest.raises(ValueError, match="at least one key"):
            ShardedCatalog(store, [])
        with pytest.raises(ValueError, match="distinct"):
            ShardedCatalog(store, ["a", "a"])
        with pytest.raises(ValueError, match="stagger"):
            ShardedCatalog(store, ["a"], epoch_stagger=1.5)
        with pytest.raises(ValueError, match="epoch period"):
            ShardedCatalog(store, ["a"], max_epoch_moves=4)
        with pytest.raises(ValueError, match="partition"):
            ShardedCatalog(store, ["a", "b"],
                           groups=PlacementGroups.singletons(["a"]))

    def test_adopt_epoch_process_refuses_double_clock(self):
        _, store = build_store()
        store.create_object("obj", k=2, epoch_period_ms=1_000.0)
        with pytest.raises(ValueError, match="epoch clock"):
            store.adopt_epoch_process("obj", object())

    def test_invalid_home_coordinator_rejected(self):
        _, store = build_store()
        with pytest.raises(ValueError, match="home coordinator"):
            store.create_object("obj", k=2, home_coordinator=999)


class TestCatalogEpochs:
    def test_epochs_fire_and_stats_accumulate(self):
        sim, store = build_store()
        catalog = ShardedCatalog(store, keyspace(8), n_shards=2, k=2,
                                 epoch_period_ms=1_000.0,
                                 epoch_stagger=1.0)
        sim.run_until(5_500.0)
        stats = catalog.shard_stats()
        assert sum(row["epochs"] for row in stats) > 0
        assert {row["shard"] for row in stats} == {0, 1}
        for row in stats:
            assert set(row) == {"shard", "home", "groups", "keys",
                                "epochs", "moves", "failovers"}

    def test_stop_halts_epoch_clocks(self):
        sim, store = build_store()
        catalog = ShardedCatalog(store, keyspace(4), k=2,
                                 epoch_period_ms=1_000.0)
        sim.run_until(2_500.0)
        before = sum(s.epochs for s in catalog.shards)
        assert before > 0
        catalog.stop()
        sim.run_until(9_500.0)
        assert sum(s.epochs for s in catalog.shards) == before

    def test_zero_budget_blocks_all_moves(self):
        sim, store = build_store()
        catalog = ShardedCatalog(store, keyspace(12), n_shards=3, k=2,
                                 epoch_period_ms=1_000.0,
                                 epoch_stagger=1.0,
                                 max_epoch_moves=0)
        # Drive some traffic so controllers would otherwise migrate.
        from repro.store import BatchedAccessWorkload
        from repro.workloads import ClientPopulation
        clients = [c for c in range(store.network.matrix.n)
                   if c not in store.candidates]
        BatchedAccessWorkload(store, ClientPopulation.uniform(clients),
                              list(catalog.keys()), rate_per_second=200.0)
        sim.run_until(10_000.0)
        assert sum(s.epochs for s in catalog.shards) > 0
        assert sum(s.moves for s in catalog.shards) == 0
        assert catalog.budget.total_granted == 0

    def test_budget_caps_moves_per_window(self):
        sim, store = build_store()
        limit = 2
        catalog = ShardedCatalog(store, keyspace(12), n_shards=3, k=2,
                                 epoch_period_ms=1_000.0,
                                 epoch_stagger=1.0,
                                 max_epoch_moves=limit)
        from repro.store import BatchedAccessWorkload
        from repro.workloads import ClientPopulation
        clients = [c for c in range(store.network.matrix.n)
                   if c not in store.candidates]
        BatchedAccessWorkload(store, ClientPopulation.uniform(clients),
                              list(catalog.keys()), rate_per_second=200.0)
        horizon = 10_000.0
        sim.run_until(horizon)
        windows = int(horizon / 1_000.0) + 1
        assert catalog.budget.total_granted <= limit * windows
