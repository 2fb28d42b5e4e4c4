"""Differential suite for the sharded catalog.

Three contracts, all exact rather than statistical:

* **Degenerate identity** — a one-shard catalog of singleton groups
  with no stagger and no budget is *bitwise identical* to creating
  each object directly with ``ReplicatedStore.create_object``: same
  access log, same network accounting, same summaries, same epoch
  reports, same installed replica sets.  Certified on both drivers —
  ``batched`` is the production ``BatchedAccessWorkload``, ``event`` the
  per-event oracle of ``repro.workloads._reference`` — over three seeds.
* **Shard-count invariance** — for a fixed seed, the data-plane
  surface (access log, placements, versions) and the placement-
  relevant epoch report fields do not depend on how many shards the
  catalog is split into; only control-plane topology (which node
  coordinates which unit) changes.
* **Driver equivalence in catalog mode** — a multi-shard, grouped,
  budgeted catalog leaves identical observable state under the
  per-event oracle and the batched data plane.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.catalog import PlacementGroups, ShardedCatalog, keyspace
from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation
from repro.workloads._reference import AccessWorkload

N_NODES = 24
N_DC = 8
N_KEYS = 12
EPOCH_MS = 3_000.0
HORIZON_MS = 16_000.0


def _world(seed):
    rng = np.random.default_rng(seed + 999)
    coords = rng.normal(size=(N_NODES, 2)) * 40
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    return LatencyMatrix((rtt + rtt.T) / 2), coords


def _store(seed):
    matrix, coords = _world(seed)
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, matrix, list(range(N_DC)), coords,
                            selection="oracle")
    return sim, store


def _workload(store, keys, engine):
    population = ClientPopulation.uniform(list(range(N_DC, N_NODES)))
    workload_cls = (BatchedAccessWorkload if engine == "batched"
                    else AccessWorkload)
    return workload_cls(store, population, list(keys),
                        rate_per_second=400.0)


def _full_snapshot(store):
    """Every store-observable outcome, including control-plane state."""
    net = store.network
    snapshot = {
        "log": [(r.time, r.client, r.server, r.key, r.delay_ms, r.kind,
                 r.version, r.stale) for r in store.log.records],
        "net": (net.stats.messages_sent, net.stats.messages_received,
                net.stats.bytes_sent, net.stats.bytes_received),
        "failed_reads": store.failed_reads,
        "units": {},
    }
    for unit_key, unit in store._units.items():
        snapshot["units"][unit_key] = {
            "sites": tuple(sorted(unit.installed)),
            "latest": dict(unit.latest),
            "reports": list(unit.epoch_reports),
        }
    return snapshot


def _data_plane_snapshot(store):
    """The shard-count-invariant surface: everything except control-
    plane topology (which node coordinates, lease terms, summary
    traffic)."""
    snapshot = {
        "log": [(r.time, r.client, r.server, r.key, r.delay_ms, r.kind,
                 r.version, r.stale) for r in store.log.records],
        "failed_reads": store.failed_reads,
        "units": {},
    }
    for unit_key, unit in store._units.items():
        snapshot["units"][unit_key] = {
            "sites": tuple(sorted(unit.installed)),
            "latest": dict(unit.latest),
            "reports": [
                (r.epoch, r.accesses, tuple(r.previous_sites),
                 tuple(r.proposed_sites), r.verdict,
                 r.current_predicted_delay, r.proposed_predicted_delay)
                for r in unit.epoch_reports
            ],
        }
    return snapshot


@pytest.mark.parametrize("engine", ["event", "batched"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_degenerate_catalog_is_bitwise_identical(seed, engine):
    """One shard + singletons + no stagger == per-object create calls."""
    keys = keyspace(N_KEYS)

    sim_a, store_a = _store(seed)
    for key in keys:
        store_a.create_object(key, k=3, epoch_period_ms=EPOCH_MS)
    _workload(store_a, keys, engine)
    sim_a.run_until(HORIZON_MS)

    sim_b, store_b = _store(seed)
    catalog = ShardedCatalog(store_b, keys, n_shards=1,
                             groups=PlacementGroups.singletons(keys),
                             k=3, epoch_period_ms=EPOCH_MS,
                             epoch_stagger=0.0)
    _workload(store_b, catalog.keys(), engine)
    sim_b.run_until(HORIZON_MS)

    manual, sharded = _full_snapshot(store_a), _full_snapshot(store_b)
    assert len(manual["log"]) > 1_000, "run produced too little traffic"
    assert sum(len(u["reports"]) for u in manual["units"].values()) > 0
    for field in manual:
        assert manual[field] == sharded[field], (
            f"degenerate catalog diverges from per-object path in "
            f"{field!r} (seed={seed}, engine={engine})")


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_shard_count_is_invisible_to_the_data_plane(engine):
    """Same seed, 1/2/4/8 shards: identical placements and accesses."""
    keys = keyspace(N_KEYS)
    groups = PlacementGroups.chunked(keys, 3)
    snapshots = {}
    for n_shards in (1, 2, 4, 8):
        sim, store = _store(11)
        catalog = ShardedCatalog(store, keys, n_shards=n_shards,
                                 groups=groups, k=3,
                                 epoch_period_ms=EPOCH_MS,
                                 epoch_stagger=1.0, max_epoch_moves=2)
        _workload(store, catalog.keys(), engine)
        sim.run_until(HORIZON_MS)
        snapshots[n_shards] = _data_plane_snapshot(store)
    reference = snapshots[1]
    assert len(reference["log"]) > 1_000
    for n_shards, snapshot in snapshots.items():
        for field in reference:
            assert snapshot[field] == reference[field], (
                f"{n_shards}-shard catalog diverges from 1-shard in "
                f"{field!r} ({engine} engine)")


@pytest.mark.parametrize("seed", [5, 6])
def test_catalog_engines_equivalent(seed):
    """Grouped, sharded, budgeted catalog: event == batched, exactly."""
    keys = keyspace(N_KEYS)
    groups = PlacementGroups.chunked(keys, 4)
    snapshots = {}
    for engine in ("event", "batched"):
        sim, store = _store(seed)
        catalog = ShardedCatalog(store, keys, n_shards=4, groups=groups,
                                 k=3, epoch_period_ms=EPOCH_MS,
                                 epoch_stagger=1.0, max_epoch_moves=2)
        _workload(store, catalog.keys(), engine)
        sim.run_until(HORIZON_MS)
        snapshots[engine] = _full_snapshot(store)
    event, batched = snapshots["event"], snapshots["batched"]
    assert len(event["log"]) > 1_000
    for field in event:
        assert event[field] == batched[field], (
            f"catalog engines diverge in {field!r} (seed={seed})")
