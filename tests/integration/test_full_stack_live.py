"""Integration: the complete live stack vs the batch methodology.

The figure experiments use a batch shortcut (embed once, place, score).
The deployed system runs everything live: gossip maintains coordinates
as simulator traffic, the store routes by those coordinates, servers
summarize accesses, and the controller migrates.  This test runs both
on the same world and checks the live system lands in the same quality
regime the batch experiments promise.
"""

import numpy as np
import pytest

from repro.analysis import draw_candidates
from repro.analysis.experiment import run_comparison, default_strategies
from repro.core import ControllerConfig, MigrationPolicy
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.placement import average_access_delay
from repro.sim import CoordinateGossip, Network, Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation


@pytest.fixture(scope="module")
def world():
    matrix, topology = synthetic_planetlab_matrix(
        PlanetLabParams(n=70), seed=23)
    return matrix, topology


def test_live_stack_matches_batch_quality(world):
    matrix, _ = world
    candidates, clients = draw_candidates(matrix, 12,
                                          np.random.default_rng(24))

    # --- live: gossip coordinates + store + controller epochs --------
    sim = Simulator(seed=23)
    gossip_net = Network(sim, matrix)
    gossip = CoordinateGossip(gossip_net, system="rnp", period=300.0)
    sim.run_until(45_000.0)  # coordinate warm-up

    store = ReplicatedStore(sim, matrix, candidates, gossip,
                            selection="coords")
    store.create_object(
        "obj", k=3,
        controller_config=ControllerConfig(k=3, max_micro_clusters=10),
        policy=MigrationPolicy(min_relative_gain=0.02,
                               min_absolute_gain_ms=0.5),
        epoch_period_ms=15_000.0,
    )
    BatchedAccessWorkload(store, ClientPopulation.uniform(clients), ["obj"],
                          rate_per_second=150.0)
    sim.run_until(165_000.0)

    live_tail = np.mean([r.delay_ms for r in store.log.records
                         if r.kind == "read" and r.time > 135_000.0])

    # --- batch: the strategies scored directly on true RTTs ----------
    batch = run_comparison(matrix, gossip.planar_coords(),
                           default_strategies(10), n_dc=12, k=3,
                           n_runs=6, seed=23)
    random_mean = float(np.mean(batch["random"]))
    optimal_mean = float(np.mean(batch["optimal"]))

    # The live system (imperfect live coordinates, migration windows,
    # coordinate-predicted routing) must still land far closer to the
    # optimal regime than to random placement.
    assert live_tail < random_mean * 0.75
    assert live_tail < optimal_mean * 2.0

    # And its final placement, scored exactly like the figures, beats
    # the random baseline outright.
    final_sites = store.installed_sites("obj")
    placed = average_access_delay(matrix, clients, final_sites)
    assert placed < random_mean


def test_live_routing_penalty_is_bounded(world):
    matrix, _ = world
    candidates, clients = draw_candidates(matrix, 12,
                                          np.random.default_rng(25))
    sim = Simulator(seed=29)
    gossip_net = Network(sim, matrix)
    gossip = CoordinateGossip(gossip_net, system="rnp", period=300.0)
    sim.run_until(45_000.0)
    store = ReplicatedStore(sim, matrix, candidates, gossip,
                            selection="coords")
    store.create_object("obj", k=3,
                        controller_config=ControllerConfig(
                            k=3, max_micro_clusters=10))
    BatchedAccessWorkload(store, ClientPopulation.uniform(clients), ["obj"],
                          rate_per_second=100.0)
    sim.run_until(90_000.0)

    records = [r for r in store.log.records if r.kind == "read"]
    assert len(records) > 2000
    sites = store.installed_sites("obj")
    oracle = np.array([
        min(matrix.latency(r.client, s) for s in sites) for r in records
    ])
    measured = np.array([r.delay_ms for r in records])
    # Coordinate-predicted replica selection costs a bounded premium
    # over oracle routing to the same replica set.
    assert measured.mean() <= oracle.mean() * 1.4
