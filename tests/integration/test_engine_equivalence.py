"""Differential suite: the batched data plane vs the per-event oracle.

The production driver (``BatchedAccessWorkload``) is certified against
``repro.workloads._reference.AccessWorkload``, the one-heap-event-per-
access tick process that only tests import.  The contract is *exact*
equivalence, not statistical similarity: for the same seed the driver
must leave every piece of observable simulation state bitwise identical
to the per-event reference path — access-log records (times, servers,
delays, versions, staleness), network byte/message accounting (global,
per kind, per node), the controller's micro-cluster summaries (the
placement inputs), the epoch reports and installed replica sets (the
placement decisions), and the failure counters.  Only scheduler
internals (``events_processed``) may differ, because not scheduling
per-access events is the whole point.

The tier-1 matrix covers five seeds of the paper's read-only setting,
one seed with every extension armed at once (quorum reads, read
timeouts, writes, multiple objects, short epochs), a coordinate-routed
store under live gossip, the bundled chaos smoke scenario, and every
bundled correlated-outage scenario (dense fault schedules +
availability-aware placement); the nightly ``slow`` matrix widens the
per-feature coverage and runs *every* bundled ``examples/chaos/*.toml``
(globbed, so a new example is certified without an edit) on a five-seed
differential matrix.

A whole ``run_scenario`` runs on the oracle by monkeypatching the driver
name the harness resolves (``repro.store.BatchedAccessWorkload``; same
constructor signature) — there is no selector to pass.
"""

import glob
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.sim import CoordinateGossip, Network, Simulator
from repro.store import BatchedAccessWorkload, ConsistencyConfig, ReplicatedStore
from repro.workloads import ClientPopulation
from repro.workloads._reference import AccessWorkload

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

N_NODES = 24
N_DC = 8


def _build(seed, workload_cls, *, quorum=1, timeout=None, write_fraction=0.0,
           n_keys=1, epoch_period_ms=None):
    rng = np.random.default_rng(seed + 999)
    coords = rng.normal(size=(N_NODES, 2)) * 40
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    matrix = LatencyMatrix((rtt + rtt.T) / 2)
    sim = Simulator(seed=seed)
    store = ReplicatedStore(
        sim, matrix, list(range(N_DC)), coords,
        consistency=ConsistencyConfig(read_quorum=quorum),
        read_timeout_ms=timeout)
    keys = [f"obj{i}" for i in range(n_keys)]
    for key in keys:
        store.create_object(key, size_gb=0.5, k=3,
                            epoch_period_ms=epoch_period_ms)
    population = ClientPopulation.uniform(list(range(N_DC, N_NODES)))
    workload = workload_cls(store, population, keys, rate_per_second=400.0,
                            write_fraction=write_fraction)
    return sim, store, workload


def _snapshot(store):
    """Every store-observable outcome of a run, as comparable values."""
    net = store.network
    snapshot = {
        "log": [(r.time, r.client, r.server, r.key, r.delay_ms, r.kind,
                 r.version, r.stale) for r in store.log.records],
        "net": (net.stats.messages_sent, net.stats.messages_received,
                net.stats.bytes_sent, net.stats.bytes_received),
        "net_per_kind": dict(net.per_kind_bytes),
        "net_per_node": {node: (s.messages_sent, s.messages_received,
                                s.bytes_sent, s.bytes_received)
                         for node, s in net.per_node.items()},
        "dropped": net.messages_dropped,
        "failed_reads": store.failed_reads,
    }
    controllers = {}
    for unit_key, unit in store._units.items():
        controller = unit.controller
        controllers[unit_key] = {
            "sites": tuple(sorted(unit.installed)),
            "reports": list(unit.epoch_reports),
            "summaries": {
                server: (summary.accesses, summary.bytes_served,
                         [(cf.count, cf.weight,
                           tuple(cf.linear_sum.tolist()),
                           tuple(cf.square_sum.tolist()))
                          for cf in summary.snapshot()])
                for server, summary in controller._summaries.items()},
        }
    snapshot["controllers"] = controllers
    return snapshot


def _assert_runs_match(seed, horizon_ms=15_000.0, **config):
    results = []
    for workload_cls in (AccessWorkload, BatchedAccessWorkload):
        sim, store, _ = _build(seed, workload_cls, **config)
        sim.run_until(horizon_ms)
        results.append(_snapshot(store))
    event, batched = results
    assert len(event["log"]) > 1_000, "run produced too little traffic"
    for field in event:
        assert event[field] == batched[field], \
            f"drivers diverge in {field!r} (seed={seed}, config={config})"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_read_only_world_identical(seed):
    """The paper's setting: uniform read-only clients, one object."""
    _assert_runs_match(seed)


def test_all_extensions_armed_identical():
    """Quorum reads + timeouts + writes + multi-object + short epochs."""
    _assert_runs_match(7, quorum=2, timeout=60.0, write_fraction=0.05,
                      n_keys=2, epoch_period_ms=3_000.0)


def test_live_gossip_coordinate_routed_store_identical():
    """``selection="coords"`` under live ``CoordinateGossip``: every
    gossip message is a barrier and moves the coordinates reads are
    routed by, so the route cache is off and each window re-derives its
    groups from the coordinates of that instant."""
    from repro.analysis import draw_candidates
    from repro.core import ControllerConfig, MigrationPolicy
    from repro.net import PlanetLabParams, synthetic_planetlab_matrix

    matrix, _ = synthetic_planetlab_matrix(PlanetLabParams(n=40), seed=23)
    candidates, clients = draw_candidates(matrix, 8,
                                          np.random.default_rng(24))
    results = []
    for workload_cls in (AccessWorkload, BatchedAccessWorkload):
        sim = Simulator(seed=23)
        gossip = CoordinateGossip(Network(sim, matrix), system="rnp",
                                  period=300.0)
        sim.run_until(15_000.0)  # coordinate warm-up
        store = ReplicatedStore(sim, matrix, candidates, gossip,
                                selection="coords")
        store.create_object(
            "obj", k=3,
            controller_config=ControllerConfig(k=3, max_micro_clusters=10),
            policy=MigrationPolicy(min_relative_gain=0.02,
                                   min_absolute_gain_ms=0.5),
            epoch_period_ms=5_000.0)
        workload_cls(store, ClientPopulation.uniform(clients), ["obj"],
                     rate_per_second=150.0)
        sim.run_until(40_000.0)
        results.append(_snapshot(store))
    reference, production = results
    assert len(reference["log"]) > 3_000
    assert len(reference["controllers"]["obj"]["reports"]) >= 4
    for field in reference:
        assert reference[field] == production[field], \
            f"drivers diverge in {field!r} under live gossip"


def _run_bundled(filename, monkeypatch, *, reference, seed=None):
    """One faulty ``run_scenario`` cell of a bundled chaos file, on the
    production driver or (harness name patched) on the oracle."""
    from repro.chaos import load_scenario
    from repro.chaos.harness import run_scenario

    scenario = load_scenario(os.path.join(EXAMPLES, "chaos", filename))
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr("repro.store.BatchedAccessWorkload",
                          AccessWorkload)
        return run_scenario(scenario, run_index=0, faulty=True)


def test_bundled_chaos_scenario_outcomes_identical(monkeypatch):
    """The bundled smoke scenario's chaos outcome is driver-independent.

    Crashes, a partition and a flaky link all land mid-run; the faulty
    arm's full counter set (reads, failures, failovers, migrations,
    repairs, final replica sites) must not depend on the driver.
    """
    event = _run_bundled("smoke.toml", monkeypatch, reference=True)
    batched = _run_bundled("smoke.toml", monkeypatch, reference=False)
    assert asdict(event) == asdict(batched)
    assert event.crashes > 0 and event.partitions > 0


OUTAGE_SCENARIOS = ("rack_outage.toml", "dc_outage.toml",
                    "region_outage.toml")
ALL_SCENARIOS = sorted(os.path.basename(path) for path in glob.glob(
    os.path.join(EXAMPLES, "chaos", "*.toml")))


@pytest.mark.parametrize("filename", OUTAGE_SCENARIOS)
def test_correlated_outage_outcomes_identical(filename, monkeypatch):
    """Dense correlated-fault schedules are the batched engine's worst
    case (every crash/recovery is a global barrier and expires every
    route the engine cached); every bundled outage
    scenario — availability refinement, hotspot population, domain
    strike and all — must come out byte-identical on both drivers."""
    event = _run_bundled(filename, monkeypatch, reference=True)
    batched = _run_bundled(filename, monkeypatch, reference=False)
    assert asdict(event) == asdict(batched)
    assert event.crashes >= 2 and event.replicas_lost >= 1


@pytest.mark.slow
@pytest.mark.parametrize("filename", ALL_SCENARIOS)
@pytest.mark.parametrize("seed", [None, 31, 37, 41, 43],
                         ids=lambda seed: "own" if seed is None else seed)
def test_bundled_scenario_seed_matrix_identical(filename, seed, monkeypatch):
    """Nightly: every bundled scenario at its own seed and re-seeded
    onto fresh worlds — a five-seed differential matrix per file.  (The
    scenarios' own acceptance margins are tuned per bundled seed; driver
    equivalence must hold on every world.)"""
    event = _run_bundled(filename, monkeypatch, reference=True, seed=seed)
    batched = _run_bundled(filename, monkeypatch, reference=False,
                           seed=seed)
    assert asdict(event) == asdict(batched)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("config", [
    dict(quorum=2),
    dict(timeout=80.0),
    dict(write_fraction=0.1),
    dict(n_keys=3, epoch_period_ms=4_000.0),
], ids=["quorum", "timeout", "writes", "multikey-epochs"])
def test_feature_matrix_identical(seed, config):
    """Nightly: each extension alone, longer horizon, extra seeds."""
    _assert_runs_match(seed, horizon_ms=30_000.0, **config)
