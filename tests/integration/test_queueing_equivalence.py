"""Differential certification of server queueing and replica selection.

Three contracts, in increasing strength:

1. **Degenerate-case bitwise preservation.**  A queueing config whose
   service time is identically zero (and whose queue is unbounded) —
   and an explicitly passed ``nearest`` strategy — must leave every
   observable byte of a run identical to the pre-queueing store, on
   both engines.  This anchors the whole extension: the paper's
   RTT-only data plane is the exact degenerate case, not a separate
   code path.

2. **Exactness of the escalate-all path.**  Pending-aware selection
   strategies and capacity-bounded queues force the batched engine to
   replay every arrival through the per-event machinery; those runs
   must be byte-identical to the per-event oracle outright.

3. **Bounded error of the bulk window approximation.**  With an
   unbounded queue and ``nearest`` selection the batched engine serves
   whole windows through a vectorized Lindley recursion.  Per access,
   its delay may differ from the oracle's by at most
   ``(per-event admissions) x s`` for deterministic service ``s`` —
   the bound documented in docs/queueing.md — and the per-event
   admission count is observable as ``queue offered - bulk admissions``.

4. **The queued window holds still.**  Contract 3 only bounds the
   queued-window regime against the oracle; golden digests recorded at
   the commit before the window pipeline was unified pin it against
   itself, bit for bit, across service models, timeouts, writes, read
   quorums and placement epochs.
"""

import hashlib

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import (
    BatchedAccessWorkload,
    ConsistencyConfig,
    DeterministicService,
    LogNormalService,
    QueueingConfig,
    ReplicatedStore,
)
from repro.workloads import AccessWorkload, ClientPopulation

N_NODES = 24
N_DC = 8


def _build(seed, engine, *, queueing=None, strategy="nearest",
           timeout=None, quorum=1, write_fraction=0.0, epoch_period_ms=None,
           rate=400.0):
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
        read_timeout_ms=timeout, queueing=queueing, strategy=strategy)
    store.create_object("obj", size_gb=0.5, k=3,
                        epoch_period_ms=epoch_period_ms)
    population = ClientPopulation.uniform(list(range(N_DC, N_NODES)))
    workload_cls = (BatchedAccessWorkload if engine == "batched"
                    else AccessWorkload)
    workload = workload_cls(store, population, ["obj"],
                            rate_per_second=rate,
                            write_fraction=write_fraction)
    return sim, store, workload


def _snapshot(store):
    """Every access-visible outcome of a run, as comparable values."""
    net = store.network
    return {
        "log": [(r.time, r.client, r.server, r.key, r.delay_ms, r.kind,
                 r.version, r.stale) for r in store.log.records],
        "net": (net.stats.messages_sent, net.stats.messages_received,
                net.stats.bytes_sent, net.stats.bytes_received),
        "dropped": net.messages_dropped,
        "failed_reads": store.failed_reads,
        "queue_stats": store.queue_stats(),
        "queue_rejections": store.queue_rejections,
    }


def _run(seed, engine, horizon_ms=10_000.0, **config):
    sim, store, workload = _build(seed, engine, **config)
    sim.run_until(horizon_ms)
    return store, workload


ZERO_SERVICE_CONFIGS = [
    QueueingConfig(),
    QueueingConfig(service=DeterministicService(0.0)),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("engine", ["event", "batched"])
def test_zero_service_bitwise_identical_to_seed_path(seed, engine):
    """Contract 1: zero service + unbounded queue changes nothing."""
    store_plain, _ = _run(seed, engine)
    baseline = _snapshot(store_plain)
    assert len(baseline["log"]) > 1_000, "run produced too little traffic"
    for queueing in ZERO_SERVICE_CONFIGS:
        assert not queueing.active
        store_q, _ = _run(seed, engine, queueing=queueing)
        assert _snapshot(store_q) == baseline
    # No request was ever admitted into a queue on the fast path.
    assert baseline["queue_stats"] == {"offered": 0, "accepted": 0,
                                       "rejected": 0}


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_explicit_nearest_strategy_is_the_seed_path(engine):
    """Contract 1: passing strategy="nearest" is byte-for-byte free."""
    from repro.store import NearestSelection

    store_default, _ = _run(5, engine)
    store_named, _ = _run(5, engine, strategy="nearest")
    store_object, _ = _run(5, engine, strategy=NearestSelection())
    assert _snapshot(store_named) == _snapshot(store_default)
    assert _snapshot(store_object) == _snapshot(store_default)


@pytest.mark.parametrize("strategy", ["least-pending", "c3"])
def test_pending_aware_strategies_identical_across_engines(strategy):
    """Contract 2: escalate-all replays are exact, not approximate."""
    queueing = QueueingConfig(service=DeterministicService(2.0))
    store_event, _ = _run(11, "event", queueing=queueing,
                          strategy=strategy)
    store_batched, w = _run(11, "batched", queueing=queueing,
                            strategy=strategy)
    assert w.engine._escalate_all
    event, batched = _snapshot(store_event), _snapshot(store_batched)
    assert len(event["log"]) > 1_000
    assert event == batched
    assert event["queue_stats"]["accepted"] > 0


def test_bounded_queue_identical_across_engines_and_rejects():
    """Contract 2: capacity-bounded admission is replayed exactly."""
    queueing = QueueingConfig(service=DeterministicService(8.0),
                              queue_capacity=2)
    store_event, _ = _run(13, "event", queueing=queueing, timeout=120.0)
    store_batched, w = _run(13, "batched", queueing=queueing,
                            timeout=120.0)
    assert w.engine._escalate_all
    event, batched = _snapshot(store_event), _snapshot(store_batched)
    assert event == batched
    assert event["queue_rejections"] > 0
    stats = event["queue_stats"]
    assert stats["rejected"] == event["queue_rejections"]
    assert stats["offered"] == stats["accepted"] + stats["rejected"]


@pytest.mark.parametrize("service_ms", [1.0, 4.0])
def test_bulk_window_error_bounded_by_demoted_admissions(service_ms):
    """Contract 3: the vectorized window recursion's documented bound.

    Sorted-delay pairing minimizes the bottleneck distance over all
    pairings, so if every access's delay is within ``admissions x s``
    of its oracle twin under *some* pairing, the sorted sequences are
    too — which makes the assertion valid without reconstructing the
    engine's access identity mapping.
    """
    queueing = QueueingConfig(service=DeterministicService(service_ms))
    store_event, _ = _run(17, "event", queueing=queueing)
    store_batched, w = _run(17, "batched", queueing=queueing)
    assert not w.engine._escalate_all

    event_delays = np.sort(store_event.log.delays("read"))
    batched_delays = np.sort(store_batched.log.delays("read"))
    assert event_delays.size == batched_delays.size > 1_000

    stats = store_batched.queue_stats()
    per_event_admissions = (stats["offered"]
                            - w.engine.bulk_queue_admissions)
    assert per_event_admissions >= 0
    bound = per_event_admissions * service_ms
    worst = float(np.abs(event_delays - batched_delays).max())
    assert worst <= bound + 1e-9, \
        f"delay error {worst} exceeds documented bound {bound}"
    # The window path must actually be doing the bulk work: the
    # overwhelming majority of admissions go through the vectorized
    # recursion, not the per-event fallback.
    assert w.engine.bulk_queue_admissions > 0.9 * stats["offered"]
    # Both engines drain the same offered load.
    assert stats == store_event.queue_stats()


def _queued_window_digest(store, engine):
    snapshot = _snapshot(store)
    parts = (snapshot["log"], snapshot["net"], snapshot["queue_stats"],
             snapshot["failed_reads"], store.installed_sites("obj"),
             engine.queue_demotions, engine.bulk_queue_admissions)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


#: (seed, build config) -> sha256 recorded at parent commit 6f53e97,
#: i.e. by the three-regime engine's queued window, before any change
#: under src/.  A digest moves only if some observable bit of the
#: queued-window regime does.
QUEUED_WINDOW_GOLDENS = [
    (21, dict(queueing=QueueingConfig(service=DeterministicService(2.0)),
              epoch_period_ms=3_000.0),
     "9ad8a680013f1749499827aeef0ee40bedbf11dd9e0efe78d0898a2d081eb96b"),
    (22, dict(queueing=QueueingConfig(service=DeterministicService(4.0)),
              timeout=80.0, write_fraction=0.05, quorum=2, rate=150.0,
              epoch_period_ms=500.0),
     "b25f318e5af80c764422e6d934c390d0e1396a0cc8e44dc529cab8f93c9beeb3"),
    (23, dict(queueing=QueueingConfig(service=LogNormalService(3.0, 0.5)),
              timeout=60.0, write_fraction=0.02, quorum=2, rate=120.0,
              epoch_period_ms=400.0),
     "395f7fa4ddf9a13c2eca9246cb1616c1ecff8b1c97c5ea0782141712451bd8ab"),
    (24, dict(queueing=QueueingConfig(service=DeterministicService(6.0)),
              timeout=120.0, write_fraction=0.10, quorum=3, rate=60.0,
              epoch_period_ms=300.0),
     "cc5a9c5cbacdb1d5836da012f80371e5deab6b247ba88ed0f4692fb1c9a23ce1"),
]


@pytest.mark.parametrize("seed, config, golden", QUEUED_WINDOW_GOLDENS,
                         ids=[f"seed{g[0]}" for g in QUEUED_WINDOW_GOLDENS])
def test_queued_window_matches_parent_recorded_digest(seed, config, golden):
    """Contract 4: the queued-window regime is bit-stable against itself."""
    store, w = _run(seed, "batched", horizon_ms=20_000.0, **config)
    assert not w.engine._escalate_all
    assert w.engine.bulk_queue_admissions > 0
    assert _queued_window_digest(store, w.engine) == golden
