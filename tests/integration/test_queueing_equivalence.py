"""Differential certification of server queueing and replica selection.

Two contracts, both exact; ``batched`` is the production driver,
``event`` the per-event oracle of ``repro.workloads._reference``:

1. **Degenerate-case bitwise preservation.**  A queueing config whose
   service time is identically zero (and whose queue is unbounded) —
   and an explicitly passed ``nearest`` strategy — must leave every
   observable byte of a run identical to the pre-queueing store, on
   both drivers.  This anchors the whole extension: the paper's
   RTT-only data plane is the exact degenerate case, not a separate
   code path.

2. **Exactness of the escalate-all path.**  An active server queue
   (any service model, bounded or not) and pending-aware selection
   strategies make the batched engine replay every arrival through the
   per-event machinery; those runs must be byte-identical to the
   per-event oracle outright, with ``queue_stats`` conserving offered =
   accepted + rejected.  No configuration of the production driver is
   approximate, ``nearest`` + unbounded queue included.
"""

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
from repro.workloads import ClientPopulation
from repro.workloads._reference import AccessWorkload

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


def _assert_escalate_all_exact(seed, horizon_ms=10_000.0, **config):
    """Contract 2 on one configuration; returns the shared snapshot."""
    store_event, _ = _run(seed, "event", horizon_ms, **config)
    store_batched, w = _run(seed, "batched", horizon_ms, **config)
    assert w.engine._escalate_all
    event, batched = _snapshot(store_event), _snapshot(store_batched)
    assert len(event["log"]) > 1_000
    assert event == batched
    stats = event["queue_stats"]
    assert stats["accepted"] > 0
    assert stats["offered"] == stats["accepted"] + stats["rejected"]
    return event


@pytest.mark.parametrize("strategy", ["least-pending", "c3"])
def test_pending_aware_strategies_identical_across_engines(strategy):
    """Contract 2: escalate-all replays are exact, not approximate."""
    _assert_escalate_all_exact(
        11, queueing=QueueingConfig(service=DeterministicService(2.0)),
        strategy=strategy)


def test_bounded_queue_identical_across_engines_and_rejects():
    """Contract 2: capacity-bounded admission is replayed exactly."""
    event = _assert_escalate_all_exact(
        13, timeout=120.0,
        queueing=QueueingConfig(service=DeterministicService(8.0),
                                queue_capacity=2))
    assert event["queue_rejections"] > 0
    assert event["queue_stats"]["rejected"] == event["queue_rejections"]


@pytest.mark.parametrize("seed, horizon_ms, config", [
    (17, 10_000.0,
     dict(queueing=QueueingConfig(service=DeterministicService(1.0)))),
    (17, 10_000.0,
     dict(queueing=QueueingConfig(service=DeterministicService(4.0)))),
    (17, 10_000.0,
     dict(queueing=QueueingConfig(service=LogNormalService(3.0, 0.5)))),
    (22, 20_000.0,
     dict(queueing=QueueingConfig(service=DeterministicService(4.0)),
          timeout=80.0, write_fraction=0.05, quorum=2, rate=150.0,
          epoch_period_ms=500.0)),
], ids=["deterministic-1ms", "deterministic-4ms", "lognormal-3ms",
        "writes-quorum-timeout"])
def test_nearest_with_active_queue_identical_across_engines(seed, horizon_ms,
                                                            config):
    """Contract 2: ``nearest`` + active service + unbounded queue, whose
    waits depend on admission order alone (no re-ranking, no rejection),
    across service models and with writes, quorum reads and timeouts."""
    _assert_escalate_all_exact(seed, horizon_ms, **config)
