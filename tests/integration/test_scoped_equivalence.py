"""Differential suite for scoped barriers: many units, one data plane.

A unit's epoch ticks, summary shipments, replica transfers and retry
timers are *scoped* to that unit (``repro.sim.events``): the batched
data plane cuts a read only at its own unit's barriers, the global ones,
the run horizon and the window's first write.  This suite certifies that
against the per-event oracle (``repro.workloads._reference``) on a store
of eight placement units — five singleton objects and three groups —
with staggered epochs, in every configuration that changes what a window
has to get right: multi-leg quorum columns, per-key reply serialization
under a bandwidth model, scoped retry timers over a lossy link (whose
``"net.loss"`` draws must stay in heap order), migrations in flight, a
unit deleted and re-created under the same key mid-run, and a flush of
one unit's summaries from another unit's epoch.  Every arm compares the
full ``_snapshot`` of ``test_engine_equivalence`` bitwise.
"""

import numpy as np
import pytest

from repro.core import ControllerConfig
from repro.core.migration import MigrationPolicy, RetryPolicy
from repro.net import LatencyMatrix, UniformBandwidth
from repro.sim import Simulator
from repro.store import (
    BatchedAccessWorkload,
    ConsistencyConfig,
    ReplicatedStore,
    StorageClient,
)
from repro.workloads import ClientPopulation
from repro.workloads._reference import AccessWorkload

from tests.integration.test_engine_equivalence import _snapshot

N_NODES = 24
N_DC = 8
STEP_MS = 1_000.0
HORIZON_MS = 12_000.0
SINGLETONS = ("a", "b", "c", "d", "e")
GROUPS = {"g1": ("g1.x", "g1.y", "g1.z"), "g2": ("g2.x", "g2.y"),
          "g3": ("g3.x", "g3.y", "g3.z")}
KEYS = SINGLETONS + tuple(key for members in GROUPS.values()
                          for key in members)
POLICY = MigrationPolicy(min_relative_gain=0.0, min_absolute_gain_ms=0.0)
#: Few micro-clusters: merges make every summary depend on fold order.
CONFIG = ControllerConfig(k=3, max_micro_clusters=4)


def _epoch_ms(index):
    # Distinct periods stagger the eight epoch clocks against each other.
    return 1_500.0 + 130.0 * index


def _create_group(store, index, group):
    store.create_group(group, {key: 0.25 for key in GROUPS[group]}, k=3,
                       controller_config=CONFIG, policy=POLICY,
                       epoch_period_ms=_epoch_ms(index))


def _build(workload_cls, *, seed=3, quorum=1, bandwidth=None, retry=None,
           timeout=None, lossy=False, churn=False, write_fraction=0.0,
           propagation_ms=0.0):
    rng = np.random.default_rng(seed + 999)
    coords = rng.normal(size=(N_NODES, 2)) * 40
    rtt = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    rtt += 5.0
    np.fill_diagonal(rtt, 0.0)
    sim = Simulator(seed=seed)
    store = ReplicatedStore(
        sim, LatencyMatrix((rtt + rtt.T) / 2), list(range(N_DC)), coords,
        selection="oracle",
        consistency=ConsistencyConfig(read_quorum=quorum,
                                      propagation_delay_ms=propagation_ms),
        bandwidth=bandwidth, retry_policy=retry, read_timeout_ms=timeout)
    for index, key in enumerate(SINGLETONS):
        store.create_object(key, size_gb=0.25, k=3, controller_config=CONFIG,
                            policy=POLICY, epoch_period_ms=_epoch_ms(index))
    for index, group in enumerate(GROUPS, start=len(SINGLETONS)):
        _create_group(store, index, group)
    if lossy:
        # Control traffic between two servers and one client's read legs.
        store.network.set_link_loss(0, 1, 0.3, symmetric=True)
        store.network.set_link_loss(N_DC, 2, 0.2)
    if churn:
        def recreate():
            store.delete("g2")
            _create_group(store, 6, "g2")
        sim.schedule_at(5_000.0, recreate)
    workload_cls(store, ClientPopulation.uniform(list(range(N_DC, N_NODES))),
                 KEYS, rate_per_second=400.0, write_fraction=write_fraction)
    return sim, store


def _run(sim, store):
    """Run to the horizon in steps; True if a migration was in flight at
    any step boundary."""
    in_flight = False
    for until in np.arange(STEP_MS, HORIZON_MS + STEP_MS / 2, STEP_MS):
        sim.run_until(float(until))
        in_flight |= any(unit.target is not None
                         for unit in store._units.values())
    return in_flight


def _count_client_reads(monkeypatch):
    """Count per-event read paths (``read`` + ``materialize_read``), the
    reads that did not complete in bulk."""
    calls = [0]
    for name in ("read", "materialize_read"):
        original = getattr(StorageClient, name)

        def counted(self, *args, _original=original):
            calls[0] += 1
            return _original(self, *args)
        monkeypatch.setattr(StorageClient, name, counted)
    return calls


ARMS = {
    "fault-free": {},
    "quorum2": dict(quorum=2, timeout=400.0),
    "quorum3": dict(quorum=3),
    "bandwidth": dict(bandwidth=UniformBandwidth(mbps=2_000.0), quorum=2),
    "retry-lossy": dict(retry=RetryPolicy(timeout_ms=600.0, max_attempts=3,
                                          base_backoff_ms=150.0),
                        lossy=True, timeout=300.0),
    "churn": dict(churn=True, timeout=300.0),
    # Per-key versions inside groups: slow propagation leaves quorum legs
    # on different versions and whole quorums stale.
    "writes": dict(write_fraction=0.02, quorum=2, propagation_ms=300.0),
}


@pytest.mark.parametrize("arm", list(ARMS))
def test_scoped_windows_match_the_oracle(arm, monkeypatch):
    config = ARMS[arm]
    sim, store = _build(AccessWorkload, **config)
    in_flight = _run(sim, store)
    reference = _snapshot(store)
    with monkeypatch.context() as patch:
        calls = _count_client_reads(patch)
        sim, store = _build(BatchedAccessWorkload, **config)
        assert _run(sim, store) == in_flight
    production = _snapshot(store)
    reads = sum(1 for record in reference["log"] if record[5] == "read")
    assert reads > 3_000, "run produced too little traffic"
    assert sum(len(c["reports"]) for c in reference["controllers"].values()) \
        >= 40
    for field in reference:
        assert reference[field] == production[field], \
            f"drivers diverge in {field!r} ({arm})"
    if arm == "fault-free":
        # Eight units' epochs and shipments land every ~60 ms; cut at
        # every one of them, most reads would go hybrid.
        assert 1.0 - calls[0] / reads >= 0.75
    if arm == "bandwidth":
        assert in_flight, "no migration was in flight at any step"
    if arm == "retry-lossy":
        assert store.summary_retries + store.migration_retries > 0
    if arm == "churn":
        assert len(production["controllers"]["g2"]["reports"]) > 0
    if arm == "writes":
        assert any(record[7] for record in reference["log"])  # stale reads


def _summaries(controller):
    return {server: (summary.accesses, summary.bytes_served,
                     [(cf.count, cf.weight, tuple(cf.linear_sum.tolist()),
                       tuple(cf.square_sum.tolist()))
                      for cf in summary.snapshot()])
            for server, summary in controller._summaries.items()}


def test_flush_from_another_units_epoch_is_exact():
    """Every unit's epoch inspects every other unit's summaries mid-run.

    Such a flush of unit A runs from an event that is neither A's nor
    global, so A's buffer may hold bulk reads stamped after it: they
    must stay buffered until their time.  What the epoch sees is what
    eager folding would have left at that instant, and the run ends
    bitwise equal to the oracle."""
    runs = []
    for workload_cls in (AccessWorkload, BatchedAccessWorkload):
        sim, store = _build(workload_cls)
        run_epoch = store.run_epoch
        seen = []

        def inspecting(unit_key, max_moves=None, _store=store,
                       _run_epoch=run_epoch, _seen=seen):
            for other in _store.unit_keys():
                if other != unit_key:
                    _seen.append((unit_key, other,
                                  _summaries(_store.controller(other))))
            return _run_epoch(unit_key, max_moves)
        store.run_epoch = inspecting
        _run(sim, store)
        runs.append((seen, _snapshot(store)))
    (seen_reference, reference), (seen_production, production) = runs
    assert len(seen_reference) > 300
    assert seen_reference == seen_production
    for field in reference:
        assert reference[field] == production[field], \
            f"drivers diverge in {field!r}"


def test_partial_drain_logs_nothing_past_the_clock():
    """``run(max_events=...)`` has no horizon: every bulk read is cut at
    the next event, so a drain that stops early has logged no read that
    completes after the clock."""
    sim, store = _build(BatchedAccessWorkload)
    sim.run_until(3_000.0)
    for _ in range(30):
        sim.run(max_events=7)
        assert max(record.time for record in store.log.records) <= sim.now
