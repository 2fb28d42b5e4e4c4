"""The batched engine's two read cut-offs, on hand-built timelines.

A routed read is bulk only if its last request leg lands before the next
barrier of its own unit (or a global one) and it completes before the
next *global* barrier, the horizon and its read timeout.  One read of
``obj`` is issued at t = 10 ms by client 3; its request lands on the
replica at 60 ms and the reply at 110 ms.  Each timeline adds one
barrier, runs the batched engine and the per-event path, and checks the
outcome counters and that both paths log the same records and count the
same network traffic.
"""

import numpy as np
import pytest

from repro import obs
from repro.net import LatencyMatrix
from repro.sim import Simulator
from repro.store import BatchedAccessEngine, ReplicatedStore
from repro.workloads.batched import TraceArrivals

KEYS = ("obj", "other")
CLIENT = 3
ISSUE_MS = 10.0
#: Round trips: client 3 is 100 ms from the replica of ``obj`` (node 0).
RTT = np.array([
    [0.0, 60.0, 80.0, 100.0],
    [60.0, 0.0, 60.0, 160.0],
    [80.0, 60.0, 0.0, 200.0],
    [100.0, 160.0, 200.0, 0.0],
])


def _bump(store, key):
    """A barrier that changes what a read of ``key`` observes: its
    replica's stored version."""
    site, = store.installed_sites(key)
    store.servers[site].replicas[key] += 1
    store._units[key].version += 1


def _unit_barrier(key, at):
    return lambda sim, store: sim.schedule_at(at, _bump, store, key,
                                              scope=key)


def _crash(node, at):
    return lambda sim, store: sim.schedule_at(at, store.network.set_down,
                                              node)


def _build(timeline, timeout):
    sim = Simulator(seed=1)
    store = ReplicatedStore(sim, LatencyMatrix(RTT), [0, 1, 2],
                            np.zeros((4, 2)), selection="oracle",
                            read_timeout_ms=timeout)
    store.create_object("obj", k=1, initial_sites=[0])
    store.create_object("other", k=1, initial_sites=[1])
    store.add_client(CLIENT)
    if timeline is not None:
        timeline(sim, store)
    return sim, store


def _run(timeline, timeout, batched):
    sim, store = _build(timeline, timeout)
    with obs.observe() as (registry, _):
        if batched:
            BatchedAccessEngine(store, TraceArrivals(
                np.array([ISSUE_MS]), np.array([CLIENT]), np.array([0]),
                np.array([False]), KEYS))
        else:
            sim.schedule_at(ISSUE_MS, store.clients[CLIENT].read, "obj")
        sim.run_until(1_000.0)
    outcome = {name: registry.counter(f"sim.batched.{name}").value
               for name in ("bulk", "escalated")}
    net = store.network
    # Messages and bytes sent and received: in all, per node, per kind.
    traffic = (net.stats, net.per_node, net.per_kind_bytes)
    return outcome, [tuple(record) for record in store.log.records], traffic


TIMELINES = {
    # (timeline, read timeout, expected outcome)
    "unit barrier between request and reply":
        (_unit_barrier("obj", 80.0), None, "bulk"),
    "unit barrier before the request lands":
        (_unit_barrier("obj", 40.0), None, "escalated"),
    "unit barrier at the request's instant":
        (_unit_barrier("obj", 60.0), None, "escalated"),
    "another unit's barrier before the request lands":
        (_unit_barrier("other", 40.0), None, "bulk"),
    "crash after completion": (_crash(CLIENT, 120.0), None, "bulk"),
    "completion past a crash": (_crash(CLIENT, 80.0), None, "escalated"),
    "completion racing the read timeout": (None, 100.0, "escalated"),
    "completion inside the read timeout": (None, 100.5, "bulk"),
}


@pytest.mark.parametrize("name", list(TIMELINES))
def test_read_cutoffs(name):
    timeline, timeout, expected = TIMELINES[name]
    outcome, records, traffic = _run(timeline, timeout, batched=True)
    assert outcome == {"bulk": 0, "escalated": 0, expected: 1}
    _, reference, reference_traffic = _run(timeline, timeout, batched=False)
    assert records == reference
    assert traffic == reference_traffic


def test_the_timelines_change_what_the_read_observes():
    """The escalated timelines are not vacuous: their barrier changes the
    read's outcome, so a wrong bulk verdict would log another record."""
    served = _run(None, None, batched=False)[1]
    assert served == [(110.0, CLIENT, 0, "obj", 100.0, "read", 0, False)]
    for name in ("unit barrier before the request lands",
                 "unit barrier at the request's instant",
                 "completion past a crash",
                 "completion racing the read timeout"):
        timeline, timeout, _ = TIMELINES[name]
        assert _run(timeline, timeout, batched=False)[1] != served, name
