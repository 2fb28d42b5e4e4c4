"""Unit tests for the discrete-event simulator substrate."""

import math

import numpy as np
import pytest

from repro.net import LatencyMatrix
from repro.sim import EventQueue, Message, Network, Node, PeriodicProcess, Simulator


def tiny_matrix():
    rtt = np.array([
        [0.0, 20.0, 80.0],
        [20.0, 0.0, 60.0],
        [80.0, 60.0, 0.0],
    ])
    return LatencyMatrix(rtt)


class Recorder(Node):
    """Test node that records every delivery with its arrival time."""

    def __init__(self, network, node_id):
        super().__init__(network, node_id)
        self.received = []

    def handle_message(self, message):
        self.received.append((self.sim.now, message))


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(5.0, fired.append, (2,))
        q.push(1.0, fired.append, (1,))
        q.push(9.0, fired.append, (3,))
        while q:
            q.pop().fire()
        assert fired == [1, 2, 3]

    def test_fifo_for_equal_times(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.push(1.0, fired.append, (i,))
        while q:
            q.pop().fire()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancelled_event_does_not_fire(self):
        q = EventQueue()
        fired = []
        event = q.push(1.0, fired.append, (1,))
        event.cancel()
        q.pop().fire()
        assert fired == []

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue().push(-1.0, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()
        with pytest.raises(IndexError):
            EventQueue().peek_time()

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None)
        q.clear()
        assert len(q) == 0

    def test_cancellation_tracked_as_tombstones(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(10)]
        events[3].cancel()
        events[7].cancel()
        events[7].cancel()  # idempotent: counted once
        assert q.tombstones == 2
        q.pop()  # live event, tombstone count unchanged
        assert q.tombstones == 2
        q.compact()
        assert q.tombstones == 0
        assert len(q) == 7

    def test_cancelling_many_timers_shrinks_the_heap(self):
        # The retry/timeout machinery cancels most of the timers it
        # arms; tombstones must not accumulate for the rest of the run.
        q = EventQueue()
        keep = [q.push(float(10_000 + i), lambda: None) for i in range(40)]
        timers = [q.push(float(i), lambda: None) for i in range(5_000)]
        assert len(q) == 5_040
        for timer in timers:
            timer.cancel()
        # Compaction triggers whenever tombstones outnumber live events,
        # so the heap must have collapsed to within a constant factor of
        # the 40 survivors — not stayed at ~5k entries.
        assert len(q) <= 2 * len(keep) + 1
        assert q.tombstones <= len(keep) + 1
        fired = []
        while q:
            event = q.pop()
            if not event.cancelled:
                fired.append(event.time)
                event.fire()
        assert fired == sorted(e.time for e in keep)

    def test_compaction_preserves_order_and_barriers(self):
        q = EventQueue()
        q.enable_barrier_tracking()
        live = [q.push(float(i), lambda: None) for i in range(0, 200, 2)]
        doomed = [q.push(float(i), lambda: None) for i in range(1, 200, 2)]
        for event in doomed:
            event.cancel()
        q.compact()
        assert q.tombstones == 0
        assert q.next_barrier_time() == live[0].time
        popped = [q.pop().time for _ in range(len(q))]
        assert popped == sorted(e.time for e in live)

    def test_barrier_time_skips_inert_events(self):
        q = EventQueue()
        q.enable_barrier_tracking()
        q.push(1.0, lambda: None, inert=True)
        barrier = q.push(5.0, lambda: None)
        q.push(9.0, lambda: None, inert=True)
        assert q.next_barrier_time() == 5.0
        barrier.cancel()
        assert q.next_barrier_time() == math.inf

    def test_barrier_time_conservative_without_tracking(self):
        q = EventQueue()
        q.push(1.0, lambda: None, inert=True)
        assert q.next_barrier_time() == 1.0
        assert EventQueue().next_barrier_time() == math.inf

    def test_enable_barrier_tracking_adopts_queued_events(self):
        q = EventQueue()
        q.push(2.0, lambda: None, inert=True)
        q.push(7.0, lambda: None)
        q.enable_barrier_tracking()
        q.enable_barrier_tracking()  # idempotent
        assert q.next_barrier_time() == 7.0

    def test_popped_barrier_discarded_lazily(self):
        q = EventQueue()
        q.enable_barrier_tracking()
        q.push(1.0, lambda: None)
        q.push(3.0, lambda: None, inert=True)
        q.push(6.0, lambda: None)
        q.pop().fire()
        assert q.next_barrier_time() == 6.0

    def test_scope_barrier_time_is_global_or_own_scope(self):
        q = EventQueue()
        q.enable_barrier_tracking()
        q.push(1.0, lambda: None, inert=True, scope="a")
        q.push(2.0, lambda: None, scope="a")
        q.push(4.0, lambda: None, scope="b")
        everyone = q.push(6.0, lambda: None)
        assert q.next_barrier_time() == 2.0
        assert q.scope_barrier_time("a") == 2.0
        assert q.scope_barrier_time("b") == 4.0
        assert q.scope_barrier_time("c") == 6.0
        assert q.scope_barrier_time(None) == 6.0
        everyone.cancel()
        assert q.scope_barrier_time("c") == math.inf
        assert q.scope_barrier_time("b") == 4.0

    def test_scope_barrier_time_follows_pops(self):
        q = EventQueue()
        q.enable_barrier_tracking()
        q.push(2.0, lambda: None, scope="a")
        q.push(3.0, lambda: None, scope="b")
        q.push(5.0, lambda: None, scope="a")
        q.push(7.0, lambda: None)
        seen = []
        while q:
            seen.append((q.scope_barrier_time("a"),
                         q.scope_barrier_time("b")))
            q.pop()
        assert seen == [(2.0, 3.0), (5.0, 3.0), (5.0, 7.0), (7.0, 7.0)]
        assert q.scope_barrier_time("a") == q.next_barrier_time() == math.inf

    def test_scope_barriers_survive_compaction(self):
        q = EventQueue()
        q.enable_barrier_tracking()
        keep = [q.push(float(t), lambda: None, scope="a")
                for t in range(100, 140)]
        doomed = [q.push(float(t), lambda: None, scope=("a", "b")[t % 2])
                  for t in range(100)]
        for event in doomed:
            event.cancel()
        assert q.tombstones < len(doomed)  # compaction ran
        assert q.scope_barrier_time("a") == 100.0
        assert q.scope_barrier_time("b") == math.inf
        keep[0].cancel()
        q.compact()
        assert q.scope_barrier_time("a") == 101.0

    def test_enable_tracking_mid_run_adopts_scopes(self):
        q = EventQueue()
        q.push(1.0, lambda: None, scope="a")
        q.push(2.0, lambda: None, scope="b")
        q.push(3.0, lambda: None, inert=True)
        cancelled = q.push(4.0, lambda: None)
        q.push(8.0, lambda: None)
        assert q.scope_barrier_time("b") == 1.0  # untracked: every event
        q.pop()
        cancelled.cancel()
        q.enable_barrier_tracking()
        assert q.scope_barrier_time("a") == 8.0
        assert q.scope_barrier_time("b") == 2.0
        assert q.next_barrier_time() == 2.0


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(10.0, lambda: times.append(sim.now))
        sim.schedule(25.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [10.0, 25.0]
        assert sim.events_processed == 2

    def test_run_until_stops_and_sets_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.schedule(100.0, fired.append, 2)
        sim.run_until(50.0)
        assert fired == [1]
        assert sim.now == 50.0
        sim.run_until(200.0)
        assert fired == [1, 2]

    def test_run_until_rejects_backwards(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError, match="backwards"):
            sim.run_until(5.0)

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="non-negative"):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_rejects_past(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(5.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(sim.now)
            if depth > 0:
                sim.schedule(5.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert fired == [0.0, 5.0, 10.0, 15.0]

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_named_rng_streams_are_stable(self):
        a = Simulator(seed=7).rng("workload").integers(0, 1000, size=5)
        b = Simulator(seed=7).rng("workload").integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_rng_streams_independent_of_request_order(self):
        s1 = Simulator(seed=7)
        s1.rng("other")
        x1 = s1.rng("workload").integers(0, 1000, size=5)
        s2 = Simulator(seed=7)
        x2 = s2.rng("workload").integers(0, 1000, size=5)
        assert np.array_equal(x1, x2)

    def test_different_streams_differ(self):
        sim = Simulator(seed=7)
        a = sim.rng("a").integers(0, 10 ** 9)
        b = sim.rng("b").integers(0, 10 ** 9)
        assert a != b

    def test_rng_streams_stable_across_processes(self):
        # Stream derivation must not involve Python's randomized hash():
        # the same seed has to reproduce the same simulation in any
        # process (regression test for a PYTHONHASHSEED dependence).
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        script = (
            "import json, sys\n"
            "from repro.sim import Simulator\n"
            "sim = Simulator(seed=7)\n"
            "print(json.dumps([int(sim.rng('workload').integers(0, 10**9))"
            " for _ in range(3)]))\n"
        )
        # Start from the parent environment (only PYTHONHASHSEED varies)
        # and make sure the child can import repro even when the parent
        # got it via sys.path rather than PYTHONPATH.
        src_dir = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        base_env = dict(os.environ)
        python_path = base_env.get("PYTHONPATH", "")
        if src_dir not in python_path.split(os.pathsep):
            base_env["PYTHONPATH"] = (
                src_dir + (os.pathsep + python_path if python_path else ""))
        outputs = []
        for hash_seed in ("1", "99"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                env={**base_env, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True)
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1]


class TestNetwork:
    def test_message_arrives_after_one_way_delay(self):
        sim = Simulator()
        net = Network(sim, tiny_matrix())
        n0 = Recorder(net, 0)
        n1 = Recorder(net, 1)
        n0.send(1, "ping", payload="hello", size_bytes=100)
        sim.run()
        assert len(n1.received) == 1
        arrival, msg = n1.received[0]
        assert arrival == 10.0  # RTT 20 / 2
        assert msg.payload == "hello"
        assert msg.sender == 0 and msg.recipient == 1

    def test_traffic_accounting(self):
        sim = Simulator()
        net = Network(sim, tiny_matrix())
        n0 = Recorder(net, 0)
        n2 = Recorder(net, 2)
        n0.send(2, "data", size_bytes=500)
        n2.send(0, "ack", size_bytes=50)
        sim.run()
        assert net.stats.bytes_sent == 550
        assert net.stats.bytes_received == 550
        assert net.per_node[0].bytes_sent == 500
        assert net.per_node[0].bytes_received == 50
        assert net.per_kind_bytes == {"data": 500, "ack": 50}

    def test_duplicate_registration_rejected(self):
        net = Network(Simulator(), tiny_matrix())
        Recorder(net, 0)
        with pytest.raises(ValueError, match="already registered"):
            Recorder(net, 0)

    def test_out_of_range_id_rejected(self):
        net = Network(Simulator(), tiny_matrix())
        with pytest.raises(ValueError, match="outside matrix"):
            Recorder(net, 3)

    def test_unknown_recipient_rejected(self):
        net = Network(Simulator(), tiny_matrix())
        n0 = Recorder(net, 0)
        with pytest.raises(KeyError, match="unknown recipient"):
            n0.send(1, "ping")

    def test_base_node_handler_abstract(self):
        net = Network(Simulator(), tiny_matrix())
        node = Node(net, 0)
        with pytest.raises(NotImplementedError):
            node.handle_message(Message(0, 0, "x"))


class TestPeriodicProcess:
    def test_strict_period(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_start_after_override(self):
        sim = Simulator()
        times = []
        PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), start_after=0.0)
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_halts_ticks(self):
        sim = Simulator()
        times = []
        proc = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
        sim.run_until(25.0)
        proc.stop()
        assert not proc.running
        sim.run_until(100.0)
        assert times == [10.0, 20.0]

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []
        proc = None

        def cb():
            ticks.append(sim.now)
            if len(ticks) == 2:
                proc.stop()

        proc = PeriodicProcess(sim, 5.0, cb)
        sim.run_until(100.0)
        assert len(ticks) == 2

    def test_jitter_varies_intervals_within_bounds(self):
        sim = Simulator(seed=1)
        times = []
        PeriodicProcess(sim, 10.0, lambda: times.append(sim.now),
                        jitter=0.3, rng=sim.rng("jitter"))
        sim.run_until(1000.0)
        gaps = np.diff([0.0] + times)
        assert np.all(gaps >= 7.0 - 1e-9)
        assert np.all(gaps <= 13.0 + 1e-9)
        assert np.std(gaps) > 0

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="period"):
            PeriodicProcess(sim, 0.0, lambda: None)
        with pytest.raises(ValueError, match="jitter"):
            PeriodicProcess(sim, 1.0, lambda: None, jitter=1.5)
        with pytest.raises(ValueError, match="rng"):
            PeriodicProcess(sim, 1.0, lambda: None, jitter=0.5)
