"""Unit tests for failure injection, read retries, repair and bandwidth."""

import numpy as np
import pytest

from repro.net import (
    LatencyCorrelatedBandwidth,
    LatencyMatrix,
    UniformBandwidth,
)
from repro.net.planetlab import small_matrix
from repro.coords import EuclideanSpace, embed_matrix
from repro.core import ControllerConfig
from repro.sim import Network, Simulator
from repro.sim.failures import FailureInjector
from repro.store import ReplicatedStore


def flat_matrix(n=6, rtt=20.0):
    m = np.full((n, n), rtt)
    np.fill_diagonal(m, 0.0)
    return LatencyMatrix(m)


class TestBandwidthModels:
    def test_uniform_transfer_time(self):
        model = UniformBandwidth(mbps=100.0)
        # 1 MB at 100 Mbps = 8e6 bits / 1e8 bps = 80 ms.
        assert model.transfer_ms(50.0, 1_000_000) == pytest.approx(80.0)
        assert model.transfer_ms(50.0, 0) == 0.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError, match="positive"):
            UniformBandwidth(0.0)

    def test_latency_correlated_shape(self):
        model = LatencyCorrelatedBandwidth(peak_mbps=1000.0,
                                           reference_rtt_ms=50.0,
                                           floor_mbps=10.0)
        assert model.bandwidth_mbps(0.0) == pytest.approx(1000.0)
        assert model.bandwidth_mbps(50.0) == pytest.approx(500.0)
        # Long paths bottom out at the floor.
        assert model.bandwidth_mbps(1e6) == pytest.approx(10.0)
        # Transfers are slower on long paths.
        near = model.transfer_ms(10.0, 10 ** 7)
        far = model.transfer_ms(300.0, 10 ** 7)
        assert far > near

    def test_latency_correlated_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyCorrelatedBandwidth(peak_mbps=0.0)
        with pytest.raises(ValueError, match="floor"):
            LatencyCorrelatedBandwidth(peak_mbps=10.0, floor_mbps=20.0)

    def test_network_applies_bandwidth(self):
        from repro.sim import Node

        class Recorder(Node):
            def __init__(self, net, nid):
                super().__init__(net, nid)
                self.at = None

            def handle_message(self, message):
                self.at = self.sim.now

        sim = Simulator()
        net = Network(sim, flat_matrix(rtt=20.0),
                      bandwidth=UniformBandwidth(mbps=8.0))
        a = Recorder(net, 0)
        b = Recorder(net, 1)
        a.send(1, "blob", size_bytes=1_000_000)  # 8e6 bits / 8 Mbps = 1000 ms
        sim.run()
        assert b.at == pytest.approx(10.0 + 1000.0)


class TestFailureInjector:
    def test_crash_and_recover_toggle_liveness(self):
        sim = Simulator()
        net = Network(sim, flat_matrix())
        injector = FailureInjector(net)
        injector.crash_at(100.0, 2)
        injector.recover_at(200.0, 2)
        sim.run_until(150.0)
        assert not net.is_up(2)
        sim.run_until(250.0)
        assert net.is_up(2)
        kinds = [e.kind for e in injector.timeline]
        assert kinds == ["crash", "recover"]
        assert len(injector.crashes()) == 1

    def test_messages_to_down_node_dropped(self):
        from repro.sim import Node

        class Recorder(Node):
            def __init__(self, net, nid):
                super().__init__(net, nid)
                self.got = 0

            def handle_message(self, message):
                self.got += 1

        sim = Simulator()
        net = Network(sim, flat_matrix())
        a = Recorder(net, 0)
        b = Recorder(net, 1)
        net.set_down(1)
        a.send(1, "ping")
        sim.run()
        assert b.got == 0
        assert net.messages_dropped == 1

    def test_down_sender_cannot_transmit(self):
        from repro.sim import Node

        class Recorder(Node):
            def __init__(self, net, nid):
                super().__init__(net, nid)
                self.got = 0

            def handle_message(self, message):
                self.got += 1

        sim = Simulator()
        net = Network(sim, flat_matrix())
        a = Recorder(net, 0)
        b = Recorder(net, 1)
        net.set_down(0)
        a.send(1, "ping")
        sim.run()
        assert b.got == 0

    def test_crash_hooks_fire(self):
        sim = Simulator()
        net = Network(sim, flat_matrix())
        crashed, recovered = [], []
        injector = FailureInjector(net, on_crash=crashed.append,
                                   on_recover=recovered.append)
        injector.crash_now(3)
        injector.recover_now(3)
        assert crashed == [3]
        assert recovered == [3]

    def test_double_crash_is_idempotent(self):
        sim = Simulator()
        net = Network(sim, flat_matrix())
        injector = FailureInjector(net)
        injector.crash_now(1)
        injector.crash_now(1)
        assert len(injector.timeline) == 1

    def test_random_failures_schedule(self):
        sim = Simulator()
        net = Network(sim, flat_matrix())
        injector = FailureInjector(net)
        n = injector.random_failures([0, 1, 2], mtbf_ms=1_000.0,
                                     mttr_ms=200.0, until=20_000.0,
                                     rng=np.random.default_rng(0))
        assert n > 0
        sim.run_until(20_000.0)
        # Every crash is eventually paired with a recovery or the
        # horizon; the timeline alternates per node.
        per_node = {}
        for e in injector.timeline:
            per_node.setdefault(e.node, []).append(e.kind)
        for kinds in per_node.values():
            for a, b in zip(kinds, kinds[1:]):
                assert a != b

    def test_random_failures_validation(self):
        sim = Simulator()
        net = Network(sim, flat_matrix())
        injector = FailureInjector(net)
        with pytest.raises(ValueError, match="positive"):
            injector.random_failures([0], 0.0, 1.0, 10.0,
                                     np.random.default_rng(0))
        with pytest.raises(ValueError, match="future"):
            injector.random_failures([0], 1.0, 1.0, 0.0,
                                     np.random.default_rng(0))


def build_store(**kwargs):
    matrix = small_matrix(n=20, seed=4)
    coords = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(3)).coords
    sim = Simulator(seed=4)
    store = ReplicatedStore(sim, matrix, tuple(range(6)), coords,
                            selection="oracle", **kwargs)
    return sim, matrix, store


class TestReadRetries:
    def test_read_retries_next_replica_after_timeout(self):
        sim, matrix, store = build_store(read_timeout_ms=500.0,
                                         max_read_attempts=3)
        store.create_object("obj", initial_sites=[0, 1])
        injector = FailureInjector(store.network)
        client = store.add_client(10)
        primary = store.route_read(10, "obj")[0]
        injector.crash_now(primary)
        client.read("obj")
        sim.run()
        assert len(store.log) == 1
        record = store.log.records[0]
        assert record.kind == "read"
        backup = 1 if primary == 0 else 0
        assert record.server == backup
        # Total delay includes the wasted timeout window.
        assert record.delay_ms >= 500.0
        assert store.failed_reads == 0

    def test_read_fails_when_all_replicas_down(self):
        sim, matrix, store = build_store(read_timeout_ms=400.0,
                                         max_read_attempts=2)
        store.create_object("obj", initial_sites=[0, 1])
        injector = FailureInjector(store.network)
        injector.crash_now(0)
        injector.crash_now(1)
        client = store.add_client(10)
        client.read("obj")
        sim.run()
        assert store.failed_reads == 1
        assert store.log.records[0].kind == "read-timeout"

    def test_no_timeout_configured_read_lost_silently(self):
        sim, matrix, store = build_store()
        store.create_object("obj", initial_sites=[0])
        FailureInjector(store.network).crash_now(0)
        client = store.add_client(10)
        client.read("obj")
        sim.run()
        assert len(store.log) == 0

    def test_store_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            build_store(read_timeout_ms=0.0)
        with pytest.raises(ValueError, match="attempt"):
            build_store(max_read_attempts=0)
        with pytest.raises(ValueError, match="repair period"):
            build_store(repair_period_ms=0.0)


class TestAutoRepair:
    def test_failed_replica_is_rereplicated(self):
        sim, matrix, store = build_store(auto_repair=True,
                                         repair_period_ms=1_000.0,
                                         read_timeout_ms=500.0)
        store.create_object(
            "obj", initial_sites=[0, 1],
            controller_config=ControllerConfig(k=2, max_micro_clusters=8))
        injector = FailureInjector(store.network)
        injector.crash_at(2_000.0, 0)
        sim.run_until(10_000.0)
        sites = store.installed_sites("obj")
        assert len(sites) == 2
        assert 0 not in sites
        assert 1 in sites
        assert store.repairs >= 1
        # The new holder really has the data.
        new_site = [s for s in sites if s != 1][0]
        assert "obj" in store.servers[new_site].replicas
        # The controller follows the repaired set.
        positions = tuple(store.candidates.index(s) for s in sites)
        assert sorted(store.controller("obj").sites) == sorted(positions)

    def test_recovered_durable_replica_rejoins(self):
        sim, matrix, store = build_store(auto_repair=False,
                                         repair_period_ms=1_000.0)
        # auto_repair off: no periodic sweep; drive checks manually.
        store.create_object(
            "obj", initial_sites=[0, 1],
            controller_config=ControllerConfig(k=2, max_micro_clusters=8))
        injector = FailureInjector(store.network)
        injector.crash_now(0)
        store.check_availability()
        assert store.installed_sites("obj") == (1,)
        injector.recover_now(0)
        store.check_availability()
        # Durable disk: node 0 still holds the replica and rejoins free.
        assert store.installed_sites("obj") == (0, 1)
        assert store.repairs == 0

    def test_no_repair_possible_when_all_down(self):
        sim, matrix, store = build_store(auto_repair=True,
                                         repair_period_ms=1_000.0)
        store.create_object(
            "obj", initial_sites=[0],
            controller_config=ControllerConfig(k=1, max_micro_clusters=8))
        FailureInjector(store.network).crash_now(0)
        sim.run_until(5_000.0)
        # Nothing to copy from; the old set is retained pending recovery.
        assert store.installed_sites("obj") == (0,)

    @staticmethod
    def _seven_node_store():
        """Seven candidates, k = 3 on sites 0-2, site 2 crashing at 0.5 s
        and a sweep every second."""
        matrix = small_matrix(n=7, seed=4)
        coords = embed_matrix(matrix, system="mds",
                              space=EuclideanSpace(3)).coords
        sim = Simulator(seed=4)
        store = ReplicatedStore(sim, matrix, tuple(range(7)), coords,
                                selection="oracle", auto_repair=True,
                                repair_period_ms=1_000.0)
        store.create_object(
            "obj", initial_sites=[0, 1, 2],
            controller_config=ControllerConfig(k=3, max_micro_clusters=8))
        injector = FailureInjector(store.network)
        injector.crash_at(500.0, 2)
        return sim, store, injector

    def test_repair_waits_for_a_holder_that_reaches_the_spare(self):
        # Every holder -> spare link is cut across the first sweep.  A
        # repair sent then is dropped at send; if it stayed awaited, the
        # unit would sit at two replicas for good.
        sim, store, _ = self._seven_node_store()
        for holder in (0, 1):
            for spare in (3, 4, 5, 6):
                sim.schedule_at(900.0, store.network.set_link_down,
                                holder, spare, False)
                sim.schedule_at(1_100.0, store.network.set_link_up,
                                holder, spare, False)
        sim.run_until(20_000.0)
        unit = store._units["obj"]
        assert len(unit.installed) == 3 and 2 not in unit.installed
        assert not unit.awaiting
        assert store.repairs == 1

    def test_repair_ties_go_to_the_first_candidate(self):
        # Every spare is equally close: the repair goes to the spare that
        # comes first in candidate order.
        sim = Simulator(seed=0)
        store = ReplicatedStore(sim, flat_matrix(n=6), tuple(range(6)),
                                np.zeros((6, 2)), selection="oracle",
                                auto_repair=True, repair_period_ms=1_000.0)
        store.create_object(
            "obj", initial_sites=[3, 5],
            controller_config=ControllerConfig(k=2, max_micro_clusters=8))
        FailureInjector(store.network).crash_at(500.0, 5)
        sim.run_until(5_000.0)
        assert store.installed_sites("obj") == (0, 3)
        assert store.repairs == 1

    def test_repair_to_a_crashed_spare_is_released(self):
        # The spare crashes while its repair is in flight, so the
        # delivery is dropped; the next sweep releases it and repairs
        # onto another spare.
        sim, store, injector = self._seven_node_store()
        unit = store._units["obj"]
        victim = []

        def crash_the_spare():
            (spare,) = unit.awaiting
            victim.append(spare)
            injector.crash_now(spare)

        sim.schedule_at(1_000.001, crash_the_spare)
        sim.run_until(20_000.0)
        assert victim and victim[0] not in unit.installed
        assert len(unit.installed) == 3 and 2 not in unit.installed
        assert not unit.awaiting
        assert store.repairs == 2

    def test_reads_survive_failure_with_repair(self):
        sim, matrix, store = build_store(auto_repair=True,
                                         repair_period_ms=1_000.0,
                                         read_timeout_ms=500.0,
                                         max_read_attempts=3)
        store.create_object(
            "obj", initial_sites=[0, 1],
            controller_config=ControllerConfig(k=2, max_micro_clusters=8))
        injector = FailureInjector(store.network)
        injector.crash_at(3_000.0, 0)
        clients = [store.add_client(i) for i in range(10, 16)]

        from repro.sim import PeriodicProcess
        PeriodicProcess(sim, 200.0,
                        lambda: [c.read("obj") for c in clients])
        sim.run_until(20_000.0)
        reads = [r for r in store.log.records if r.kind == "read"]
        # Overwhelmingly successful despite the crash.
        assert len(reads) > 500
        assert store.failed_reads <= 12  # only the in-flight window
