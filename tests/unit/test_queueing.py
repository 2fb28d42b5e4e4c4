"""Unit tests for server queueing, selection policies, and their
interaction with the consistency layer (quorum reads over delayed
replies)."""

import sys

import pytest

from repro import obs
from repro.obs import metrics
from repro.coords import EuclideanSpace, embed_matrix
from repro.net.planetlab import small_matrix
from repro.sim import Simulator
from repro.store import (
    BatchedAccessWorkload,
    C3Selection,
    ConsistencyConfig,
    DeterministicService,
    LeastPendingSelection,
    LogNormalService,
    NearestSelection,
    QueueingConfig,
    ReplicatedStore,
    ServerQueue,
    make_strategy,
)
from repro.workloads import ClientPopulation


def build_store(queueing=None, strategy="nearest", consistency=None,
                timeout=None, seed=0, n=20):
    matrix = small_matrix(n=n, seed=seed)
    coords = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(3)).coords
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, matrix, tuple(range(5)), coords,
                            selection="oracle", queueing=queueing,
                            strategy=strategy, consistency=consistency,
                            read_timeout_ms=timeout)
    return sim, matrix, store


class TestServiceModels:
    def test_deterministic_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            DeterministicService(-1.0)
        with pytest.raises(ValueError, match="finite"):
            DeterministicService(float("inf"))

    def test_deterministic_zero_is_inactive(self):
        assert not DeterministicService(0.0).active
        assert DeterministicService(0.5).active

    def test_deterministic_draws_no_randomness(self):
        sim = Simulator(seed=1)
        model = DeterministicService(3.0)
        state_before = sim.rng("service").bit_generator.state
        assert model.draw(sim) == 3.0
        assert sim.rng("service").bit_generator.state == state_before

    def test_lognormal_validation(self):
        with pytest.raises(ValueError, match="median"):
            LogNormalService(0.0)
        with pytest.raises(ValueError, match="sigma"):
            LogNormalService(1.0, sigma=-0.1)


class TestServerQueue:
    def test_idle_server_serves_immediately(self):
        queue = ServerQueue()
        assert queue.admit(10.0, 3.0) == 13.0
        assert queue.busy_until == 13.0

    def test_lindley_recursion_backlogs(self):
        queue = ServerQueue()
        assert queue.admit(0.0, 5.0) == 5.0
        assert queue.admit(1.0, 5.0) == 10.0   # waits 4 behind the first
        assert queue.admit(20.0, 5.0) == 25.0  # idle gap resets the queue

    def test_capacity_rejects_and_counts(self):
        queue = ServerQueue()
        assert queue.admit(0.0, 10.0, capacity=1) == 10.0
        assert queue.admit(1.0, 10.0, capacity=1) is None
        assert queue.admit(10.5, 10.0, capacity=1) == 20.5
        assert (queue.offered, queue.accepted, queue.rejected) == (3, 2, 1)

    def test_depth_tracks_departures(self):
        queue = ServerQueue()
        queue.admit(0.0, 4.0, capacity=10)
        queue.admit(0.0, 4.0, capacity=10)
        assert queue.depth(1.0) == 2
        assert queue.depth(4.5) == 1
        assert queue.depth(9.0) == 0


class TestQueueingConfig:
    def test_inactive_configurations(self):
        assert not QueueingConfig().active
        assert not QueueingConfig(DeterministicService(0.0)).active
        assert QueueingConfig(DeterministicService(1.0)).active
        assert QueueingConfig(queue_capacity=3).active

    def test_validation(self):
        with pytest.raises(ValueError, match="ServiceModel"):
            QueueingConfig(service=3.0)
        with pytest.raises(ValueError, match="at least 1"):
            QueueingConfig(queue_capacity=0)
        with pytest.raises(ValueError, match="integer"):
            QueueingConfig(queue_capacity=True)

    def test_from_params(self):
        assert QueueingConfig.from_params() is None
        with pytest.raises(ValueError, match="unknown service model"):
            QueueingConfig.from_params(service_model="gamma")
        with pytest.raises(ValueError, match="needs a service model"):
            QueueingConfig.from_params(service_ms=2.0)
        config = QueueingConfig.from_params("deterministic", 2.0)
        assert isinstance(config.service, DeterministicService)
        config = QueueingConfig.from_params("lognormal", 4.0,
                                            service_sigma=0.3,
                                            queue_capacity=8)
        assert isinstance(config.service, LogNormalService)
        assert config.queue_capacity == 8
        capacity_only = QueueingConfig.from_params(queue_capacity=2)
        assert capacity_only.service is None and capacity_only.active

    def test_sample_service_defaults_to_zero(self):
        sim = Simulator()
        config = QueueingConfig()
        assert config.sample_service(sim) == 0.0


class TestMakeStrategy:
    def test_aliases(self):
        assert isinstance(make_strategy(None), NearestSelection)
        assert isinstance(make_strategy("nearest"), NearestSelection)
        assert isinstance(make_strategy("least-pending"),
                          LeastPendingSelection)
        assert isinstance(make_strategy("c3"), C3Selection)
        custom = LeastPendingSelection()
        assert make_strategy(custom) is custom

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown selection strategy"):
            make_strategy("fastest")

    def test_store_validates_strategy(self):
        with pytest.raises(ValueError, match="unknown selection strategy"):
            build_store(strategy="fastest")


class TestQueuedReads:
    def test_read_delay_includes_service_time(self):
        queueing = QueueingConfig(DeterministicService(7.0))
        sim, matrix, store = build_store(queueing=queueing)
        store.create_object("obj", initial_sites=[0])
        client = store.add_client(10)
        client.read("obj")
        sim.run()
        record = store.log.records[0]
        assert record.delay_ms == pytest.approx(
            matrix.latency(10, 0) + 7.0)
        assert store.queue_stats() == {"offered": 1, "accepted": 1,
                                       "rejected": 0}

    def test_back_to_back_reads_wait_in_fifo_order(self):
        queueing = QueueingConfig(DeterministicService(7.0))
        sim, matrix, store = build_store(queueing=queueing)
        store.create_object("obj", initial_sites=[0])
        client = store.add_client(10)
        client.read("obj")
        client.read("obj")
        sim.run()
        first, second = [r.delay_ms for r in store.log.records]
        rtt = matrix.latency(10, 0)
        assert first == pytest.approx(rtt + 7.0)
        assert second == pytest.approx(rtt + 14.0)

    def test_writes_bypass_the_queue(self):
        queueing = QueueingConfig(DeterministicService(50.0))
        sim, matrix, store = build_store(queueing=queueing)
        store.create_object("obj", initial_sites=[0])
        client = store.add_client(10)
        client.write("obj")
        sim.run()
        record = store.log.records[0]
        assert record.kind == "write"
        assert record.delay_ms == pytest.approx(matrix.latency(10, 0))
        assert store.queue_stats()["offered"] == 0

    def test_full_queue_drops_reads_and_counts_rejections(self):
        queueing = QueueingConfig(DeterministicService(100.0),
                                  queue_capacity=1)
        sim, matrix, store = build_store(queueing=queueing)
        store.create_object("obj", initial_sites=[0])
        client = store.add_client(10)
        for _ in range(3):
            client.read("obj")
        sim.run()
        assert store.queue_rejections == 2
        assert store.queue_stats() == {"offered": 3, "accepted": 1,
                                       "rejected": 2}
        assert len(store.log) == 1  # no timeout configured: drops vanish


class TestConsistencyWithQueueing:
    """ConsistencyConfig x queued reads: the pinned semantics.

    A queued read's reply carries the version snapshotted at
    *admission*: a write that commits while the read is waiting in the
    queue is invisible to it.  Staleness is still judged against the
    latest version at *issue* time, so the delayed read is not marked
    stale by writes that happen after it was sent.
    """

    def test_quorum_read_waits_for_slowest_queued_leg(self):
        queueing = QueueingConfig(DeterministicService(9.0))
        sim, matrix, store = build_store(
            queueing=queueing,
            consistency=ConsistencyConfig(read_quorum=2))
        store.create_object("obj", initial_sites=[0, 1])
        client = store.add_client(10)
        client.read("obj")
        sim.run()
        record = store.log.records[0]
        expected = max(matrix.latency(10, 0), matrix.latency(10, 1)) + 9.0
        assert record.delay_ms == pytest.approx(expected)
        assert store.queue_stats()["accepted"] == 2

    def test_write_during_queue_wait_is_invisible_to_the_read(self):
        queueing = QueueingConfig(DeterministicService(1_000.0))
        sim, matrix, store = build_store(
            queueing=queueing,
            consistency=ConsistencyConfig(read_quorum=2))
        store.create_object("obj", initial_sites=[0, 1])
        reader = store.add_client(10)
        writer = store.add_client(11)
        # Both read legs are admitted one leg-trip after issue; fire the
        # write strictly after the later admission but long before the
        # 1 s service completes, so it lands mid-queue-wait at both
        # servers (write trip + propagation is bounded by two RTTs).
        admitted = max(matrix.latency(10, 0), matrix.latency(10, 1)) / 2
        write_path = (max(matrix.latency(11, 0), matrix.latency(11, 1))
                      + matrix.latency(0, 1))
        assert 5.0 + write_path < 1_000.0
        sim.schedule_at(0.0, reader.read, "obj")
        sim.schedule_at(admitted + 5.0, writer.write, "obj")
        sim.schedule_at(3_000.0, reader.read, "obj")
        sim.run()
        reads = [r for r in store.log.records if r.kind == "read"]
        assert [r.version for r in reads] == [0, 1]
        assert [r.stale for r in reads] == [False, False]


class TestBatchedStageTimers:
    STAGES = ("arrivals", "route", "admit", "serve", "escalate")

    def _queued_run(self):
        queueing = QueueingConfig(service=DeterministicService(2.0))
        with obs.observe() as (registry, _):
            sim, _, store = build_store(queueing=queueing, timeout=80.0)
            store.create_object("obj", k=3, epoch_period_ms=1_000.0)
            workload = BatchedAccessWorkload(
                store, ClientPopulation.uniform(list(range(5, 20))), ["obj"],
                rate_per_second=600.0, write_fraction=0.01)
            sim.run_until(5_000.0)
        assert workload.engine._escalate_all
        assert store.queue_stats()["accepted"] > 0
        timers = registry.snapshot()["phase_timers"]
        window = timers["sim.batched.advance"]
        stages = [timers[f"sim.batched.{stage}"] for stage in self.STAGES]
        return window, stages

    def test_queued_run_times_every_pipeline_stage(self, monkeypatch):
        # A counting clock: each timer read is one tick, tagged with the
        # timer that read it, so nesting is checked exactly instead of
        # against host-dependent wall time.
        reads = []

        def counting_clock():
            reads.append(sys._getframe(1).f_locals["self"]._timer.name)
            return float(len(reads))

        monkeypatch.setattr(metrics, "perf_counter", counting_clock)
        window, stages = self._queued_run()
        # Arrival generation runs on every advance; the four window
        # stages once per non-empty window, nested inside it.
        assert stages[0]["calls"] == window["calls"]
        assert len({stage["calls"] for stage in stages[1:]}) == 1
        assert 0 < stages[1]["calls"] <= window["calls"]
        staged = sum(stage["total_seconds"] for stage in stages)
        assert 0 < staged < window["total_seconds"]
        assert reads.count("sim.batched.advance") == 2 * window["calls"]
        names = {f"sim.batched.{stage}" for stage in self.STAGES}
        inside = False
        for name in reads:
            if name == "sim.batched.advance":
                inside = not inside
            elif name in names:
                assert inside, f"{name} read outside a window"
        assert not inside

    @pytest.mark.bench
    def test_stages_account_for_the_window_wall_time(self):
        window, stages = self._queued_run()
        staged = sum(stage["total_seconds"] for stage in stages)
        assert 0.9 * window["total_seconds"] <= staged \
            <= window["total_seconds"]
