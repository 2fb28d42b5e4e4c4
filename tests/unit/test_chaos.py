"""Unit tests for the chaos layer: link faults, failover, retry/rollback.

Covers the fault-tolerance changes bottom-up: the network's link
primitives, the failure injector's deterministic same-instant ordering
(the insertion-order bug fix), the retry policy, the controller's
coordinator election / lease fencing / degraded epochs, the store's
summary and migration retry machinery, and the declarative scenario
parser.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.chaos import ChaosScenario, FaultSpec, load_scenario
from repro.chaos.scenario import _parse_scenario
from repro.coords import EuclideanSpace, embed_matrix
from repro.core import ControllerConfig, MigrationPolicy
from repro.core.controller import ReplicationController
from repro.core.migration import RetryPolicy
from repro.net.planetlab import small_matrix
from repro.sim import FailureInjector, Network, Simulator
from repro.sim.node import Message, Node
from repro.store import ReplicatedStore


class Recorder(Node):
    def __init__(self, network, node_id):
        super().__init__(network, node_id)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def build_net(n=6, seed=0):
    matrix = small_matrix(n=n, seed=seed)
    sim = Simulator(seed=seed)
    net = Network(sim, matrix)
    nodes = [Recorder(net, i) for i in range(n)]
    return sim, net, nodes


def build_store(seed=0, n=20, n_candidates=5, retry_policy=None, **kwargs):
    matrix = small_matrix(n=n, seed=seed)
    coords = embed_matrix(matrix, system="mds",
                          space=EuclideanSpace(3)).coords
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, matrix, tuple(range(n_candidates)), coords,
                            selection="oracle", retry_policy=retry_policy,
                            **kwargs)
    return sim, store


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout_ms=0)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff_ms=100.0, backoff_factor=2.0,
                             max_backoff_ms=350.0, jitter=0.0)
        assert policy.backoff_ms(1) == 100.0
        assert policy.backoff_ms(2) == 200.0
        assert policy.backoff_ms(3) == 350.0  # capped, not 400
        with pytest.raises(ValueError, match="attempt"):
            policy.backoff_ms(0)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_backoff_ms=100.0, jitter=0.25)
        draws = [policy.backoff_ms(1, rng=np.random.default_rng(s))
                 for s in range(20)]
        assert all(75.0 <= d <= 125.0 for d in draws)
        assert len(set(draws)) > 1  # jitter actually applied
        again = policy.backoff_ms(1, rng=np.random.default_rng(3))
        assert again == policy.backoff_ms(1, rng=np.random.default_rng(3))
        # Without an rng the backoff is the deterministic midpoint.
        assert policy.backoff_ms(1) == 100.0


# ----------------------------------------------------------------------
# Network link primitives
# ----------------------------------------------------------------------
class TestLinkState:
    def test_blocked_link_drops_directed(self):
        sim, net, nodes = build_net()
        net.set_link_down(0, 1, symmetric=False)
        nodes[0].send(1, "ping")
        nodes[1].send(0, "ping")
        sim.run_until(1_000.0)
        assert nodes[1].received == []      # 0 -> 1 cut
        assert len(nodes[0].received) == 1  # 1 -> 0 still up
        assert net.messages_dropped == 1

    def test_symmetric_cut_and_restore(self):
        sim, net, nodes = build_net()
        net.set_link_down(0, 1)
        assert not net.can_reach(0, 1) and not net.can_reach(1, 0)
        net.set_link_up(0, 1)
        assert net.can_reach(0, 1) and net.can_reach(1, 0)
        nodes[0].send(1, "ping")
        sim.run_until(1_000.0)
        assert len(nodes[1].received) == 1

    def test_cut_mid_flight_drops_delivery(self):
        sim, net, nodes = build_net()
        nodes[0].send(1, "ping")
        net.set_link_down(0, 1)  # after send, before delivery
        sim.run_until(1_000.0)
        assert nodes[1].received == []
        assert net.messages_dropped == 1

    def test_loss_probability_validated(self):
        _, net, _ = build_net()
        with pytest.raises(ValueError, match="probability"):
            net.set_link_loss(0, 1, 1.5)

    def test_lossy_link_drops_fraction(self):
        sim, net, nodes = build_net()
        net.set_link_loss(0, 1, 0.5)
        for _ in range(300):
            nodes[0].send(1, "ping")
        sim.run_until(10_000.0)
        assert 80 < len(nodes[1].received) < 220
        # Asymmetric: the reverse direction is untouched.
        for _ in range(50):
            nodes[1].send(0, "ping")
        sim.run_until(20_000.0)
        assert len(nodes[0].received) == 50
        net.clear_link_loss(0, 1)
        before = len(nodes[1].received)
        for _ in range(50):
            nodes[0].send(1, "ping")
        sim.run_until(30_000.0)
        assert len(nodes[1].received) == before + 50

    def test_can_reach_includes_node_liveness(self):
        _, net, _ = build_net()
        net.set_down(1)
        assert not net.can_reach(0, 1)
        net.set_up(1)
        assert net.can_reach(0, 1)


# ----------------------------------------------------------------------
# FailureInjector: deterministic ordering, partitions, flaky links
# ----------------------------------------------------------------------
class TestInjectorDeterminism:
    def test_same_instant_outcome_independent_of_insertion_order(self):
        # The fixed bug: recover+crash scheduled at the same sim-time
        # used to resolve by insertion order.  Now repairs apply first,
        # so the node always ends DOWN, whichever call came first.
        for first in ("crash", "recover"):
            sim, net, _ = build_net()
            injector = FailureInjector(net)
            injector.crash_at(10.0, 0)   # node is down before t=50
            if first == "crash":
                injector.crash_at(50.0, 0)
                injector.recover_at(50.0, 0)
            else:
                injector.recover_at(50.0, 0)
                injector.crash_at(50.0, 0)
            sim.run_until(100.0)
            assert not net.is_up(0), f"insertion order {first!r} leaked"
            kinds = [e.kind for e in injector.timeline if e.time == 50.0]
            assert kinds == ["recover", "crash"]

    def test_heal_before_partition_at_same_instant(self):
        sim, net, _ = build_net()
        injector = FailureInjector(net)
        injector.partition_at(10.0, [0, 1])
        # At t=50 the old partition heals and a new one forms — in that
        # order, regardless of scheduling order.  Had the partition
        # applied first, the heal of [0, 1] would erase its cut of the
        # (0, 3) pair.
        injector.partition_at(50.0, [0, 2])
        injector.heal_at(50.0, [0, 1])
        sim.run_until(100.0)
        assert net.can_reach(0, 2)       # together in the new group
        assert not net.can_reach(0, 1)   # cut by the new partition
        assert not net.can_reach(0, 3)   # proof the heal ran first


class TestPartitions:
    def test_partition_cuts_both_directions_between_groups(self):
        sim, net, nodes = build_net()
        injector = FailureInjector(net)
        injector.partition_now([0, 1], [2, 3])
        for a, b in [(0, 2), (2, 0), (1, 3), (3, 1)]:
            assert not net.can_reach(a, b)
        # Within a group traffic still flows.
        assert net.can_reach(0, 1) and net.can_reach(2, 3)
        # Unlisted nodes are untouched when both groups are explicit.
        assert net.can_reach(0, 4) and net.can_reach(4, 2)
        assert len(injector.partitions()) == 1

    def test_group_b_defaults_to_all_other_nodes(self):
        sim, net, _ = build_net()
        injector = FailureInjector(net)
        injector.partition_now([0])
        assert all(not net.can_reach(0, b) for b in range(1, 6))
        injector.heal_now([0])
        assert all(net.can_reach(0, b) for b in range(1, 6))

    def test_overlapping_groups_rejected(self):
        _, net, _ = build_net()
        injector = FailureInjector(net)
        with pytest.raises(ValueError, match="disjoint"):
            injector.partition_now([0, 1], [1, 2])

    def test_flaky_link_scheduled_and_fixed(self):
        sim, net, nodes = build_net()
        injector = FailureInjector(net)
        injector.flaky_link_at(10.0, 0, 1, 1.0)  # total loss
        injector.fix_link_at(500.0, 0, 1)
        sim.run_until(20.0)
        nodes[0].send(1, "ping")
        sim.run_until(400.0)
        assert nodes[1].received == []
        sim.run_until(600.0)
        nodes[0].send(1, "ping")
        sim.run_until(1_000.0)
        assert len(nodes[1].received) == 1
        kinds = [e.kind for e in injector.timeline]
        assert kinds == ["link-loss", "link-fix"]


# ----------------------------------------------------------------------
# Controller: election, leases, degraded epochs
# ----------------------------------------------------------------------
def make_controller(n_dc=6, k=2, sites=(0, 1), **config):
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(n_dc, 2)) * 50.0
    return ReplicationController(
        coords, sites, ControllerConfig(k=k, max_micro_clusters=5, **config))


def feed(controller, site, center, n=30, spread=1.0, seed=0):
    rng = np.random.default_rng(seed)
    controller.record_batch(
        site, np.asarray(center) + rng.normal(size=(n, 2)) * spread)


class TestElection:
    def test_first_election_sets_lease_without_failover(self):
        c = make_controller()
        assert c.elect_coordinator([0, 1]) == (0, 1)
        assert c.failovers == 0
        # Re-electing the incumbent does not advance the lease.
        assert c.elect_coordinator([0, 1]) == (0, 1)

    def test_failover_advances_lease_and_counts(self):
        c = make_controller()
        c.elect_coordinator([0])
        assert c.elect_coordinator([3, 0]) == (3, 2)
        assert c.failovers == 1
        # Fail back: another failover, another lease term.
        assert c.elect_coordinator([0, 3]) == (0, 3)
        assert c.failovers == 2

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_controller().elect_coordinator([])


class TestLeaseFencing:
    def test_stale_lease_epoch_is_rejected_without_side_effects(self):
        c = make_controller()
        c.elect_coordinator([0])
        feed(c, 0, [40.0, 40.0])
        c.elect_coordinator([1, 0])   # failover: lease now 2
        before = (c.epoch, c.sites)
        report = c.run_epoch(np.random.default_rng(0), lease=1)
        assert "stale" in report.verdict.reason
        assert not report.migrated
        # The rejection is flagged: its epoch number repeats the last
        # completed epoch's (the counter never advanced), so ``rejected``
        # is what tells the two reports apart.
        assert report.rejected
        assert (c.epoch, c.sites) == before
        # The current lease holder still runs fine.
        report = c.run_epoch(np.random.default_rng(0), lease=2)
        assert "stale" not in report.verdict.reason
        assert not report.rejected


class TestDegradedEpochs:
    def test_unreachable_site_summaries_are_discarded(self):
        c = make_controller()
        feed(c, 0, [40.0, 40.0])
        feed(c, 1, [-40.0, -40.0])
        report = c.run_epoch(np.random.default_rng(0), reachable=[0])
        assert report.degraded
        assert report.reachable_sites == (0,)
        assert report.stale_summaries_dropped == 1
        # Site 1's summary was reset, not deferred: a follow-up epoch
        # with full visibility sees nothing from it.
        follow_up = c.run_epoch(np.random.default_rng(0))
        assert follow_up.accesses == 0

    def test_stale_drop_counts_sites_not_summary_objects(self):
        # Write-aware mode keeps two summary streams per site; a site
        # with both read and write data still counts once when dropped.
        c = make_controller(write_aware=True)
        feed(c, 0, [40.0, 40.0])
        feed(c, 1, [-40.0, -40.0])
        rng = np.random.default_rng(7)
        c.record_batch(1, np.asarray([-40.0, -40.0])
                       + rng.normal(size=(5, 2)), kind="write")
        report = c.run_epoch(np.random.default_rng(0), reachable=[0])
        assert report.stale_summaries_dropped == 1

    def test_no_reachable_sites_is_a_noop_epoch(self):
        c = make_controller()
        feed(c, 0, [40.0, 40.0])
        report = c.run_epoch(np.random.default_rng(0), reachable=[])
        assert report.verdict.reason == "no reachable summaries this epoch"
        assert report.proposed_sites == report.previous_sites

    def test_insufficient_eligible_candidates_blocks_migration(self):
        c = make_controller(k=2)
        feed(c, 0, [40.0, 40.0])
        report = c.run_epoch(np.random.default_rng(0), eligible=[3])
        assert not report.migrated
        assert "reachable candidates" in report.verdict.reason
        assert c.sites == report.previous_sites

    def test_migration_never_targets_ineligible_candidate(self):
        c = make_controller(n_dc=8, k=2)
        for _ in range(3):
            feed(c, c.sites[0], [60.0, 60.0])
            feed(c, c.sites[1], [-60.0, -60.0])
            eligible = [0, 1, 2, 3]
            report = c.run_epoch(np.random.default_rng(1),
                                 eligible=eligible)
            assert set(report.proposed_sites) <= set(eligible)
            assert set(c.sites) <= set(eligible)

    def test_eligible_positions_validated(self):
        c = make_controller(n_dc=4)
        feed(c, 0, [40.0, 40.0])
        with pytest.raises(ValueError, match="outside candidates"):
            c.run_epoch(np.random.default_rng(0), eligible=[99])


# ----------------------------------------------------------------------
# Store: coordinator failover + retry machinery
# ----------------------------------------------------------------------
class TestStoreFailover:
    def test_healthy_coordinator_is_first_candidate(self):
        sim, store = build_store()
        store.create_object("obj", initial_sites=[1, 2])
        assert store.current_coordinator("obj") == 0

    def test_dead_coordinator_fails_over_to_replica_holder(self):
        sim, store = build_store()
        store.create_object("obj", initial_sites=[1, 3])
        store.network.set_down(0)
        assert store.current_coordinator("obj") == 1
        store.network.set_down(1)
        assert store.current_coordinator("obj") == 3
        store.network.set_up(0)
        assert store.current_coordinator("obj") == 0

    def test_partitioned_coordinator_is_skipped(self):
        sim, store = build_store()
        store.create_object("obj", initial_sites=[1, 3])
        # Node 0 is up but unreachable from every replica holder.
        FailureInjector(store.network).partition_now([0])
        assert store.current_coordinator("obj") == 1

    def test_epoch_under_failover_records_new_coordinator(self):
        sim, store = build_store()
        store.create_object("obj", initial_sites=[1, 3],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        store.network.set_down(0)
        report = store.run_epoch("obj")
        controller = store.controller("obj")
        assert report.coordinator == store.candidates.index(1)
        assert controller.coordinator == store.candidates.index(1)

    def test_unreachable_candidates_are_ineligible(self):
        sim, store = build_store()
        store.create_object("obj", initial_sites=[0, 1],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        FailureInjector(store.network).partition_now([3, 4])
        coords = store.planar_coords()
        store.controller("obj").record_batch(0, coords[10:11])
        report = store.run_epoch("obj")
        assert report.degraded
        assert set(report.proposed_sites) <= {0, 1, 2}


class TestSummaryRetry:
    def test_delivered_summary_clears_pending_without_retry(self):
        sim, store = build_store(retry_policy=RetryPolicy(timeout_ms=500.0))
        store.create_object("obj", initial_sites=[1, 2],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        coords = store.planar_coords()
        store.controller("obj").record_batch(1, coords[10:11])
        store.run_epoch("obj")
        sim.run_until(5_000.0)
        assert store.summary_retries == 0
        assert store.summaries_lost == 0
        assert not store._units["obj"].pending_summaries

    def test_lost_summary_retries_then_gives_up(self):
        # A fully lossy link (as opposed to a cut one, which excludes
        # the site from ``reachable`` before anything ships): the
        # summary is sent, times out, retries, and is finally counted
        # as lost.
        policy = RetryPolicy(timeout_ms=500.0, max_attempts=3,
                             base_backoff_ms=100.0, jitter=0.0)
        sim, store = build_store(retry_policy=policy)
        store.create_object("obj", initial_sites=[1, 2],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        store.network.set_link_loss(1, 0, 1.0)
        coords = store.planar_coords()
        store.controller("obj").record_batch(1, coords[10:11])
        store.run_epoch("obj")
        sim.run_until(60_000.0)
        assert store.summary_retries == policy.max_attempts - 1
        assert store.summaries_lost == 1
        assert not store._units["obj"].pending_summaries

    def test_stale_epoch_copy_does_not_ack_current_shipment(self):
        # Epoch 1's summary is still in flight when epoch 2 supersedes
        # it; epoch 2's copy is lost at send.  The late epoch-1 copy
        # carries an older shipment id, so it must not cancel epoch 2's
        # pending entry — the loss stays observable.
        policy = RetryPolicy(timeout_ms=500.0, max_attempts=3,
                             base_backoff_ms=100.0, jitter=0.0)
        sim, store = build_store(retry_policy=policy)
        store.create_object("obj", initial_sites=[1, 2],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        coords = store.planar_coords()
        store.controller("obj").record_batch(1, coords[10:11])
        store.run_epoch("obj")                   # epoch 1: copy in flight
        store.network.set_link_loss(1, 0, 1.0)   # epoch 2 loses every copy
        store.controller("obj").record_batch(1, coords[10:11])
        store.run_epoch("obj")
        sim.run_until(60_000.0)
        assert store.summaries_lost == 1
        assert store.summary_retries == policy.max_attempts - 1
        assert not store._units["obj"].pending_summaries

    def test_summary_traffic_charge_matches_report_under_partition(self):
        # Only the reachable holders ship, so the per-shipper charge
        # divides by the shippers, not the full previous replica set.
        sim, store = build_store()
        store.create_object("obj", initial_sites=[1, 2],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        coords = store.planar_coords()
        store.controller("obj").record_batch(1, coords[10:11])
        store.controller("obj").record_batch(2, coords[11:12])
        FailureInjector(store.network).partition_now([2])
        shipped = []
        unit = store._units["obj"]
        original = unit._ship_summary
        unit._ship_summary = (
            lambda site, coordinator, size_bytes:
            (shipped.append((site, size_bytes)),
             original(site, coordinator, size_bytes))[-1])
        report = store.run_epoch("obj")
        assert report.summary_bytes > 1
        assert shipped == [(1, report.summary_bytes)]

    def test_flaky_summary_link_eventually_delivers(self):
        policy = RetryPolicy(timeout_ms=500.0, max_attempts=6,
                             base_backoff_ms=50.0, jitter=0.25)
        sim, store = build_store(retry_policy=policy)
        store.create_object("obj", initial_sites=[1, 2],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        store.network.set_link_loss(1, 0, 0.7)
        coords = store.planar_coords()
        lost = 0
        for trial in range(8):
            store.controller("obj").record_batch(1, coords[10:11])
            store.run_epoch("obj")
            sim.run_until(sim.now + 60_000.0)
            lost += store.summaries_lost
        # With 6 attempts at 70% loss, essentially every epoch's summary
        # lands eventually; retries must have been consumed doing it.
        assert store.summary_retries > 0
        assert lost <= 2


class TestMigrationRetry:
    def _migrating_store(self, policy):
        sim, store = build_store(retry_policy=policy)
        store.create_object("obj", initial_sites=[0, 1],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        return sim, store

    def test_blocked_transfer_retries_and_rolls_back(self):
        policy = RetryPolicy(timeout_ms=500.0, max_attempts=3,
                             base_backoff_ms=100.0, jitter=0.0)
        sim, store = self._migrating_store(policy)
        unit = store._units["obj"]
        # Cut every path into node 4, then force a migration onto it.
        for source in store.candidates:
            if source != 4:
                store.network.set_link_down(source, 4, symmetric=False)
        unit.controller.on_migrate((0, 1), (0, 4))
        sim.run_until(120_000.0)
        assert store.migration_retries == policy.max_attempts - 1
        assert store.migrations_abandoned == 1
        assert store.migration_rollbacks == 1
        # Degree preserved: the rollback kept an old site instead.
        assert unit.installed == {0, 1}
        assert unit.target is None and not unit.awaiting
        assert not unit.pending_transfers
        # The controller was re-synced to reality.
        assert set(unit.controller.sites) == {
            store.candidates.index(0), store.candidates.index(1)}

    def test_transfer_succeeds_after_transient_cut(self):
        policy = RetryPolicy(timeout_ms=500.0, max_attempts=5,
                             base_backoff_ms=200.0, jitter=0.0)
        sim, store = self._migrating_store(policy)
        unit = store._units["obj"]
        for source in store.candidates:
            if source != 4:
                store.network.set_link_down(source, 4, symmetric=False)
        unit.controller.on_migrate((0, 1), (0, 4))
        # Heal before the budget runs out: a later retry gets through.
        sim.schedule_at(900.0, lambda: [
            store.network.set_link_up(source, 4, symmetric=False)
            for source in store.candidates])
        sim.run_until(120_000.0)
        assert store.migration_retries >= 1
        assert store.migrations_abandoned == 0
        assert unit.installed == {0, 4}

    def test_duplicate_delivery_after_finalize_is_harmless(self):
        # Delivery slower than the timeout: the original and the retry
        # both arrive.  The first finalizes the migration; the straggler
        # must not re-finalize (it used to trip the finalize assertion).
        sim, store = build_store()
        store.create_object("obj", initial_sites=[0, 1],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        unit = store._units["obj"]
        lat = store.network.matrix.one_way
        source = min((0, 1), key=lambda s: store.network.matrix.latency(s, 4))
        delay = lat(source, 4)
        assert delay > 1.0  # sanity: the timings below rely on it
        store.retry_policy = RetryPolicy(
            timeout_ms=0.4 * delay, max_attempts=3,
            base_backoff_ms=0.25 * delay, jitter=0.0)
        unit.controller.on_migrate((0, 1), (0, 4))
        sim.run_until(60_000.0)
        assert store.migration_retries == 1
        assert store.migrations_abandoned == 0
        assert unit.installed == {0, 4}
        assert unit.target is None and not unit.pending_transfers
        assert store.servers[4].holds_unit(unit)

    def test_late_copy_after_rollback_does_not_resurrect_replica(self):
        # The attempt budget runs out (and the migration rolls back)
        # while the copies are still in flight; when they land, the
        # abandoned target must stay empty instead of becoming an
        # untracked replica (or re-finalizing a settled migration).
        policy = RetryPolicy(timeout_ms=1.0, max_attempts=2,
                             base_backoff_ms=1.0, jitter=0.0)
        sim, store = build_store(retry_policy=policy)
        store.create_object("obj", initial_sites=[0, 1],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        unit = store._units["obj"]
        unit.controller.on_migrate((0, 1), (0, 4))
        sim.run_until(60_000.0)
        assert store.migrations_abandoned == 1
        assert store.migration_rollbacks == 1
        assert unit.installed == {0, 1}
        assert unit.target is None and not unit.awaiting
        assert not store.servers[4].replicas

    def test_no_retry_policy_preserves_fire_and_forget(self):
        sim, store = build_store()
        store.create_object("obj", initial_sites=[0, 1],
                            controller_config=ControllerConfig(
                                k=2, max_micro_clusters=5))
        unit = store._units["obj"]
        for source in store.candidates:
            if source != 4:
                store.network.set_link_down(source, 4, symmetric=False)
        unit.controller.on_migrate((0, 1), (0, 4))
        sim.run_until(60_000.0)
        # Legacy behaviour: the transfer is simply lost, no counters.
        assert store.migration_retries == 0
        assert store.migrations_abandoned == 0
        assert unit.awaiting == {4}


# ----------------------------------------------------------------------
# Scenario parsing
# ----------------------------------------------------------------------
class TestScenarioParsing:
    def test_bundled_examples_parse(self):
        import os
        base = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "chaos")
        for name in ("smoke", "single_dc_outage", "coordinator_crash",
                     "partition_60_40"):
            scenario = load_scenario(os.path.join(base, f"{name}.toml"))
            assert scenario.faults, name

    def test_json_round_trip(self, tmp_path):
        payload = {
            "name": "t", "seed": 3, "runs": 1,
            "world": {"n_nodes": 30, "n_dc": 6},
            "object": {"k": 2},
            "faults": [{"kind": "crash", "at": 1_000.0, "node": 1}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        scenario = load_scenario(str(path))
        assert scenario.n_dc == 6 and scenario.k == 2
        assert scenario.faults[0] == FaultSpec(kind="crash", at=1_000.0,
                                               node=1)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown \\[world\\] fields"):
            _parse_scenario({"world": {"bogus": 1}}, "test")
        with pytest.raises(ValueError, match="top-level"):
            _parse_scenario({"bogus": 1}, "test")
        with pytest.raises(ValueError, match="does not accept"):
            _parse_scenario(
                {"faults": [{"kind": "crash", "at": 1.0, "node": 0,
                             "loss": 0.5}]}, "test")

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", at=0.0)
        with pytest.raises(ValueError, match="needs a 'node'"):
            FaultSpec(kind="crash", at=0.0)
        with pytest.raises(ValueError, match="'until'"):
            FaultSpec(kind="crash", at=10.0, node=0, until=5.0)
        with pytest.raises(ValueError, match="group_a"):
            FaultSpec(kind="partition", at=0.0)
        with pytest.raises(ValueError, match="loss"):
            FaultSpec(kind="flaky-link", at=0.0, a=0, b=1)

    def test_scenario_cross_validation(self):
        with pytest.raises(ValueError, match="candidate position"):
            ChaosScenario(n_dc=4, faults=(
                FaultSpec(kind="crash", at=1_000.0, node=9),))
        with pytest.raises(ValueError, match="beyond the"):
            ChaosScenario(duration_ms=1_000.0, settle_ms=0.0, faults=(
                FaultSpec(kind="crash", at=5_000.0, node=0),))

    def test_retired_engine_key(self, tmp_path):
        # One access driver: ``[workload] engine`` is gone.  Files that
        # asked for the surviving one still load (and load equal to the
        # same file without the key); asking for the other is an error
        # naming the removal — in TOML and in JSON.
        def write(suffix, engine):
            line = "" if engine is None else f'engine = "{engine}"\n'
            if suffix == ".toml":
                text = f"seed = 3\n[workload]\n{line}rate_per_second = 50.0\n"
            else:
                workload = {"rate_per_second": 50.0}
                if engine is not None:
                    workload["engine"] = engine
                text = json.dumps({"seed": 3, "workload": workload})
            path = tmp_path / f"scenario-{engine}{suffix}"
            path.write_text(text)
            return str(path)

        for suffix in (".toml", ".json"):
            plain = load_scenario(write(suffix, None))
            assert plain.rate_per_second == 50.0
            assert load_scenario(write(suffix, "batched")) == plain
            with pytest.raises(ValueError, match="engine was removed"):
                load_scenario(write(suffix, "event"))
        assert "engine" not in {f.name
                                for f in dataclasses.fields(ChaosScenario)}

    def test_unsupported_extension_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: nope")
        with pytest.raises(ValueError, match="unsupported"):
            load_scenario(str(path))
