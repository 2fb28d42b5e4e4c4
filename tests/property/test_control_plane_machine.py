"""A Hypothesis state machine over the per-unit control plane.

Two placement units — an object and a two-member group — live on a
six-candidate store with auto-repair and a :class:`RetryPolicy`.  The
machine interleaves crashes and recoveries, one partition at a time,
explicit epochs, client reads and writes, and stretches of simulated
time, and after every step checks what must hold of each unit whatever
the interleaving:

* every installed site holds every member of the unit;
* no site is both installed and awaited;
* a settled migration (no target) leaves no transfer pending;
* while a server holds a key, its version of that key never decreases.
"""

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import ControllerConfig, MigrationPolicy
from repro.core.migration import RetryPolicy
from repro.net.planetlab import small_matrix
from repro.sim import FailureInjector, Simulator
from repro.store import ReplicatedStore

N_NODES = 10
CANDIDATES = tuple(range(6))
CLIENTS = tuple(range(6, N_NODES))
UNITS = ("solo", "pair")
KEYS = ("solo", "pair/a", "pair/b")

sites = st.sampled_from(CANDIDATES)


class ControlPlaneMachine(RuleBasedStateMachine):

    @initialize(seed=st.integers(min_value=0, max_value=3))
    def build(self, seed):
        matrix = small_matrix(n=N_NODES, seed=seed)
        planar = np.random.default_rng(seed).normal(size=(N_NODES, 2)) * 40.0
        self.sim = Simulator(seed=seed)
        self.store = ReplicatedStore(
            self.sim, matrix, CANDIDATES, planar, selection="oracle",
            read_timeout_ms=300.0, auto_repair=True, repair_period_ms=700.0,
            retry_policy=RetryPolicy(timeout_ms=250.0, max_attempts=2,
                                     base_backoff_ms=80.0))
        config = ControllerConfig(k=3, max_micro_clusters=4)
        policy = MigrationPolicy(min_relative_gain=0.0,
                                 min_absolute_gain_ms=0.0)
        self.store.create_object("solo", initial_sites=[0, 1, 2],
                                 controller_config=config, policy=policy,
                                 epoch_period_ms=1_000.0)
        self.store.create_group("pair", ["pair/a", "pair/b"],
                                initial_sites=[3, 4, 5],
                                controller_config=config, policy=policy,
                                epoch_period_ms=1_300.0)
        for client in CLIENTS:
            self.store.add_client(client)
        self.injector = FailureInjector(self.store.network)
        self.partitioned = None
        self.held = {}

    @rule(site=sites)
    def crash(self, site):
        self.injector.crash_now(site)

    @rule(site=sites)
    def recover(self, site):
        self.injector.recover_now(site)

    @precondition(lambda self: self.partitioned is None)
    @rule(group=st.sets(sites, min_size=1, max_size=3))
    def partition(self, group):
        self.partitioned = tuple(sorted(group))
        self.injector.partition_now(self.partitioned)

    @precondition(lambda self: self.partitioned is not None)
    @rule()
    def heal(self):
        self.injector.heal_now(self.partitioned)
        self.partitioned = None

    @rule(unit=st.sampled_from(UNITS))
    def epoch(self, unit):
        self.store.run_epoch(unit)

    @rule(client=st.sampled_from(CLIENTS), key=st.sampled_from(KEYS),
          write=st.booleans())
    def access(self, client, key, write):
        # A read or write per step; a burst of reads gives the summaries
        # something to migrate on.
        handle = self.store.clients[client]
        if write:
            handle.write(key)
        else:
            for _ in range(6):
                handle.read(key)

    @rule(ms=st.floats(min_value=20.0, max_value=2_500.0))
    def advance(self, ms):
        self.sim.run_until(self.sim.now + ms)

    # ------------------------------------------------------------------
    @invariant()
    def installed_sites_hold_every_member(self):
        for name, unit in self.store._units.items():
            for site in unit.installed:
                replicas = self.store.servers[site].replicas
                assert all(key in replicas for key in unit.members), \
                    (name, site)

    @invariant()
    def awaiting_and_installed_are_disjoint(self):
        for name, unit in self.store._units.items():
            assert not unit.awaiting & unit.installed, name

    @invariant()
    def settled_migrations_leave_no_pending_transfer(self):
        for name, unit in self.store._units.items():
            assert unit.target is not None or not unit.pending_transfers, \
                name

    @invariant()
    def held_versions_never_decrease(self):
        held = {}
        for site, server in self.store.servers.items():
            for key, version in server.replicas.items():
                assert version >= self.held.get((site, key), version), \
                    (site, key)
                held[site, key] = version
        self.held = held


ControlPlaneMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestControlPlaneMachine = ControlPlaneMachine.TestCase
