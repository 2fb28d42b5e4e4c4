"""Property-based tests (hypothesis) for the fault-tolerance layer.

Each example generates a random failure schedule — crashes, partitions,
flaky links, at random times with random durations — runs the full live
stack under it, and checks the invariants the chaos harness relies on:

* the replica count stays within bounds throughout the run and returns
  to ``k`` once every fault has healed;
* no placement epoch ever migrates the object onto a candidate the
  coordinator could not reach at decision time;
* the retry/abandon counters are consistent with the recorded trace
  (every abandoned transfer burned its full retry budget, every
  rollback left a trace span, and so on).

The worlds are deliberately tiny (24 nodes, 6 candidate DCs) so each
example runs in well under a second.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from repro import obs
from repro.core import ControllerConfig, MigrationPolicy
from repro.core.migration import RetryPolicy
from repro.net.planetlab import small_matrix
from repro.sim import FailureInjector, Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation

N_NODES = 24
N_DC = 6
K = 3
DURATION_MS = 24_000.0
HEAL_BY_MS = 16_000.0    # every fault is over by here
EPOCH_MS = 5_000.0
RETRY = RetryPolicy(timeout_ms=800.0, max_attempts=3,
                    base_backoff_ms=200.0, jitter=0.25)

positions = st.integers(min_value=0, max_value=N_DC - 1)
start_times = st.floats(min_value=1_000.0, max_value=10_000.0)
durations = st.floats(min_value=1_000.0, max_value=6_000.0)


@st.composite
def fault_schedules(draw):
    """A list of (kind, at, until, params) tuples.

    At most two crash faults with distinct victims, so with ``K = 3``
    at least one replica holder stays alive at all times.
    """
    faults = []
    victims = draw(st.lists(positions, max_size=2, unique=True))
    for victim in victims:
        at = draw(start_times)
        until = min(at + draw(durations), HEAL_BY_MS)
        faults.append(("crash", at, until, victim))
    if draw(st.booleans()):
        group = draw(st.lists(positions, min_size=1, max_size=3,
                              unique=True))
        at = draw(start_times)
        until = min(at + draw(durations), HEAL_BY_MS)
        faults.append(("partition", at, until, tuple(sorted(group))))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.lists(positions, min_size=2, max_size=2,
                             unique=True))
        loss = draw(st.floats(min_value=0.3, max_value=1.0))
        at = draw(start_times)
        until = min(at + draw(durations), HEAL_BY_MS)
        faults.append(("flaky", at, until, (a, b, loss)))
    return faults


def run_under_schedule(faults, seed=0):
    """Run the live stack under a schedule; return probes and counters."""
    matrix = small_matrix(n=N_NODES, seed=seed)
    rng = np.random.default_rng(seed)
    planar = rng.normal(size=(N_NODES, 3)) * 40.0
    candidates = tuple(range(N_DC))
    sim = Simulator(seed=seed)
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle", read_timeout_ms=500.0,
                            auto_repair=True, repair_period_ms=1_500.0,
                            retry_policy=RETRY)
    store.create_object(
        "obj", k=K,
        controller_config=ControllerConfig(k=K, max_micro_clusters=6),
        policy=MigrationPolicy(min_relative_gain=0.0,
                               min_absolute_gain_ms=0.1),
        epoch_period_ms=EPOCH_MS)
    clients = [n for n in range(N_NODES) if n not in candidates]
    BatchedAccessWorkload(store, ClientPopulation.uniform(clients), ["obj"],
                          rate_per_second=40.0)

    injector = FailureInjector(store.network)
    for kind, at, until, params in faults:
        if kind == "crash":
            node = candidates[params]
            injector.crash_at(at, node)
            injector.recover_at(until, node)
        elif kind == "partition":
            group = tuple(candidates[p] for p in params)
            injector.partition_at(at, group)
            injector.heal_at(until, group)
        else:
            a, b, loss = params
            injector.flaky_link_at(at, candidates[a], candidates[b], loss)
            injector.fix_link_at(until, candidates[a], candidates[b])

    unit = store._units["obj"]

    # Spy on every epoch: snapshot which candidates the coordinator can
    # exchange traffic with *at decision time*, before state moves on.
    epochs = []
    orig_run_epoch = store.run_epoch

    def spying_run_epoch(unit_key):
        coordinator = store.current_coordinator(unit_key)
        exchangeable = {
            p for p, site in enumerate(store.candidates)
            if store.network.can_reach(coordinator, site)
            and store.network.can_reach(site, coordinator)}
        report = orig_run_epoch(unit_key)
        epochs.append((sim.now, report, exchangeable))
        return report

    store.run_epoch = spying_run_epoch

    # Probe replica-set invariants once per simulated second.
    probes = []

    def probe():
        probes.append((sim.now, frozenset(unit.installed),
                       frozenset(unit.awaiting)))
        if sim.now < DURATION_MS - 1.0:
            sim.schedule(1_000.0, probe)

    sim.schedule(1_000.0, probe)

    with obs.observe() as (_registry, tracer):
        sim.run_until(DURATION_MS)
        spans = list(tracer)
    return store, unit, probes, epochs, spans


@given(fault_schedules())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replica_count_stays_in_bounds(faults):
    store, unit, probes, _epochs, _spans = run_under_schedule(faults)
    candidates = set(store.candidates)
    for time, installed, awaiting in probes:
        # Floor: the schedule can kill at most 2 of the 3 holders.
        assert len(installed) >= 1, (time, faults)
        # Ceiling: old + new sites during a migration, never more.
        assert len(installed) <= 2 * K, (time, faults)
        assert installed <= candidates
        assert awaiting <= candidates
        assert not (installed & awaiting), (time, faults)
    # Every fault healed by HEAL_BY_MS; repair and epochs then restore
    # full replication degree.
    assert len(unit.installed) >= K, faults
    # The controller's view agrees with the store's reality.
    assert set(unit.controller.sites) == {
        store.candidates.index(s) for s in unit.installed}


@given(fault_schedules())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_migration_targets_unreachable_candidate(faults):
    _store, _unit, _probes, epochs, _spans = run_under_schedule(faults)
    assert epochs, "epoch loop never ran"
    for time, report, exchangeable in epochs:
        if report.migrated:
            assert set(report.proposed_sites) <= exchangeable, (
                time, report.proposed_sites, sorted(exchangeable), faults)
        if report.degraded:
            assert report.reachable_sites is not None


@given(fault_schedules())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_retry_counters_consistent_with_trace(faults):
    store, unit, _probes, epochs, spans = run_under_schedule(faults)

    starts = [s for s in spans if s.kind == obs.MIGRATION_START]
    finishes = [s for s in spans if s.kind == obs.MIGRATION_FINISH]
    rollbacks = [s for s in finishes if s.attrs.get("rolled_back")]

    # Every rollback is traced, and vice versa.
    assert store.migration_rollbacks == len(rollbacks), faults
    # A migration can finish at most once per start.
    assert len(finishes) <= len(starts), faults
    # An abandoned target burned its whole retry budget first.
    assert store.migration_retries >= (
        store.migrations_abandoned * (RETRY.max_attempts - 1)), faults
    # Same for summaries declared lost.
    assert store.summary_retries >= (
        store.summaries_lost * (RETRY.max_attempts - 1)), faults
    # Rollbacks imply abandoned transfers.
    assert store.migration_rollbacks <= store.migrations_abandoned, faults
    # Stale-lease rejections and degraded epochs are visible in reports.
    degraded = sum(1 for _, r, _ in epochs if r.degraded)
    assert degraded <= len(epochs)
    # No pending machinery leaks past the end of the run once every
    # fault has healed and the backoff budgets have drained.
    assert not unit.pending_transfers or unit.target is not None
    # Counters never go negative (they are plain ints, but a rollback
    # bug could double-decrement a set size into one of these).
    for counter in (store.migration_retries, store.migrations_abandoned,
                    store.migration_rollbacks, store.summary_retries,
                    store.summaries_lost, store.repairs):
        assert counter >= 0


def test_identical_schedule_is_bit_deterministic():
    faults = [("crash", 3_000.0, 9_000.0, 1),
              ("partition", 5_000.0, 12_000.0, (0, 2)),
              ("flaky", 4_000.0, 14_000.0, (3, 4, 0.8))]
    runs = []
    for _ in range(2):
        store, unit, probes, epochs, _spans = run_under_schedule(faults)
        runs.append((
            tuple(probes),
            tuple((t, r.proposed_sites, r.migrated) for t, r, _ in epochs),
            tuple(sorted(unit.installed)),
            store.migration_retries, store.migrations_abandoned,
            store.summary_retries, store.summaries_lost,
            len(store.log.records),
        ))
    assert runs[0] == runs[1]
