"""Observability must never perturb the simulation (regression tests).

The core contract of :mod:`repro.obs`: instrumentation only *reads*
simulator state — it never draws from an RNG stream, schedules an
event, or reorders work.  These tests run the same seeded scenario with
metrics+tracing on and off and demand bit-identical behaviour: the same
access log, the same placement decisions, the same migrations, and the
same "golden" RNG draws afterwards (any hidden RNG consumption by the
instrumentation would shift the stream state).
"""

import numpy as np

from repro import obs
from repro.core import ControllerConfig, MigrationPolicy
from repro.coords import embed_matrix
from repro.net import PlanetLabParams, synthetic_planetlab_matrix
from repro.placement import PlacementProblem
from repro.placement.online import OnlineClusteringPlacement
from repro.sim import Simulator
from repro.store import BatchedAccessWorkload, ReplicatedStore
from repro.workloads import ClientPopulation


def _build_world(seed=11, n=40):
    matrix, _ = synthetic_planetlab_matrix(PlanetLabParams(n=n), seed=seed)
    result = embed_matrix(matrix, system="mds",
                          rng=np.random.default_rng(seed + 1))
    planar = result.coords[:, :result.space.dim]
    return matrix, planar


def _run_store_scenario(matrix, planar):
    """One small end-to-end run; returns every observable decision."""
    sim = Simulator(seed=11)
    candidates = tuple(range(8))
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle")
    store.create_object(
        "obj", k=2,
        controller_config=ControllerConfig(k=2, max_micro_clusters=8,
                                           radius_floor=5.0),
        policy=MigrationPolicy(min_relative_gain=0.02,
                               min_absolute_gain_ms=0.5),
        epoch_period_ms=5_000.0,
    )
    population = ClientPopulation.uniform(tuple(range(8, matrix.n)))
    BatchedAccessWorkload(store, population, ["obj"], rate_per_second=120.0,
                          write_fraction=0.1)
    sim.run_until(30_000.0)

    access_log = tuple(
        (r.time, r.client, r.server, r.key, r.delay_ms, r.kind, r.version)
        for r in store.log.records)
    sites = store.installed_sites("obj")
    migrations = tuple(
        (r.epoch, r.previous_sites, r.proposed_sites, r.migrated)
        for r in store.epoch_reports("obj"))
    # Golden draws: consuming from the streams the run used exposes any
    # extra RNG pulls the instrumentation might have made.
    golden = tuple(
        int(sim.rng(stream).integers(0, 10 ** 9))
        for stream in ("workload", "placement") for _ in range(3))
    return access_log, sites, migrations, golden, sim.events_processed


class TestStoreDeterminism:
    def test_identical_run_with_obs_on_and_off(self):
        matrix, planar = _build_world()

        assert obs.get_registry() is obs.NULL_REGISTRY  # baseline: off
        baseline = _run_store_scenario(matrix, planar)

        with obs.observe() as (registry, tracer):
            instrumented = _run_store_scenario(matrix, planar)

        assert instrumented == baseline

        # The run was actually observed, not silently on the null path —
        # and the metrics agree with the ground-truth log.
        access_log = baseline[0]
        assert registry.counter("accesses.served").value == len(access_log)
        assert registry.histogram("access.delay_ms").count == len(access_log)
        assert registry.counter("store.epochs").value == \
            len(baseline[2])
        served = tracer.kind_counts().get(obs.ACCESS_SERVED, 0)
        assert served == len(access_log)

    def test_repeated_instrumented_runs_identical(self):
        # Determinism within the instrumented mode itself: tracing twice
        # gives the same event sequence (ring buffer reads back equal).
        matrix, planar = _build_world()
        runs = []
        for _ in range(2):
            with obs.observe() as (registry, tracer):
                result = _run_store_scenario(matrix, planar)
            spans = tuple((s.kind, s.time) for s in tracer.spans())
            runs.append((result, spans, registry.snapshot()["counters"]))
        assert runs[0] == runs[1]


class TestPlacementDeterminism:
    def test_online_placement_identical_with_obs_on_and_off(self):
        matrix, planar = _build_world(seed=3)
        candidates = tuple(range(10))
        clients = tuple(range(10, matrix.n))
        problem = PlacementProblem(matrix, candidates, clients, 3,
                                   coords=planar)
        strategy = OnlineClusteringPlacement()

        baseline = strategy.place(problem, np.random.default_rng(7))
        with obs.observe() as (registry, _):
            instrumented = strategy.place(problem, np.random.default_rng(7))

        assert instrumented == baseline
        assert registry.timer("placement.online.place").calls == 1
