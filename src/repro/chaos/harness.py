"""Executing chaos scenarios: paired faulty/baseline live-stack runs.

Each scenario run builds the full live stack (synthetic PlanetLab
world, embedded coordinates, replicated store with the control loop,
Poisson access workload), injects the scenario's fault schedule, and
reports a :class:`ChaosRunResult` of counters.  :func:`run_chaos` runs
every scenario run twice — with the faults and without, over the same
world and seeds — through :mod:`repro.runner.pool`, so chaos sweeps
parallelize, cache and resume exactly like the figure sweeps, and the
summary is bit-identical at any ``--jobs`` level.

Seeding: every stream derives from the run's identity via
:func:`repro.runner.jobs.seed_sequence` — ``(seed, run_index, stream)``
— never from execution order.  The faulty run consumes extra randomness
only from its own named simulator streams (``retry-jitter``,
``net.loss``), so the workload stream stays aligned with the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.chaos.scenario import (
    ChaosScenario,
    FaultSpec,
    _parse_domain_spec,
)
from repro.core.controller import ControllerConfig
from repro.core.migration import MigrationPolicy
from repro.runner.jobs import seed_sequence, spec_payload
from repro.runner.pool import execute

__all__ = ["ChaosRunResult", "ChaosRunSpec", "live_world", "run_scenario",
           "run_chaos", "format_chaos", "chaos_summary_json"]

#: Stream tags mixed into seed_sequence keys (arbitrary, fixed).
_CANDIDATES_STREAM = 101
_EMBED_STREAM = 102


@dataclass(frozen=True)
class ChaosRunResult:
    """Counters of one scenario run (one seed, faulty or baseline)."""

    reads_issued: int
    reads_completed: int
    failed_reads: int
    mean_delay_ms: float
    #: Mean delay over the final quarter of the run — "after the dust
    #: settles"; the acceptance latency ratio is measured on this.
    final_delay_ms: float
    #: Tail of the read-delay distribution over the whole run — the
    #: metrics the ``[queueing]``/``[selection]`` axes move.
    p50_ms: float
    p99_ms: float
    p999_ms: float
    #: Reads dropped at a full server queue (``queue_capacity`` runs).
    queue_rejections: int
    crashes: int
    partitions: int
    failovers: int
    coordinator: int
    epochs: int
    epochs_degraded: int
    stale_summaries_dropped: int
    migrations: int
    migration_retries: int
    migrations_abandoned: int
    migration_rollbacks: int
    summary_retries: int
    summaries_lost: int
    repairs: int
    #: Installed replicas hit by a crash over the whole run, and the
    #: lowest number of live replicas observed at any crash instant —
    #: the blast-radius metrics the availability certification compares
    #: between λ > 0 and latency-only placement.
    replicas_lost: int
    min_live_replicas: int
    final_sites: tuple[int, ...]

    def __post_init__(self) -> None:
        # A cached result comes back from JSON with a list here.
        object.__setattr__(self, "final_sites", tuple(self.final_sites))


@dataclass(frozen=True)
class ChaosRunSpec:
    """One runnable chaos cell: (scenario, run index, faulty?).

    A :class:`~repro.runner.jobs.JobSpec`, so chaos runs go through the
    same pool, cache and resume machinery as every other experiment.
    """

    scenario: ChaosScenario
    run_index: int
    faulty: bool

    kind = "chaos-run"
    setting = None                  # the scenario carries its own world
    result_type = ChaosRunResult

    def payload(self) -> dict:
        return spec_payload(self)

    def execute(self, world=None) -> ChaosRunResult:
        return run_scenario(self.scenario, run_index=self.run_index,
                            faulty=self.faulty)


def live_world(n_nodes: int, n_dc: int, seed: int, run_index: int = 0,
               coord_system: str = "rnp"):
    """The world every live-stack cell starts from, keyed by its identity.

    Returns ``(sim, matrix, planar, candidates, clients)``: a simulator
    seeded from ``(seed, run_index)``, the synthetic RTT matrix of
    ``seed``, its 40-round embedding cut to three planar dimensions and
    the candidate/client split.  Chaos runs and catalog cells both build
    through here, so the same master seed reproduces the same world in
    either.
    """
    from repro.analysis.experiment import draw_candidates
    from repro.coords import embed_matrix
    from repro.net import PlanetLabParams, synthetic_planetlab_matrix
    from repro.sim import Simulator

    matrix, _ = synthetic_planetlab_matrix(
        PlanetLabParams(n=n_nodes), seed=seed)
    planar = embed_matrix(
        matrix, system=coord_system, rounds=40,
        rng=np.random.default_rng(
            seed_sequence(seed, run_index, _EMBED_STREAM)),
    ).coords[:, :3]
    candidates, clients = draw_candidates(
        matrix, n_dc,
        np.random.default_rng(
            seed_sequence(seed, run_index, _CANDIDATES_STREAM)))
    sim_seed = int(seed_sequence(seed, run_index).generate_state(1)[0])
    return Simulator(seed=sim_seed), matrix, planar, candidates, clients


def _schedule_faults(injector, store, scenario: ChaosScenario,
                     candidates: Sequence[int], domains=None,
                     unit_list: Sequence[str] = ("obj",),
                     catalog=None) -> None:
    """Translate candidate-position fault specs into injector calls.

    ``unit_list`` names every placement unit in the run (a single
    ``"obj"`` classically, the catalog's group keys in catalog mode);
    coordinator- and density-targeted faults aim at whatever those
    units' control planes look like when the fault fires.
    """
    def node_of(position: int) -> int:
        return candidates[position]

    ref_unit = unit_list[0]

    for fault in scenario.faults:
        if fault.kind == "crash":
            node = node_of(fault.node)
            injector.crash_at(fault.at, node)
            if fault.until is not None:
                injector.recover_at(fault.until, node)
        elif fault.kind == "partition":
            group_a = tuple(node_of(p) for p in fault.group_a)
            positions_b = fault.group_b or tuple(
                p for p in range(len(candidates)) if p not in fault.group_a)
            group_b = tuple(node_of(p) for p in positions_b)
            injector.partition_at(fault.at, group_a, group_b)
            if fault.until is not None:
                injector.heal_at(fault.until, group_a, group_b)
        elif fault.kind == "flaky-link":
            a, b = node_of(fault.a), node_of(fault.b)
            injector.flaky_link_at(fault.at, a, b, fault.loss,
                                   symmetric=fault.symmetric)
            if fault.until is not None:
                injector.fix_link_at(fault.until, a, b,
                                     symmetric=fault.symmetric)
        elif fault.kind == "crash-coordinator":
            # The victim is decided when the fault fires: whatever node
            # the failover protocol currently ranks first.
            def assassinate(until=fault.until) -> None:
                victim = store.current_coordinator(ref_unit)
                injector.crash_now(victim)
                if until is not None:
                    injector.recover_at(until, victim)
            store.sim.schedule_at(fault.at, assassinate)
        elif fault.kind == "crash-shard-coordinator":
            # Catalog mode: kill whichever node currently coordinates
            # the named shard's units — the shard's home while healthy,
            # its elected successor after a prior failover.
            def behead(shard=fault.shard, until=fault.until) -> None:
                units = catalog.shards[shard].unit_keys
                victim = store.current_coordinator(units[0])
                injector.crash_now(victim)
                if until is not None:
                    injector.recover_at(until, victim)
            store.sim.schedule_at(fault.at, behead)
        elif fault.kind == "domain-outage":
            mode, level, domain_id = _parse_domain_spec(fault.domain)
            if mode == "explicit":
                for position in domains.members(level, domain_id):
                    node = node_of(position)
                    injector.crash_at(fault.at, node)
                    if fault.until is not None:
                        injector.recover_at(fault.until, node)
            else:
                # Densest outage: the victim domain is decided when the
                # fault fires — the one holding the most installed
                # replicas — so the blast aims at wherever the placer
                # (latency-only or λ-weighted) actually put the data.
                def strike(level=level, until=fault.until) -> None:
                    positions = [store._position_of[s]
                                 for unit in unit_list
                                 for s in store.installed_sites(unit)]
                    for position in domains.densest_members(level,
                                                            positions):
                        node = node_of(position)
                        injector.crash_now(node)
                        if until is not None:
                            injector.recover_at(until, node)
                store.sim.schedule_at(fault.at, strike)
        else:  # pragma: no cover - FaultSpec validates kinds
            raise ValueError(f"unknown fault kind {fault.kind!r}")


def run_scenario(scenario: ChaosScenario, run_index: int = 0,
                 faulty: bool = True) -> ChaosRunResult:
    """Run one scenario cell and return its counters.

    ``faulty=False`` runs the identical world, workload and seeds with
    the fault schedule left out — the paired baseline the latency ratio
    is measured against.
    """
    from repro.sim import FailureInjector
    from repro.store import BatchedAccessWorkload, ReplicatedStore
    from repro.workloads import ClientPopulation

    sim, matrix, planar, candidates, clients = live_world(
        scenario.n_nodes, scenario.n_dc, scenario.seed, run_index,
        scenario.coord_system)
    domains = scenario.build_domains(matrix, candidates)
    store = ReplicatedStore(
        sim, matrix, candidates, planar, selection="oracle",
        read_timeout_ms=scenario.read_timeout_ms,
        max_read_attempts=scenario.max_read_attempts,
        auto_repair=scenario.auto_repair,
        repair_period_ms=scenario.repair_period_ms,
        retry_policy=scenario.retry,
        domains=domains,
        queueing=scenario.build_queueing(),
        strategy=scenario.strategy)
    policy = MigrationPolicy(min_relative_gain=scenario.min_relative_gain,
                             min_absolute_gain_ms=0.5)
    catalog = None
    if scenario.n_keys > 0:
        # Catalog mode: a sharded multi-key catalog replaces the single
        # object.  ``max_epoch_moves`` becomes the catalog's *global*
        # per-window budget, so it must not also cap each unit's
        # controller individually.
        from repro.catalog import PlacementGroups, ShardedCatalog, keyspace

        keys = keyspace(scenario.n_keys)
        groups = (PlacementGroups.chunked(keys, scenario.keys_per_group)
                  if scenario.keys_per_group > 1
                  else PlacementGroups.singletons(keys))
        catalog = ShardedCatalog(
            store, keys, n_shards=scenario.n_shards, groups=groups,
            k=scenario.k,
            controller_config=ControllerConfig(
                k=scenario.k,
                max_micro_clusters=scenario.max_micro_clusters,
                availability_lambda=scenario.availability_lambda),
            policy=policy,
            epoch_period_ms=scenario.epoch_period_ms,
            epoch_stagger=scenario.epoch_stagger,
            max_epoch_moves=scenario.max_epoch_moves)
        workload_keys = list(catalog.keys())
        unit_list: tuple[str, ...] = catalog.unit_keys()
    else:
        store.create_object(
            "obj", k=scenario.k,
            controller_config=ControllerConfig(
                k=scenario.k, max_micro_clusters=scenario.max_micro_clusters,
                availability_lambda=scenario.availability_lambda,
                max_epoch_moves=scenario.max_epoch_moves),
            policy=policy,
            epoch_period_ms=scenario.epoch_period_ms)
        workload_keys = ["obj"]
        unit_list = ("obj",)
    ref_unit = unit_list[0]
    if scenario.hotspot_exponent > 0:
        # Skew the client mass toward one candidate site, so a
        # latency-only placer concentrates replicas near the hotspot —
        # the concentration the availability objective is meant to
        # counteract.
        anchor = candidates[scenario.hotspot_anchor]
        population = ClientPopulation.hotspot(
            clients, matrix, anchor, scenario.hotspot_exponent)
    else:
        population = ClientPopulation.uniform(clients)
    workload = BatchedAccessWorkload(
        store, population, workload_keys,
        rate_per_second=scenario.rate_per_second)

    # Blast-radius accounting: every crash is scored against the
    # installed replica set at the instant it lands (the injector fires
    # the hook after marking the victim down, so ``is_up`` already
    # reflects the crash).
    blast = {"lost": 0, "min_live": scenario.k}

    def note_crash(node: int) -> None:
        for unit in unit_list:
            installed = store.installed_sites(unit)
            if node in installed:
                blast["lost"] += 1
            live = sum(1 for s in installed if store.network.is_up(s))
            blast["min_live"] = min(blast["min_live"], live)

    injector = FailureInjector(store.network, on_crash=note_crash)
    if faulty:
        _schedule_faults(injector, store, scenario, candidates,
                         domains=domains, unit_list=unit_list,
                         catalog=catalog)

    sim.run_until(scenario.duration_ms + scenario.settle_ms)

    reads = [r for r in store.log.records if r.kind == "read"]
    horizon = scenario.duration_ms + scenario.settle_ms
    tail = [r for r in reads if r.time >= 0.75 * horizon]
    quantiles = store.log.tail_quantiles("read")
    reports = [r for unit in unit_list for r in store.epoch_reports(unit)]
    controllers = [store.controller(unit) for unit in unit_list]
    return ChaosRunResult(
        reads_issued=workload.operations_issued,
        reads_completed=len(reads),
        failed_reads=store.failed_reads,
        mean_delay_ms=(float(np.mean([r.delay_ms for r in reads]))
                       if reads else 0.0),
        final_delay_ms=(float(np.mean([r.delay_ms for r in tail]))
                        if tail else 0.0),
        p50_ms=quantiles["p50"],
        p99_ms=quantiles["p99"],
        p999_ms=quantiles["p999"],
        queue_rejections=store.queue_rejections,
        crashes=len(injector.crashes()),
        partitions=len(injector.partitions()),
        failovers=sum(c.failovers for c in controllers),
        coordinator=store.current_coordinator(ref_unit),
        epochs=len(reports),
        epochs_degraded=sum(1 for r in reports if r.degraded),
        stale_summaries_dropped=sum(r.stale_summaries_dropped
                                    for r in reports),
        migrations=sum(c.tally.migrations for c in controllers),
        migration_retries=store.migration_retries,
        migrations_abandoned=store.migrations_abandoned,
        migration_rollbacks=store.migration_rollbacks,
        summary_retries=store.summary_retries,
        summaries_lost=store.summaries_lost,
        repairs=store.repairs,
        replicas_lost=blast["lost"],
        min_live_replicas=blast["min_live"],
        final_sites=store.installed_sites(ref_unit),
    )


def _aggregate(results: Sequence[ChaosRunResult]) -> dict[str, Any]:
    """Pool one arm's runs: mean latency, summed counters."""
    totals = {
        name: sum(getattr(r, name) for r in results)
        for name in ("reads_issued", "reads_completed", "failed_reads",
                     "crashes", "partitions", "failovers", "epochs",
                     "epochs_degraded", "stale_summaries_dropped",
                     "migrations", "migration_retries",
                     "migrations_abandoned", "migration_rollbacks",
                     "summary_retries", "summaries_lost", "repairs",
                     "replicas_lost", "queue_rejections")
    }
    totals["min_live_replicas"] = min(
        r.min_live_replicas for r in results)
    totals["mean_delay_ms"] = float(
        np.mean([r.mean_delay_ms for r in results]))
    totals["final_delay_ms"] = float(
        np.mean([r.final_delay_ms for r in results]))
    for name in ("p50_ms", "p99_ms", "p999_ms"):
        totals[name] = float(np.mean([getattr(r, name) for r in results]))
    totals["completion_rate"] = (
        totals["reads_completed"] / totals["reads_issued"]
        if totals["reads_issued"] else 0.0)
    return totals


def run_chaos(scenario: ChaosScenario, **runner) -> dict[str, Any]:
    """Run a scenario's faulty and baseline arms; return the summary.

    Every run index yields two cells (faults on / faults off) farmed
    through the parallel runner.  The summary is a plain JSON-able dict
    whose serialization (:func:`chaos_summary_json`) is byte-identical
    regardless of worker count.  ``**runner``: forwarded to
    :func:`repro.runner.execute`.
    """
    specs: list[ChaosRunSpec] = []
    for run_index in range(scenario.runs):
        specs.append(ChaosRunSpec(scenario, run_index, faulty=True))
        specs.append(ChaosRunSpec(scenario, run_index, faulty=False))
    registry = obs.get_registry()
    with registry.phase("chaos.run"):
        results = execute(specs, **runner)
    faulty = _aggregate(results[0::2])
    baseline = _aggregate(results[1::2])
    # Ratio of *final* latency: the faults in a scenario are expected to
    # hurt while active; what the harness certifies is that the control
    # loop recovers — the tail of the faulty run should match fair
    # weather.
    ratio = (faulty["final_delay_ms"] / baseline["final_delay_ms"]
             if baseline["final_delay_ms"] > 0 else 0.0)
    if registry.enabled:
        registry.counter("chaos.runs").inc(len(specs))
    return {
        "scenario": scenario.name,
        "runs": scenario.runs,
        "faults": len(scenario.faults),
        "faulty": faulty,
        "baseline": baseline,
        "latency_ratio": ratio,
    }


def chaos_summary_json(summary: dict[str, Any]) -> str:
    """Canonical JSON form of a chaos summary (sorted keys)."""
    import json
    return json.dumps(summary, indent=2, sort_keys=True)


def format_chaos(summary: dict[str, Any]) -> str:
    """Human-readable table of one chaos summary."""
    faulty, baseline = summary["faulty"], summary["baseline"]
    lines = [
        f"chaos scenario {summary['scenario']!r}: "
        f"{summary['runs']} run(s), {summary['faults']} fault(s)",
        "",
        f"{'':>24} | {'faulty':>10} | {'baseline':>10}",
        "-" * 52,
    ]
    rows = [
        ("reads completed", "reads_completed"),
        ("reads issued", "reads_issued"),
        ("failed reads", "failed_reads"),
        ("mean delay (ms)", "mean_delay_ms"),
        ("final delay (ms)", "final_delay_ms"),
        ("p50 delay (ms)", "p50_ms"),
        ("p99 delay (ms)", "p99_ms"),
        ("p999 delay (ms)", "p999_ms"),
        ("completion rate", "completion_rate"),
        ("queue rejections", "queue_rejections"),
        ("crashes", "crashes"),
        ("partitions", "partitions"),
        ("coordinator failovers", "failovers"),
        ("epochs (degraded)", None),
        ("migrations", "migrations"),
        ("migration retries", "migration_retries"),
        ("migrations abandoned", "migrations_abandoned"),
        ("migration rollbacks", "migration_rollbacks"),
        ("summary retries", "summary_retries"),
        ("summaries lost", "summaries_lost"),
        ("repairs", "repairs"),
        ("replicas lost", "replicas_lost"),
        ("min live replicas", "min_live_replicas"),
    ]
    for label, field_name in rows:
        if field_name is None:
            f_val = f"{faulty['epochs']} ({faulty['epochs_degraded']})"
            b_val = f"{baseline['epochs']} ({baseline['epochs_degraded']})"
        elif field_name in ("mean_delay_ms", "final_delay_ms",
                            "p50_ms", "p99_ms", "p999_ms"):
            f_val = f"{faulty[field_name]:.1f}"
            b_val = f"{baseline[field_name]:.1f}"
        elif field_name == "completion_rate":
            f_val = f"{faulty[field_name]:.0%}"
            b_val = f"{baseline[field_name]:.0%}"
        else:
            f_val = str(faulty[field_name])
            b_val = str(baseline[field_name])
        lines.append(f"{label:>24} | {f_val:>10} | {b_val:>10}")
    lines.append("")
    lines.append(f"latency ratio (faulty / baseline): "
                 f"{summary['latency_ratio']:.3f}")
    return "\n".join(lines)
