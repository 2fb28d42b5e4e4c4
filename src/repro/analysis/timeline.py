"""Timeline experiments: access delay over time under shifting demand.

The paper's figures are steady-state averages; the *dynamic* story —
gradual migration chasing a moving population — only shows up over
time.  :func:`run_timeline` runs the full simulated store under a
temporal pattern for each policy configuration and returns time-binned
mean read delays, ready for the timeline bench, examples, or plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.experiment import draw_candidates
from repro.coords.embedding import embed_matrix
from repro.core.controller import ControllerConfig
from repro.core.migration import MigrationPolicy
from repro.net.latency import LatencyMatrix
from repro.net.planetlab import PlanetLabParams, synthetic_planetlab_matrix
from repro.net.topology import GeoTopology
from repro.sim.simulator import Simulator
from repro.store.batched import BatchedAccessWorkload
from repro.store.kvstore import ReplicatedStore
from repro.workloads.population import ClientPopulation
from repro.workloads.temporal import TemporalPattern

__all__ = ["TimelinePolicy", "TimelineResult", "run_timeline"]


@dataclass(frozen=True)
class TimelinePolicy:
    """One store configuration to run the timeline under.

    ``epoch_period_ms=None`` disables placement epochs entirely (the
    static baseline); otherwise the controller runs with the given
    migration threshold.
    """

    name: str
    epoch_period_ms: float | None = 30_000.0
    min_relative_gain: float = 0.05
    k: int = 2

    def __post_init__(self) -> None:
        if self.epoch_period_ms is not None and self.epoch_period_ms <= 0:
            raise ValueError("epoch period must be positive")
        if self.k < 1:
            raise ValueError("k must be positive")


@dataclass(frozen=True)
class TimelineResult:
    """Binned mean read delays per policy."""

    bin_edges_ms: tuple[float, ...]
    series: dict[str, list[float]]          # policy name -> mean per bin
    migrations: dict[str, int]

    @property
    def bin_centers_s(self) -> list[float]:
        """Bin centers in seconds, for plotting."""
        edges = self.bin_edges_ms
        return [(a + b) / 2000.0 for a, b in zip(edges, edges[1:])]


def run_timeline(pattern_factory, policies: Sequence[TimelinePolicy],
                 n_nodes: int = 80, n_dc: int = 12,
                 duration_ms: float = 240_000.0,
                 bin_ms: float = 20_000.0,
                 rate_per_second: float = 150.0,
                 seed: int = 0) -> TimelineResult:
    """Run the same shifting workload under each policy.

    Parameters
    ----------
    pattern_factory:
        ``(topology) -> TemporalPattern`` — built per run because
        patterns usually need the topology (e.g. regional shifts).
    policies:
        Store configurations to compare; each sees an *identical* world
        (same matrix, coordinates, candidates, workload seed).
    """
    if duration_ms <= 0 or bin_ms <= 0 or duration_ms < bin_ms:
        raise ValueError("need duration >= bin size > 0")
    matrix, topology = synthetic_planetlab_matrix(
        PlanetLabParams(n=n_nodes), seed=seed)
    embedding = embed_matrix(matrix, system="rnp", rounds=100,
                             rng=np.random.default_rng(seed + 1))
    planar = embedding.coords[:, :embedding.space.dim]
    candidates, clients = draw_candidates(matrix, n_dc,
                                          np.random.default_rng(seed + 2))

    edges = tuple(np.arange(0.0, duration_ms + bin_ms / 2, bin_ms))
    series: dict[str, list[float]] = {}
    migrations: dict[str, int] = {}
    for policy in policies:
        sim = Simulator(seed=seed)
        store = ReplicatedStore(sim, matrix, candidates, planar,
                                selection="oracle")
        store.create_object(
            "obj", k=policy.k,
            controller_config=ControllerConfig(k=policy.k,
                                               max_micro_clusters=10),
            policy=MigrationPolicy(
                min_relative_gain=policy.min_relative_gain,
                min_absolute_gain_ms=0.0),
            epoch_period_ms=policy.epoch_period_ms,
        )
        pattern: TemporalPattern = pattern_factory(topology)
        BatchedAccessWorkload(store, ClientPopulation.uniform(clients),
                              ["obj"], rate_per_second=rate_per_second,
                              pattern=pattern)
        sim.run_until(duration_ms)

        reads = [(r.time, r.delay_ms) for r in store.log.records
                 if r.kind == "read"]
        bins: list[float] = []
        for lo, hi in zip(edges, edges[1:]):
            window = [d for t, d in reads if lo <= t < hi]
            bins.append(float(np.mean(window)) if window else float("nan"))
        series[policy.name] = bins
        migrations[policy.name] = sum(
            1 for r in store.epoch_reports("obj") if r.migrated)
    return TimelineResult(edges, series, migrations)
