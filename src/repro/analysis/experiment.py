"""The paper's evaluation, as callable experiments.

The methodology mirrors Section IV-A: one 226-node matrix (synthetic
PlanetLab; see DESIGN.md §2), network coordinates assigned once, then for
each configuration ``n_runs`` independent draws of candidate replica
locations; the remaining nodes are the clients, every client reads its
closest replica, and the reported number is the true mean access delay.

Every runner in this module executes through :mod:`repro.runner`: the
sweep grid is decomposed into independent *(sweep point, strategy, run)*
jobs whose random streams derive from the job identity alone, so
``jobs=4`` produces bit-identical series to ``jobs=1`` and an
interrupted sweep resumes from its result cache (``cache_dir=...,
resume=True``).  Each runner takes those options as ``**runner`` and
forwards them to :func:`repro.runner.execute`, where they are declared.
See ``docs/runner.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro import obs

from repro.clustering.kmeans import weighted_kmeans
from repro.coords.embedding import embed_matrix
from repro.core.costs import offline_bandwidth_bytes, online_bandwidth_bytes
from repro.core.summarizer import ReplicaAccessSummary
from repro.core.macro import place_replicas
from repro.net.latency import LatencyMatrix
from repro.net.planetlab import PlanetLabParams, synthetic_planetlab_matrix
from repro.placement.base import PlacementStrategy
from repro.placement.offline_kmeans import OfflineKMeansPlacement
from repro.placement.online import OnlineClusteringPlacement
from repro.placement.optimal import OptimalPlacement
from repro.placement.random_placement import RandomPlacement
from repro.analysis.stats import SeriesPoint, summarize

__all__ = [
    "EvaluationSetting",
    "FigureResult",
    "Table2Row",
    "compute_table2_row",
    "default_strategies",
    "draw_candidates",
    "run_comparison",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_table2",
    "run_coord_ablation",
]


@dataclass(frozen=True)
class EvaluationSetting:
    """The shared experimental setting of Section IV-A.

    Attributes
    ----------
    n_nodes:
        Total nodes emulated (paper: 226 PlanetLab hosts).
    n_runs:
        Independent candidate draws per configuration (paper: 30).
    coord_system:
        How nodes get coordinates: ``"rnp"`` (the paper's system;
        default), ``"vivaldi"``, ``"gnp"`` or ``"mds"``.  The
        decentralized systems carry height vectors, which the placement
        strategies use to price per-node access delay.
    embed_rounds:
        Gossip rounds for the decentralized systems.
    candidate_mode:
        How each run draws its candidate data centers: ``"dispersed"``
        (the paper's geographically diverse sites) or ``"uniform"``.
    seed:
        Master seed: drives the matrix, the embedding and every run.
    """

    n_nodes: int = 226
    n_runs: int = 30
    coord_system: str = "rnp"
    embed_rounds: int = 100
    candidate_mode: str = "dispersed"
    seed: int = 0

    def build(self) -> tuple[LatencyMatrix, np.ndarray, np.ndarray | None]:
        """Materialize (matrix, planar coordinates, heights-or-None)."""
        matrix, _ = synthetic_planetlab_matrix(
            PlanetLabParams(n=self.n_nodes), seed=self.seed)
        result = embed_matrix(matrix, system=self.coord_system,
                              rounds=self.embed_rounds,
                              rng=np.random.default_rng(self.seed + 1))
        planar = result.coords[:, :result.space.dim]
        heights = (result.coords[:, -1] if result.space.use_height else None)
        return matrix, planar, heights


@dataclass(frozen=True)
class FigureResult:
    """Series data for one reproduced figure."""

    name: str
    xlabel: str
    ylabel: str
    series: dict[str, list[SeriesPoint]]

    def means(self, series_name: str) -> list[float]:
        """Mean values of one series, in x order."""
        return [p.mean for p in self.series[series_name]]

    def xs(self, series_name: str) -> list[float]:
        """x positions of one series."""
        return [p.x for p in self.series[series_name]]


def default_strategies(micro_clusters: int = 10) -> list[PlacementStrategy]:
    """The paper's four contenders, in its presentation order."""
    return [
        RandomPlacement(),
        OfflineKMeansPlacement(),
        OnlineClusteringPlacement(micro_clusters=micro_clusters),
        OptimalPlacement(),
    ]


def draw_candidates(matrix: LatencyMatrix, n_dc: int,
                     rng: np.random.Generator,
                     mode: str = "dispersed"
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One run's split into candidate data centers and clients.

    ``mode="dispersed"`` (default) reproduces the paper's setup: the
    candidate nodes are "dispersed at diverse geographic locations",
    each representing a different data center.  Candidates are drawn by
    randomized farthest-point sampling on true RTTs (probability
    proportional to squared distance from the already-chosen set), so
    every run gets a different but always geographically diverse set.
    ``mode="uniform"`` draws candidates uniformly from the nodes, i.e.
    proportional to client density — a harsher setting for the paper's
    claims, kept for the sensitivity benchmarks.
    """
    n_nodes = matrix.n
    if mode == "uniform":
        picks = rng.choice(n_nodes, size=n_dc, replace=False)
        candidates = tuple(int(p) for p in picks)
    elif mode == "dispersed":
        first = int(rng.integers(0, n_nodes))
        chosen = [first]
        min_dist = matrix.rtt[first].copy()
        for _ in range(n_dc - 1):
            weights = min_dist ** 2
            weights[chosen] = 0.0
            total = weights.sum()
            if total <= 0:  # degenerate matrix: fall back to uniform
                remaining = [i for i in range(n_nodes) if i not in set(chosen)]
                chosen.append(int(rng.choice(remaining)))
            else:
                nxt = int(rng.choice(n_nodes, p=weights / total))
                chosen.append(nxt)
                min_dist = np.minimum(min_dist, matrix.rtt[nxt])
        candidates = tuple(chosen)
    else:
        raise ValueError(f"unknown candidate mode {mode!r}")
    taken = set(candidates)
    clients = tuple(i for i in range(n_nodes) if i not in taken)
    return candidates, clients


def _world_digest(matrix: LatencyMatrix, coords: np.ndarray,
                  heights: np.ndarray | None) -> str:
    """Content digest of an explicitly supplied world, for cache keys."""
    digest = hashlib.sha256()
    rtt = np.ascontiguousarray(matrix.rtt)
    digest.update(repr(rtt.shape).encode())
    digest.update(rtt.tobytes())
    coords = np.ascontiguousarray(coords)
    digest.update(repr(coords.shape).encode())
    digest.update(coords.tobytes())
    if heights is not None:
        digest.update(np.ascontiguousarray(heights).tobytes())
    return digest.hexdigest()


def run_comparison(matrix: LatencyMatrix, coords: np.ndarray,
                   strategies: Sequence[PlacementStrategy],
                   n_dc: int, k: int, n_runs: int,
                   seed: int = 0,
                   heights: np.ndarray | None = None,
                   candidate_mode: str = "dispersed",
                   **runner) -> dict[str, list[float]]:
    """Mean access delay per strategy over ``n_runs`` candidate draws.

    Every strategy sees the *same* candidate/client split in each run,
    so the comparison is paired (as in the paper's simulator): each
    (strategy, run) cell re-derives the run's candidate stream from
    ``(seed, run)``, independent of which worker executes it or in what
    order.  ``**runner``: forwarded to :func:`repro.runner.execute`.
    """
    if n_dc >= matrix.n:
        raise ValueError("need at least one client node")
    from repro.runner import PlacementRunSpec, as_job_strategy, execute
    world_key = _world_digest(matrix, coords, heights)
    specs = [
        PlacementRunSpec(
            sweep="comparison", series=strategy.name, x=float(k),
            run_index=run, n_dc=n_dc, k=k,
            strategy=as_job_strategy(strategy), seed=seed,
            candidate_mode=candidate_mode, world_key=world_key)
        for strategy in strategies for run in range(n_runs)
    ]
    results = execute(specs, world=(matrix, coords, heights), **runner)
    delays: dict[str, list[float]] = {s.name: [] for s in strategies}
    for spec, delay in zip(specs, results):
        delays[spec.series].append(delay)
    return delays


def _run_grid(sweep: str, cells: Sequence[tuple],
              **runner) -> dict[str, list[SeriesPoint]]:
    """Run one figure's grid through the runner; return its series.

    ``cells`` are ordered ``(series, x, strategy, n_dc, k, setting)``
    rows; each runs ``setting.n_runs`` times and becomes one point of
    its series (series in first-appearance order).  Workers materialize
    the world from the cell's setting themselves (memoized per
    process), so a fully cached resume never even builds the matrix.
    """
    from repro.runner import PlacementRunSpec, as_job_strategy, execute
    specs: list[PlacementRunSpec] = []
    for series, x, strategy, n_dc, k, setting in cells:
        if n_dc >= setting.n_nodes:
            raise ValueError("need at least one client node")
        job_strategy = as_job_strategy(strategy)
        specs.extend(
            PlacementRunSpec(
                sweep=sweep, series=series, x=float(x), run_index=run,
                n_dc=n_dc, k=k, strategy=job_strategy, seed=setting.seed,
                candidate_mode=setting.candidate_mode, setting=setting)
            for run in range(setting.n_runs))
    delays: dict[tuple[str, float], list[float]] = {}
    for spec, delay in zip(specs, execute(specs, **runner)):
        delays.setdefault((spec.series, spec.x), []).append(delay)
    grid: dict[str, list[SeriesPoint]] = {}
    for series, x, *_ in cells:
        grid.setdefault(series, []).append(
            SeriesPoint(float(x), summarize(delays[(series, float(x))])))
    return grid


def run_figure1(setting: EvaluationSetting | None = None,
                datacenter_counts: Sequence[int] = (5, 10, 15, 20, 25, 30),
                k: int = 3,
                micro_clusters: int = 10, **runner) -> FigureResult:
    """Figure 1: impact of the number of available data centers (k = 3).

    ``**runner``: forwarded to :func:`repro.runner.execute`.
    """
    setting = setting or EvaluationSetting()
    return FigureResult(
        name="Figure 1",
        xlabel=f"number of data centers ({k} replicas)",
        ylabel="average access delay (ms)",
        series=_run_grid("figure1", [
            (strategy.name, n_dc, strategy, int(n_dc), k, setting)
            for n_dc in datacenter_counts
            for strategy in default_strategies(micro_clusters)], **runner),
    )


def run_figure2(setting: EvaluationSetting | None = None,
                replica_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
                n_dc: int = 20,
                micro_clusters: int = 10, **runner) -> FigureResult:
    """Figure 2: impact of the degree of replication (20 data centers).

    ``**runner``: forwarded to :func:`repro.runner.execute`.
    """
    setting = setting or EvaluationSetting()
    return FigureResult(
        name="Figure 2",
        xlabel=f"number of replicas ({n_dc} data centers)",
        ylabel="average access delay (ms)",
        series=_run_grid("figure2", [
            (strategy.name, k, strategy, n_dc, int(k), setting)
            for k in replica_counts
            for strategy in default_strategies(micro_clusters)], **runner),
    )


def run_figure3(setting: EvaluationSetting | None = None,
                micro_cluster_counts: Sequence[int] = (1, 2, 4, 7, 11),
                replica_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
                n_dc: int = 20, **runner) -> FigureResult:
    """Figure 3: online clustering delay vs. k, one series per m.

    Unlike Figures 1–2 the series are *micro-cluster budgets* of the
    same strategy.  ``**runner``: forwarded to
    :func:`repro.runner.execute`.
    """
    setting = setting or EvaluationSetting()
    from repro.runner import strategy_spec
    return FigureResult(
        name="Figure 3",
        xlabel=f"number of replicas ({n_dc} data centers)",
        ylabel="average access delay (ms)",
        series=_run_grid("figure3", [
            (f"{m} micro-clusters", k,
             strategy_spec("online", micro_clusters=int(m)), n_dc, int(k),
             setting)
            for m in micro_cluster_counts for k in replica_counts], **runner),
    )


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table2Row:
    """Measured online-vs-offline costs for one access volume.

    ``online_seconds`` / ``offline_seconds`` time the *coordinator's*
    clustering step — the quantity Table II bounds (O((km)^k log km) vs
    O(n^k log n)).  ``online_ingest_seconds`` is the per-replica stream
    maintenance, which is O(m) per access and distributed across the
    replica servers, reported for completeness: the block kernel
    (:func:`repro.kernels.cf.absorb_stream`) run over each replica's
    shard of the stream in turn.
    """

    n_accesses: int
    k: int
    m: int
    online_bytes: int
    offline_bytes: int
    online_seconds: float
    offline_seconds: float
    online_ingest_seconds: float
    online_bytes_analytic: int
    offline_bytes_analytic: int


def compute_table2_row(n_accesses: int, k: int, m: int, dim: int,
                       seed: int) -> Table2Row:
    """One Table II row, independently seeded and timed with phase timers.

    The row's random streams derive from ``(seed, n_accesses)``, so rows
    are independent of each other — the property that lets
    :func:`run_table2` farm them out to workers and cache them
    individually.  Each replica's summary ingests its shard with one
    ``record_batch`` — summaries are independent, so per-shard order is
    the absorption sequence per-access ``record_access`` calls would
    produce, bit for bit.  Wall-clock costs are measured with
    :class:`repro.obs.PhaseTimer` (``table2.online_ingest`` /
    ``table2.online_cluster`` / ``table2.offline_cluster``) on a local
    registry that is merged into the active one, so the numbers flow
    through the same metrics pipeline (``--metrics-out``, benchmark
    exports) as every other timing in the repo.
    """
    from repro.runner import seed_sequence
    timers = obs.MetricsRegistry()
    rng = np.random.default_rng(seed_sequence(seed, n_accesses))
    blob_centers = rng.uniform(-200, 200, size=(max(k, 2), dim))
    assignment = rng.integers(0, blob_centers.shape[0], size=n_accesses)
    points = blob_centers[assignment] + rng.normal(0, 15,
                                                   size=(n_accesses, dim))

    # Online: k summaries, each sees one shard of the stream.
    summaries = [ReplicaAccessSummary(m, radius_floor=10.0)
                 for _ in range(k)]
    shard = rng.integers(0, k, size=n_accesses)
    with timers.phase("table2.online_ingest"):
        for s, summary in enumerate(summaries):
            summary.record_batch(points[shard == s])
    pooled = [c for summary in summaries for c in summary.snapshot()]
    with timers.phase("table2.online_cluster"):
        place_replicas(pooled, k, blob_centers, np.random.default_rng(seed))
    online_bytes = sum(s.wire_size_bytes() for s in summaries)

    # Offline: ship every coordinate, cluster them all.
    with timers.phase("table2.offline_cluster"):
        weighted_kmeans(points, k, rng=np.random.default_rng(seed))

    row = Table2Row(
        n_accesses=n_accesses, k=k, m=m,
        online_bytes=online_bytes,
        offline_bytes=points.nbytes,
        online_seconds=timers.timer("table2.online_cluster").last_seconds,
        offline_seconds=timers.timer("table2.offline_cluster").last_seconds,
        online_ingest_seconds=timers.timer(
            "table2.online_ingest").last_seconds,
        online_bytes_analytic=online_bandwidth_bytes(k, m, dim),
        offline_bytes_analytic=offline_bandwidth_bytes(n_accesses, dim),
    )
    obs.get_registry().merge(timers)
    return row


def run_table2(n_accesses_list: Sequence[int] = (1_000, 10_000, 100_000),
               k: int = 3, m: int = 100, dim: int = 3,
               seed: int = 0, **runner) -> list[Table2Row]:
    """Table II: bandwidth and computation, online vs. offline.

    For each access volume *n*: draw *n* client coordinates from ``k``
    population blobs, (a) feed them through per-replica summaries and
    cluster the micro-clusters (online), (b) record all of them and run
    k-means directly (offline).  Bytes are what each approach must ship
    to the coordinator; seconds are measured clustering time (phase
    timers — see :func:`compute_table2_row`).  Rows are independent
    jobs.  ``**runner``: forwarded to :func:`repro.runner.execute`
    (co-scheduled rows contend for CPU, so keep ``jobs=1`` when the
    absolute timings matter).
    """
    from repro.runner import Table2Spec, execute
    specs = [Table2Spec(n_accesses=int(n), k=k, m=m, dim=dim, seed=seed)
             for n in n_accesses_list]
    return execute(specs, **runner)


def run_coord_ablation(setting: EvaluationSetting | None = None,
                       systems: Sequence[str] = ("mds", "rnp", "vivaldi", "gnp"),
                       n_dc: int = 20, k: int = 3,
                       micro_clusters: int = 10, **runner) -> FigureResult:
    """Ablation: how the coordinate system affects online placement.

    Each coordinate system is its own :class:`EvaluationSetting` (same
    matrix seed, different embedding), so workers build each system's
    world once and the embeddings themselves run in parallel across
    workers.  ``**runner``: forwarded to :func:`repro.runner.execute`.
    """
    setting = setting or EvaluationSetting()
    from repro.runner import strategy_spec
    strategy = strategy_spec("online", micro_clusters=micro_clusters)
    return FigureResult(
        name="Coordinate-system ablation",
        xlabel=f"k = {k}, {n_dc} data centers",
        ylabel="average access delay (ms)",
        series=_run_grid("coords", [
            (system, k, strategy, n_dc, k,
             replace(setting, coord_system=system))
            for system in systems], **runner),
    )
