"""Catalog sweeps: the control plane along the key-count axis.

The paper evaluates one object at a time; real deployments place
*catalogs* of objects.  :func:`run_catalog_sweep` drives the live stack
(synthetic PlanetLab world, replicated store, Poisson workload) with a
:class:`~repro.catalog.catalog.ShardedCatalog` over a grid of
``(n_keys, n_shards)`` cells, answering the scaling questions the
single-object sweeps cannot: how does end-to-end latency and
control-plane work evolve as the keyspace grows, and how much does
grouping similar keys into placement units buy?

Cells run through :mod:`repro.runner.pool` — the same parallel /
cached / resumable machinery as the figure sweeps — and seed every
stream from the cell's identity, so a sweep is bit-identical at any
``--jobs`` level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.runner.jobs import spec_payload
from repro.runner.pool import execute

__all__ = ["CatalogRunSpec", "run_catalog_cell", "run_catalog_sweep",
           "format_catalog", "catalog_to_csv", "GROUPING_MODES"]

#: How keys fold into placement units: every key its own unit, fixed
#: chunks of the sorted keyspace, or similarity clustering over
#: synthetic per-key audience vectors (exercises ``build_groups``).
GROUPING_MODES = ("none", "chunked", "audience")


@dataclass(frozen=True)
class CatalogRunSpec:
    """One catalog sweep cell: a keyspace size on a shard count.

    A :class:`~repro.runner.jobs.JobSpec`, so catalog cells pool, cache
    and resume exactly like every other experiment.
    """

    n_keys: int
    n_shards: int
    grouping: str = "chunked"
    group_size: int = 10
    n_nodes: int = 64
    n_dc: int = 12
    seed: int = 0
    k: int = 3
    rate_per_second: float = 200.0
    duration_ms: float = 60_000.0
    epoch_period_ms: float = 10_000.0
    epoch_stagger: float = 1.0
    max_epoch_moves: int | None = None
    # Queueing / selection axes (mirror the chaos scenario's
    # ``[queueing]`` / ``[selection]`` sections).
    strategy: str = "nearest"
    service_model: str = "none"
    service_ms: float = 0.0
    service_sigma: float = 0.5
    queue_capacity: int | None = None

    kind = "catalog-run"
    setting = None                  # the spec carries its own world
    result_type = dict

    def __post_init__(self) -> None:
        from repro.store.selection import STRATEGIES

        if self.grouping not in GROUPING_MODES:
            raise ValueError(f"unknown grouping {self.grouping!r}; "
                             f"known: {GROUPING_MODES}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown selection strategy "
                             f"{self.strategy!r}; known: {STRATEGIES}")
        self.build_queueing()       # validates the queueing knobs

    def build_queueing(self):
        """Materialize the cell's queueing config (``None`` = legacy)."""
        from repro.store.queueing import QueueingConfig

        return QueueingConfig.from_params(
            service_model=self.service_model, service_ms=self.service_ms,
            service_sigma=self.service_sigma,
            queue_capacity=self.queue_capacity)

    def payload(self) -> dict:
        return spec_payload(self)

    def execute(self, world=None) -> dict[str, Any]:
        return run_catalog_cell(self)


def _audience_vectors(keys: Sequence[str]) -> dict[str, np.ndarray]:
    """Synthetic one-hot audience vectors: key -> one of 8 audiences.

    The audience is key-derived (via the ring's stable hash), so the
    clustering input — and hence the resulting groups — depends only on
    the keyspace, never on enumeration order or shard layout.
    """
    from repro.catalog.ring import _hash64

    vectors: dict[str, np.ndarray] = {}
    for key in keys:
        vec = np.zeros(8)
        vec[_hash64(f"audience/{key}") % 8] = 1.0
        vectors[key] = vec
    return vectors


def _build_groups(spec: CatalogRunSpec, keys: Sequence[str]):
    from repro.catalog.groups import PlacementGroups, build_groups

    if spec.grouping == "none":
        return PlacementGroups.singletons(keys)
    if spec.grouping == "chunked":
        return PlacementGroups.chunked(keys, spec.group_size)
    return build_groups(_audience_vectors(keys))


def run_catalog_cell(spec: CatalogRunSpec) -> dict[str, Any]:
    """Run one catalog cell end-to-end; return its counters.

    The world comes from the chaos harness's
    :func:`~repro.chaos.harness.live_world`, so the same master seed
    reproduces the same world everywhere.
    """
    from repro.catalog.catalog import ShardedCatalog
    from repro.catalog.groups import keyspace
    from repro.chaos.harness import live_world
    from repro.store import BatchedAccessWorkload, ReplicatedStore
    from repro.workloads import ClientPopulation

    sim, matrix, planar, candidates, clients = live_world(
        spec.n_nodes, spec.n_dc, spec.seed)
    store = ReplicatedStore(sim, matrix, candidates, planar,
                            selection="oracle",
                            queueing=spec.build_queueing(),
                            strategy=spec.strategy)
    keys = keyspace(spec.n_keys)
    catalog = ShardedCatalog(
        store, keys, n_shards=spec.n_shards,
        groups=_build_groups(spec, keys), k=spec.k,
        epoch_period_ms=spec.epoch_period_ms,
        epoch_stagger=spec.epoch_stagger,
        max_epoch_moves=spec.max_epoch_moves)

    population = ClientPopulation.uniform(clients)
    workload = BatchedAccessWorkload(store, population, list(catalog.keys()),
                                     rate_per_second=spec.rate_per_second)

    sim.run_until(spec.duration_ms)

    reads = [r for r in store.log.records if r.kind == "read"]
    units = catalog.unit_keys()
    quantiles = store.log.tail_quantiles("read")
    return {
        "n_keys": spec.n_keys,
        "n_shards": spec.n_shards,
        "grouping": spec.grouping,
        "groups": catalog.n_groups,
        "reads_issued": workload.operations_issued,
        "reads_completed": len(reads),
        "mean_delay_ms": (float(np.mean([r.delay_ms for r in reads]))
                          if reads else 0.0),
        "p50_ms": quantiles["p50"],
        "p99_ms": quantiles["p99"],
        "p999_ms": quantiles["p999"],
        "queue_rejections": store.queue_rejections,
        "epochs": sum(shard.epochs for shard in catalog.shards),
        "moves": sum(shard.moves for shard in catalog.shards),
        "migrations": sum(store.controller(u).tally.migrations
                          for u in units),
        "failovers": sum(catalog.shard_failovers(s)
                         for s in range(catalog.n_shards)),
    }


def run_catalog_sweep(cells: Sequence[CatalogRunSpec],
                      **runner) -> list[dict[str, Any]]:
    """Run catalog cells through the parallel runner.

    Rows come back in cell order, bit-identical at any ``jobs`` level.
    ``**runner``: forwarded to :func:`repro.runner.execute`.
    """
    registry = obs.get_registry()
    with registry.phase("catalog.sweep"):
        rows = execute(cells, **runner)
    if registry.enabled:
        registry.counter("catalog.cells").inc(len(cells))
    return rows


_COLUMNS = (
    ("keys", "n_keys"), ("shards", "n_shards"), ("groups", "groups"),
    ("reads", "reads_completed"), ("mean delay (ms)", "mean_delay_ms"),
    ("p99 (ms)", "p99_ms"), ("p999 (ms)", "p999_ms"),
    ("epochs", "epochs"), ("moves", "moves"), ("failovers", "failovers"),
)


def format_catalog(rows: Sequence[dict[str, Any]]) -> str:
    """Human-readable table of a catalog sweep."""
    header = " | ".join(f"{label:>15}" for label, _ in _COLUMNS)
    lines = [f"catalog sweep ({len(rows)} cell(s), "
             f"grouping={rows[0]['grouping']})" if rows else
             "catalog sweep (0 cells)",
             "", header, "-" * len(header)]
    for row in rows:
        cells = []
        for _, field_name in _COLUMNS:
            value = row[field_name]
            cells.append(f"{value:>15.2f}" if isinstance(value, float)
                         else f"{value:>15}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def catalog_to_csv(rows: Sequence[dict[str, Any]], path: str) -> None:
    """Export sweep rows as CSV (stable column order)."""
    import csv

    fields = ["n_keys", "n_shards", "grouping", "groups", "reads_issued",
              "reads_completed", "mean_delay_ms", "p50_ms", "p99_ms",
              "p999_ms", "queue_rejections", "epochs", "moves",
              "migrations", "failovers"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({name: row[name] for name in fields})
