"""The runner's job model: self-describing, picklable experiment cells.

The paper's evaluation is embarrassingly parallel: every sweep is a grid
of independent *(sweep point, strategy, run index)* cells, each of which
draws its own candidate split and places replicas (Section IV-A, "30
simulation runs each of which began with different candidate replica
locations").  This module turns one cell into a :class:`PlacementRunSpec`
— a frozen dataclass that carries *everything* needed to execute it in
any process: the evaluation setting (from which a worker can materialize
the world), the cell coordinates, a declarative strategy description and
the master seed.

Seeding
-------
Every random stream a job uses is derived with
:func:`numpy.random.SeedSequence` keyed by the *job's identity*, never by
execution order (:func:`seed_sequence`).  ``SeedSequence`` spawns
high-quality independent child streams from arbitrary integer entropy
tuples, so ``(master_seed, run_index)`` and ``(master_seed, run_index,
strategy_key)`` give every cell its own stream while cells of the same
run share the candidate draw (the paper's paired comparison).  Because
the key depends only on the cell identity, results are **bit-identical
regardless of worker count or scheduling order** — the property the
determinism contract tests pin down.  The derivation matches the legacy
serial loops in :mod:`repro.analysis.experiment` exactly
(``np.random.default_rng((seed, run))`` builds the same
``SeedSequence``), so archived results stay valid.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.placement.base import PlacementStrategy, average_access_delay
from repro.placement.offline_kmeans import OfflineKMeansPlacement
from repro.placement.online import OnlineClusteringPlacement
from repro.placement.optimal import OptimalPlacement
from repro.placement.random_placement import RandomPlacement

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.analysis.experiment import EvaluationSetting, Table2Row

__all__ = [
    "JobSpec",
    "spec_payload",
    "JobChunk",
    "ChunkResult",
    "PlacementRunSpec",
    "Table2Spec",
    "seed_sequence",
    "strategy_spec",
    "build_strategy",
    "as_job_strategy",
    "STRATEGY_KINDS",
]


def seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """The job-identity-keyed ``SeedSequence`` for one random stream.

    The entropy is ``(master_seed, *key)`` — exactly what
    ``np.random.default_rng((master_seed, *key))`` would build — so the
    stream depends only on *which* cell is running, not on worker count,
    scheduling order, or how many streams were spawned before it.  (A
    sequential ``SeedSequence.spawn`` would encode spawn *order* into the
    children's spawn keys; keying the entropy by identity gives the same
    independence guarantees without that fragility.)

    >>> a = np.random.default_rng(seed_sequence(7, 3)).integers(0, 100, 4)
    >>> b = np.random.default_rng((7, 3)).integers(0, 100, 4)
    >>> (a == b).all()
    np.True_
    """
    return np.random.SeedSequence((int(master_seed), *(int(k) for k in key)))


# ----------------------------------------------------------------------
# Declarative strategy descriptions
# ----------------------------------------------------------------------

#: Declarative strategy kinds: short name -> (class, constructor params).
STRATEGY_KINDS: dict[str, type[PlacementStrategy]] = {
    "random": RandomPlacement,
    "offline_kmeans": OfflineKMeansPlacement,
    "online": OnlineClusteringPlacement,
    "optimal": OptimalPlacement,
}

#: Constructor attributes captured when converting a known strategy
#: instance to its declarative form (attribute name == ctor kwarg).
_STRATEGY_PARAMS: dict[str, tuple[str, ...]] = {
    "random": (),
    "offline_kmeans": ("n_init",),
    "online": ("micro_clusters", "migration_rounds", "accesses_per_client",
               "radius_floor", "selection"),
    "optimal": ("max_combinations",),
}


def strategy_spec(kind: str, **params: Any) -> tuple[str, tuple]:
    """A canonical declarative strategy: ``(kind, sorted param items)``.

    >>> strategy_spec("online", micro_clusters=4)
    ('online', (('micro_clusters', 4),))
    """
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}; "
                         f"known: {sorted(STRATEGY_KINDS)}")
    return (kind, tuple(sorted(params.items())))


def build_strategy(strategy: Any) -> PlacementStrategy:
    """Materialize a strategy from its declarative form (or pass through).

    Accepts either a ``(kind, params)`` tuple from :func:`strategy_spec`
    or an already-built :class:`PlacementStrategy` instance (the fallback
    for custom strategies the declarative registry doesn't know).
    """
    if isinstance(strategy, PlacementStrategy):
        return strategy
    kind, params = strategy
    return STRATEGY_KINDS[kind](**dict(params))


def as_job_strategy(strategy: PlacementStrategy | tuple) -> Any:
    """Convert a strategy instance to declarative form when possible.

    Known classes become ``(kind, params)`` tuples — smaller to pickle
    and stable to hash for the result cache.  Unknown strategies are
    carried as the (picklable) instance itself.
    """
    if isinstance(strategy, tuple):
        return strategy
    for kind, cls in STRATEGY_KINDS.items():
        if type(strategy) is cls:
            params = {name: getattr(strategy, name)
                      for name in _STRATEGY_PARAMS[kind]}
            return strategy_spec(kind, **params)
    return strategy


def _strategy_payload(strategy: Any) -> Any:
    """JSON-able cache-key material for a strategy description."""
    if isinstance(strategy, tuple):
        kind, params = strategy
        return [kind, [[k, v] for k, v in params]]
    # Custom instance: hash its pickled form (stable within one code
    # version; the cache salt invalidates across versions anyway).
    import hashlib
    import pickle
    blob = pickle.dumps(strategy, protocol=pickle.HIGHEST_PROTOCOL)
    return {"pickled_sha256": hashlib.sha256(blob).hexdigest(),
            "repr": repr(strategy)}


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------
class JobSpec(Protocol):
    """What :func:`repro.runner.pool.execute` needs of a job.

    The specs in this repo are frozen dataclasses — picklable, so any
    worker can run them, and hashable by content through
    :func:`spec_payload`.
    """

    #: What a worker builds the cell's world from (memoized per
    #: process); ``None`` when the cell carries or needs no world.
    setting: "EvaluationSetting | None"
    #: Type of the value ``execute`` returns — a number, a dataclass or
    #: a JSON-able ``dict``; the result cache decodes an entry through it.
    result_type: type

    def payload(self) -> dict:
        """Canonical JSON-able description — the cache-key material."""

    def execute(self, world: Any) -> Any:
        """Run the cell against ``world`` (``None`` without a setting)."""


def spec_payload(spec: Any) -> dict:
    """A dataclass spec's ``kind`` plus *every* field, nested
    dataclasses as dicts — a field added later cannot be left out of
    the cache key.
    """
    payload = {"kind": spec.kind}
    for field in fields(spec):
        value = getattr(spec, field.name)
        payload[field.name] = asdict(value) if is_dataclass(value) else value
    return payload


@dataclass(frozen=True)
class PlacementRunSpec:
    """One (sweep point, strategy, run index) evaluation cell.

    ``setting`` lets a worker materialize the world
    (matrix/coords/heights) on its own; when a sweep runs against an
    explicitly supplied world instead (see
    :func:`repro.runner.pool.execute`), ``setting`` is ``None`` and
    ``world_key`` carries a digest of that world so cache keys stay
    sound.  Executing the spec returns the cell's true mean access delay
    in milliseconds — a plain float, cheap to ship between processes.
    """

    sweep: str                      # e.g. "figure1"
    series: str                     # series label, e.g. the strategy name
    x: float                        # sweep-point position
    run_index: int
    n_dc: int
    k: int
    strategy: Any                   # declarative tuple or instance
    seed: int
    candidate_mode: str = "dispersed"
    setting: "EvaluationSetting | None" = None
    world_key: str | None = None

    kind = "placement-run"
    result_type = float

    def payload(self) -> dict:
        return {**spec_payload(self),
                "strategy": _strategy_payload(self.strategy)}

    def execute(self, world) -> float:
        """Run the cell against ``world = (matrix, coords, heights)``."""
        from repro.analysis.experiment import draw_candidates
        from repro.placement.base import PlacementProblem
        if world is None:
            raise ValueError(
                "PlacementRunSpec needs a world: give the spec a setting "
                "or execute with an explicit world")
        matrix, coords, heights = world
        run_rng = np.random.default_rng(
            seed_sequence(self.seed, self.run_index))
        candidates, clients = draw_candidates(matrix, self.n_dc, run_rng,
                                              self.candidate_mode)
        problem = PlacementProblem(matrix, candidates, clients, self.k,
                                   coords=coords, heights=heights)
        strategy = build_strategy(self.strategy)
        strat_rng = np.random.default_rng(
            seed_sequence(self.seed, self.run_index,
                          zlib.crc32(strategy.name.encode())))
        sites = strategy.place(problem, strat_rng)
        return average_access_delay(matrix, clients, sites)


@dataclass(frozen=True)
class Table2Spec:
    """One Table II row: online-vs-offline cost at one access volume."""

    n_accesses: int
    k: int
    m: int
    dim: int = 3
    seed: int = 0

    kind = "table2-row"
    setting = None                  # table rows need no world

    @property
    def result_type(self) -> type:
        from repro.analysis.experiment import Table2Row
        return Table2Row

    def payload(self) -> dict:
        return spec_payload(self)

    def execute(self, world=None) -> "Table2Row":
        from repro.analysis.experiment import compute_table2_row
        return compute_table2_row(self.n_accesses, self.k, self.m,
                                  self.dim, self.seed)


# ----------------------------------------------------------------------
# Chunked dispatch: the unit of work shipped to a warm pool worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobChunk:
    """A batch of ``(spec index, spec)`` cells dispatched as one message.

    Chunking amortizes the per-dispatch costs (pipe round-trip, spec
    pickling, result unpickling, registry merge) over many small jobs —
    the fix for the pathological regime where a 4 ms job pays a
    multi-ms dispatch.  The executor cuts guided chunks, each
    ``⌈pending / (2 · workers)⌉`` jobs capped at 256, so they shrink
    towards singletons as the sweep drains (see ``docs/runner.md``).
    """

    chunk_id: int
    items: tuple[tuple[int, Any], ...]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class ChunkResult:
    """Everything a worker returns for one chunk, in one payload.

    ``registry`` is the single :class:`~repro.obs.MetricsRegistry` the
    whole chunk ran under (per-job ``runner.job`` timings included), so
    the parent does one merge per chunk instead of one per job.  When a
    job raised, ``failure`` is ``(spec index, exception or None,
    formatted traceback)`` and ``indices`` / ``results`` hold only the
    jobs that finished before it.
    """

    chunk_id: int
    indices: tuple[int, ...]
    results: tuple
    registry: Any
    failure: tuple | None = None
