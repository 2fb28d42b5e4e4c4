"""repro.runner — parallel experiment orchestration.

The paper's evaluation is a grid of independent seeded cells (Section
IV-A: 30 runs per sweep point, four strategies, three figures).  This
subsystem executes that grid at whatever parallelism the hardware
offers, without changing a single result bit:

* :mod:`repro.runner.jobs` — the job model: each *(sweep point,
  strategy, run index)* cell is a self-describing, picklable spec whose
  random streams derive from :class:`numpy.random.SeedSequence` keyed by
  the cell's identity, so results are bit-identical regardless of worker
  count or scheduling order.
* :mod:`repro.runner.cache` — a content-addressed on-disk result cache
  (SHA-256 of the job config + code-version salt, atomic writes), which
  turns interrupted sweeps into resumable ones.
* :mod:`repro.runner.pool` / :mod:`repro.runner.workers` — the
  executor: a warm pool of persistent worker processes fed guided,
  shrinking job chunks on a pull-on-idle basis, the world handed to
  each worker once as a process argument, per-worker crash replacement
  with bounded retry, a stall watchdog, KeyboardInterrupt draining, and
  per-chunk metrics registries merged back into the active one.
* :mod:`repro.runner.sweep` — declarative sweep specs (JSON/TOML) for
  the ``repro sweep`` CLI subcommand.

See ``docs/runner.md`` for the seeding scheme, cache-key definition and
resume semantics.
"""

from repro.runner.cache import CACHE_SCHEMA, MISS, ResultCache, cache_key
from repro.runner.jobs import (
    ChunkResult,
    JobChunk,
    JobSpec,
    PlacementRunSpec,
    STRATEGY_KINDS,
    Table2Spec,
    as_job_strategy,
    build_strategy,
    seed_sequence,
    strategy_spec,
)
from repro.runner.pool import (
    RunnerError,
    StallTimeoutError,
    WorkerCrashError,
    execute,
)
from repro.runner.sweep import (
    SWEEP_KINDS,
    SweepSpec,
    load_sweep_spec,
    run_sweep,
)

__all__ = [
    # jobs
    "JobSpec",
    "JobChunk",
    "ChunkResult",
    "PlacementRunSpec",
    "Table2Spec",
    "STRATEGY_KINDS",
    "as_job_strategy",
    "build_strategy",
    "seed_sequence",
    "strategy_spec",
    # cache
    "CACHE_SCHEMA",
    "MISS",
    "ResultCache",
    "cache_key",
    # pool
    "execute",
    "RunnerError",
    "StallTimeoutError",
    "WorkerCrashError",
    # sweep
    "SWEEP_KINDS",
    "SweepSpec",
    "load_sweep_spec",
    "run_sweep",
]
