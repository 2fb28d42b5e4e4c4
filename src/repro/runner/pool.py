"""Parallel job execution: a warm worker pool with chunked dispatch.

:func:`execute` takes a list of job specs (:mod:`repro.runner.jobs`) and
returns their results **in spec order**, regardless of how execution was
scheduled.  The execution engine is built for the paper's workload shape
— thousands of ~4 ms cells — where naive pooling loses to serial:

* **Serial fallback** — ``jobs=1`` runs every job in-process with zero
  extra machinery (no pickling, no subprocesses), which is also the mode
  the test suite uses for reference results.
* **Warm worker pool** — ``jobs=N`` spawns N persistent worker
  processes (:mod:`repro.runner.workers`) once per :func:`execute` call
  and keeps them alive across crash-retry rounds: a dead worker is
  replaced individually, the rest of the pool keeps its warm state
  (world, world memo, imports).  The world is a plain argument of each
  worker process: inherited under ``fork``, pickled once per worker
  under ``spawn``.
* **Guided, pull-on-idle dispatch** — specs are grouped into
  :class:`~repro.runner.jobs.JobChunk` batches so dispatch and
  registry-merge costs amortize over dozens of jobs.  Each new chunk
  takes ``⌈pending / (2 · workers)⌉`` jobs (guided self-scheduling),
  so chunks start large and shrink to singletons as the sweep drains.
  Workers *pull* the next chunk when idle rather than receiving a
  static partition, so heterogeneous cells cannot straggle behind an
  unlucky pre-assignment.
* **Result cache / resume** — with a ``cache_dir``, completed jobs are
  persisted through :class:`~repro.runner.cache.ResultCache` chunk by
  chunk (serially, every 256 jobs) into one flat directory (one
  directory fsync per chunk, not per job); with ``resume=True``, cached
  results are loaded up front and only the missing jobs execute.
* **Fault tolerance** — a worker process dying (OOM-kill, segfault,
  ``os._exit``) is detected on its process sentinel; its in-flight
  chunk is requeued and only that worker is respawned, up to
  ``retries`` times.  A stall watchdog (``timeout`` seconds without any
  chunk completing) kills and replaces the wedged workers the same way.
  ``KeyboardInterrupt`` stops dispatch, drains in-flight chunks for a
  bounded window (their results land in the cache) and re-raises —
  Ctrl-C plus ``resume`` loses nothing.  A job that *raises* is neither
  a crash nor retried: the pool stops and the exception is re-raised in
  the parent, as the serial path would.

Observability: the parent times the whole call (``runner.sweep``) and
counts ``runner.jobs`` / ``runner.jobs_completed`` / ``runner.chunks`` /
``runner.cache_hits`` / ``runner.cache_misses`` /
``runner.worker_crashes`` / ``runner.stalls`` / ``runner.retries``,
and gauges ``runner.chunk_size`` (the first, largest chunk).  Each
worker runs its chunk under a private
:class:`~repro.obs.MetricsRegistry` (which also captures the jobs' inner
instrumentation, e.g. ``placement.online.place`` and the per-job
``runner.job`` phase timer) and ships it back with the chunk; the parent
merges every chunk registry into the active one — histograms and timers
merge by addition, so pooled worker metrics are lossless.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Sequence

from repro import obs
from repro.runner import workers
from repro.runner.cache import MISS, ResultCache
from repro.runner.jobs import ChunkResult, JobChunk, JobSpec

__all__ = ["execute", "RunnerError", "WorkerCrashError", "StallTimeoutError"]


class RunnerError(RuntimeError):
    """Base class for executor failures."""


class WorkerCrashError(RunnerError):
    """A worker process died and the retry budget is exhausted."""


class StallTimeoutError(RunnerError):
    """No chunk completed within the stall timeout."""


#: How long a Ctrl-C waits for in-flight chunks before hard-stopping.
_DRAIN_SECONDS = 10.0

#: Guided self-scheduling: each new chunk is 1/(this x workers) of the
#: jobs still pending, so the last chunks are singletons and the heavy
#: tail of a sweep cannot straggle.
_GUIDED_FACTOR = 2
#: Hard ceiling on jobs per chunk: bounds the work a crash, a stall or a
#: Ctrl-C can lose, and the time the stall ``timeout`` must cover.
_MAX_CHUNK_JOBS = 256

_UNSET = object()


def execute(specs: Sequence[JobSpec], *,
            jobs: int | None = 1,
            cache_dir: str | None = None,
            resume: bool = False,
            timeout: float | None = None,
            retries: int = 2,
            world: Any = None,
            meta_out: list | None = None) -> list[Any]:
    """Run every spec and return the results in spec order.

    This signature is the one declaration of the runner options: every
    experiment runner (``run_figure1`` … ``run_chaos``) takes
    ``**runner`` and forwards it here verbatim.

    A job that raises aborts the call with that exception at any
    ``jobs`` level; jobs recorded before it stay in the cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        ``None`` means ``os.cpu_count()``.
    cache_dir:
        When set, completed jobs are persisted here as they finish.
    resume:
        Load cached results before executing; only misses run.  Requires
        ``cache_dir``.
    timeout:
        Stall watchdog, in seconds: if no chunk completes for this long,
        the workers holding in-flight chunks are killed and replaced and
        their chunks retried (the jobs of one sweep are homogeneous, so
        a stall this long means some job blew its budget).  It must
        cover the largest chunk, at most ``min(256, ⌈n / (2 · jobs)⌉)``
        jobs.  ``None`` disables the watchdog.
    retries:
        How many worker-loss events (crashes or stalls) to tolerate —
        each replaces only the dead worker, never the pool — before
        giving up.
    world:
        Explicit ``(matrix, coords, heights)`` world for specs that do
        not carry a setting (:func:`repro.analysis.experiment.
        run_comparison` uses this).  Handed to each pool worker once.
    meta_out:
        Optional list; when given, one dict per spec (in spec order) is
        appended recording how the cell was served: ``source``
        (``cache`` / ``serial`` / ``worker``) and, for pooled cells, the
        ``chunk`` and ``worker`` ids.
    """
    if resume and cache_dir is None:
        raise ValueError("resume=True requires a cache_dir")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("jobs must be >= 1 (or None for cpu_count)")
    if retries < 0:
        raise ValueError("retries must be >= 0")

    registry = obs.get_registry()
    cache = ResultCache(cache_dir) if cache_dir else None
    results: list[Any] = [_UNSET] * len(specs)
    meta: dict[int, dict] | None = {} if meta_out is not None else None

    with registry.phase("runner.sweep"):
        registry.counter("runner.jobs").inc(len(specs))
        remaining: list[int] = []
        for i, spec in enumerate(specs):
            if cache is not None and resume:
                hit = cache.get(spec)
                if hit is not MISS:
                    results[i] = hit
                    registry.counter("runner.cache_hits").inc()
                    if meta is not None:
                        meta[i] = {"source": "cache"}
                    continue
                registry.counter("runner.cache_misses").inc()
            remaining.append(i)

        if jobs == 1:
            _execute_serial(specs, remaining, world, cache, results,
                            registry, meta)
        elif remaining:
            _execute_pool(specs, remaining, jobs, world, cache, results,
                          registry, timeout, retries, meta)

    missing = [i for i, r in enumerate(results) if r is _UNSET]
    if missing:  # pragma: no cover - defensive; all paths fill or raise
        raise RunnerError(f"jobs {missing} produced no result")
    if meta_out is not None and meta is not None:
        meta_out.extend({"index": i, **meta.get(i, {})}
                        for i in range(len(specs)))
    return results


def _execute_serial(specs, remaining, world, cache, results, registry, meta):
    # Results are cached as the pool caches a chunk: one ``put_many``
    # (one directory fsync) per ``_MAX_CHUNK_JOBS`` jobs, written in a
    # ``finally`` so a raising job or a Ctrl-C keeps every completed job.
    for start in range(0, len(remaining), _MAX_CHUNK_JOBS):
        done: list[int] = []
        try:
            for i in remaining[start:start + _MAX_CHUNK_JOBS]:
                with registry.phase("runner.job"):
                    results[i] = specs[i].execute(
                        world if world is not None
                        else workers.world_for(specs[i]))
                done.append(i)
                registry.counter("runner.jobs_completed").inc()
                if meta is not None:
                    meta[i] = {"source": "serial"}
        finally:
            if cache is not None and done:
                cache.put_many([(specs[i], results[i]) for i in done])


# ----------------------------------------------------------------------
# The warm pool
# ----------------------------------------------------------------------

class _PoolWorker:
    """Parent-side record of one live worker process."""

    __slots__ = ("id", "process", "conn", "chunk")

    def __init__(self, worker_id, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.chunk: JobChunk | None = None


class WorkerPool:
    """N persistent workers, each fed chunk-by-chunk over a private pipe.

    Dispatch is parent-driven pull-on-idle: a worker gets its next chunk
    only when its previous one returns, which levels load across
    heterogeneous cells without any shared queue (and therefore without
    shared locks a killed worker could wedge).
    """

    def __init__(self, n_workers: int, world: Any) -> None:
        self._ctx = multiprocessing.get_context()
        self._world = world
        self._next_id = 0
        self._closed = False
        self.workers: list[_PoolWorker] = [self._spawn()
                                           for _ in range(n_workers)]

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=workers.worker_main,
            args=(self._next_id, child_conn, self._world),
            daemon=True)
        process.start()
        child_conn.close()
        worker = _PoolWorker(self._next_id, process, parent_conn)
        self._next_id += 1
        return worker

    def idle(self) -> list[_PoolWorker]:
        return [w for w in self.workers if w.chunk is None]

    def in_flight(self) -> list[_PoolWorker]:
        return [w for w in self.workers if w.chunk is not None]

    def send(self, worker: _PoolWorker, chunk: JobChunk) -> None:
        worker.chunk = chunk
        worker.conn.send(chunk)

    def wait(self, timeout: float | None):
        """Events among busy workers: ``(worker, "result"|"dead", payload)``.

        An empty list means the timeout expired with nothing completed
        (the stall signal).  A worker whose pipe delivered a result and
        then hit EOF is still a result — salvage beats suspicion.
        """
        busy = self.in_flight()
        waitables = [w.conn for w in busy] + [w.process.sentinel
                                             for w in busy]
        ready = set(connection.wait(waitables, timeout))
        events = []
        for worker in busy:
            if worker.conn in ready:
                try:
                    payload = worker.conn.recv()
                except (EOFError, OSError):
                    events.append((worker, "dead", None))
                else:
                    events.append((worker, "result", payload))
            elif worker.process.sentinel in ready:
                events.append((worker, "dead", None))
        return events

    def replace(self, worker: _PoolWorker) -> JobChunk | None:
        """Kill and respawn one worker; return its lost chunk, if any."""
        lost = worker.chunk
        self._reap(worker)
        self.workers[self.workers.index(worker)] = self._spawn()
        return lost

    def kill_stalled(self) -> list[JobChunk]:
        """Replace every worker holding an in-flight chunk (the wedged
        set at a stall); return their chunks for requeueing."""
        lost = []
        for worker in self.in_flight():
            chunk = self.replace(worker)
            if chunk is not None:
                lost.append(chunk)
        return lost

    def _reap(self, worker: _PoolWorker) -> None:
        try:
            worker.process.terminate()
        except OSError:  # pragma: no cover - already gone
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - wedged hard
            worker.process.kill()
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def shutdown(self, hard: bool = False) -> None:
        """Stop every worker: idle ones get a goodbye message (they exit
        cleanly, keeping pipes intact), busy or ``hard``-stopped ones are
        terminated."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if not hard and worker.chunk is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self.workers:
            self._reap(worker)


# ----------------------------------------------------------------------
# Chunk cutting
# ----------------------------------------------------------------------

class _ChunkDispatcher:
    """Cuts pending spec indices into guided chunks, in spec order.

    Each new chunk takes ``min(_MAX_CHUNK_JOBS, ⌈pending / (2 ·
    workers)⌉)`` jobs: large chunks first, singletons last.  A chunk
    requeued after a crash or stall is re-sent unchanged, before any
    new one.
    """

    def __init__(self, specs, remaining, n_workers, registry):
        self._specs = specs
        self._pending = deque(remaining)
        self._requeued: deque[JobChunk] = deque()
        self._divisor = _GUIDED_FACTOR * n_workers
        self._next_chunk_id = 0
        self._registry = registry

    def has_pending(self) -> bool:
        return bool(self._pending or self._requeued)

    def outstanding(self) -> int:
        """Jobs not yet recorded (pending + requeued)."""
        return len(self._pending) + sum(len(c) for c in self._requeued)

    def next_chunk(self) -> JobChunk | None:
        if self._requeued:
            return self._requeued.popleft()
        if not self._pending:
            return None
        size = min(_MAX_CHUNK_JOBS, -(-len(self._pending) // self._divisor))
        if self._next_chunk_id == 0:
            self._registry.gauge("runner.chunk_size").set(size)
        items = tuple((i, self._specs[i])
                      for i in (self._pending.popleft()
                                for _ in range(size)))
        chunk = JobChunk(chunk_id=self._next_chunk_id, items=items)
        self._next_chunk_id += 1
        self._registry.counter("runner.chunks").inc()
        return chunk

    def requeue(self, chunks: Sequence[JobChunk]) -> None:
        self._requeued.extend(chunks)


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------

def _pool_world(specs, remaining, world):
    """The world every pool worker gets: the explicit one; else, when
    every remaining spec shares one setting, that setting's world, built
    once here (memoized) instead of once per worker; else ``None`` —
    heterogeneous settings build per worker through the world memo."""
    if world is not None:
        return world
    settings = {getattr(specs[i], "setting", None) for i in remaining}
    if len(settings) != 1:
        return None
    setting = settings.pop()
    return None if setting is None else workers.world_memo.get_or_build(
        setting)


def _record_chunk(result: ChunkResult, worker, specs, cache, results,
                  registry, meta) -> None:
    registry.merge(result.registry)
    pairs = list(zip(result.indices, result.results))
    for i, value in pairs:
        results[i] = value
    if cache is not None:
        cache.put_many([(specs[i], value) for i, value in pairs])
    registry.counter("runner.jobs_completed").inc(len(pairs))
    if meta is not None:
        for i in result.indices:
            meta[i] = {"source": "worker", "worker": worker.id,
                       "chunk": result.chunk_id}


def _raise_job_error(failure) -> None:
    """Re-raise a job's exception from a worker: the job's own exception
    (its cause carries the worker traceback) or, when that did not
    survive pickling, a :class:`RunnerError` with the traceback."""
    index, error, trace = failure
    where = RunnerError(f"job {index} raised in a pool worker:\n{trace}")
    if error is None:
        raise where
    raise error from where


def _execute_pool(specs, remaining, jobs, world, cache, results, registry,
                  timeout, retries, meta):
    n_workers = max(1, min(jobs, len(remaining)))
    pool = WorkerPool(n_workers, _pool_world(specs, remaining, world))
    dispatcher = _ChunkDispatcher(specs, remaining, n_workers, registry)
    attempts = 0

    def note_crash(worker) -> None:
        """One worker died: count it, replace only it, requeue its chunk."""
        nonlocal attempts
        registry.counter("runner.worker_crashes").inc()
        attempts += 1
        lost = pool.replace(worker)
        unfinished = dispatcher.outstanding() + (len(lost) if lost else 0)
        if attempts > retries:
            raise WorkerCrashError(
                f"worker crashed and {retries} retries exhausted "
                f"({unfinished} jobs unfinished)")
        registry.counter("runner.retries").inc()
        if lost is not None:
            dispatcher.requeue([lost])

    try:
        while dispatcher.has_pending() or pool.in_flight():
            for worker in pool.idle():
                if not worker.process.is_alive():
                    note_crash(worker)  # replacement is fed next pass
                    continue
                chunk = dispatcher.next_chunk()
                if chunk is None:
                    break
                try:
                    pool.send(worker, chunk)
                except (BrokenPipeError, OSError):
                    note_crash(worker)  # chunk was claimed: requeued
            if not pool.in_flight():
                continue
            events = pool.wait(timeout)
            if not events:
                registry.counter("runner.stalls").inc()
                attempts += 1
                in_flight = len(pool.in_flight())
                dispatcher.requeue(pool.kill_stalled())
                if attempts > retries:
                    raise StallTimeoutError(
                        f"no chunk completed within {timeout}s "
                        f"({in_flight} in flight) and {retries} retries "
                        f"exhausted")
                registry.counter("runner.retries").inc()
                continue
            for worker, kind, payload in events:
                if kind == "result":
                    # The worker is idle once its result is in hand, so a
                    # Ctrl-C during the recording never drains it.
                    worker.chunk = None
                    _record_chunk(payload, worker, specs, cache, results,
                                  registry, meta)
                    if payload.failure is not None:
                        _raise_job_error(payload.failure)
                else:
                    note_crash(worker)
    except KeyboardInterrupt:
        # Graceful drain: stop dispatching (pending chunks are simply
        # never sent), give in-flight chunks a bounded window to finish
        # — their results land in the cache — then hard-stop and
        # re-raise.  Ctrl-C + resume loses nothing.
        _drain_in_flight(pool, specs, cache, results, registry, meta)
        raise
    finally:
        pool.shutdown()


def _drain_in_flight(pool, specs, cache, results, registry, meta) -> None:
    deadline = time.monotonic() + _DRAIN_SECONDS
    try:
        while pool.in_flight():
            left = deadline - time.monotonic()
            if left <= 0:
                break
            for worker, kind, payload in pool.wait(left):
                if kind == "result":
                    _record_chunk(payload, worker, specs, cache, results,
                                  registry, meta)
                worker.chunk = None
    except KeyboardInterrupt:
        pass  # second Ctrl-C: stop draining immediately
    finally:
        pool.shutdown(hard=True)
