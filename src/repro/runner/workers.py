"""Worker-side engine of the warm pool: worlds, chunks, crash hooks.

A pool worker is a long-lived process (:func:`worker_main`) that pulls
:class:`~repro.runner.jobs.JobChunk` messages off its private pipe,
executes every spec in the chunk under one shared
:class:`~repro.obs.MetricsRegistry`, and ships a single merged
:class:`~repro.runner.jobs.ChunkResult` back — so dispatch, pickling and
registry-merge costs amortize over the whole chunk instead of being paid
per 4 ms job.

Worlds reach a worker exactly once, as a plain argument of its
:class:`multiprocessing.Process`: inherited copy-on-write under the
``fork`` start method, pickled once per worker under ``spawn`` /
``forkserver`` (each worker then holds its own copy).  Specs that carry
an ``EvaluationSetting`` and run without such a world build it locally
through :class:`WorldMemo`, a small LRU keyed by setting, so long
multi-setting service runs cannot accumulate every world ever built.

A job that raises does not kill its worker: :func:`run_chunk` stops the
chunk there and ships the exception back with the spec index, and the
parent re-raises it (see :func:`repro.runner.pool.execute`).
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from collections import OrderedDict
from typing import Any

from repro import obs
from repro.runner.jobs import ChunkResult, JobChunk

__all__ = [
    "CRASH_ONCE_ENV",
    "WORLD_MEMO_CAP",
    "WorldMemo",
    "world_memo",
    "world_for",
    "run_chunk",
    "worker_main",
]

#: Test hook: when this env var names a path and the file does not exist
#: yet, the worker creates it and dies with ``os._exit`` — a
#: deterministic stand-in for an OOM-kill, used by the crash-safety
#: tests.  The sentinel file makes the crash happen exactly once, so the
#: retry path is exercised end-to-end.
CRASH_ONCE_ENV = "REPRO_RUNNER_CRASH_ONCE"

#: Worlds kept per process: enough for every figure sweep (one setting)
#: and the coords ablation (four), small enough that a service run over
#: hundreds of distinct settings stays bounded.
WORLD_MEMO_CAP = 8


class WorldMemo:
    """Small LRU of worlds materialized in this process, keyed by setting."""

    def __init__(self, cap: int = WORLD_MEMO_CAP) -> None:
        if cap < 1:
            raise ValueError("world memo cap must be >= 1")
        self.cap = cap
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def get_or_build(self, setting: Any) -> Any:
        world = self._entries.get(setting)
        if world is not None:
            self._entries.move_to_end(setting)
            return world
        world = setting.build()
        self._entries[setting] = world
        while len(self._entries) > self.cap:
            self._entries.popitem(last=False)
        return world

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, setting: Any) -> bool:
        return setting in self._entries

    def clear(self) -> None:
        self._entries.clear()


#: Per-process world memo (parent and workers alike).
world_memo = WorldMemo()

#: World installed for every spec of this pool (explicit-world mode);
#: ``None`` means specs build their own from their setting.
_explicit_world: Any = None


def world_for(spec: Any) -> Any:
    """The world a spec runs against (explicit, or built from its setting)."""
    if _explicit_world is not None:
        return _explicit_world
    setting = getattr(spec, "setting", None)
    if setting is None:
        return None
    return world_memo.get_or_build(setting)


# ----------------------------------------------------------------------
# Chunk execution and the worker loop
# ----------------------------------------------------------------------

def _maybe_crash_once() -> None:
    sentinel = os.environ.get(CRASH_ONCE_ENV)
    if sentinel and not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed\n")
        os._exit(17)


def _portable(error: Exception) -> Exception | None:
    """``error`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return None
    return error


def run_chunk(chunk: JobChunk) -> ChunkResult:
    """Execute every spec of one chunk under a single merged registry.

    A spec that raises ends the chunk: the result carries the jobs that
    finished before it plus ``failure``, the ``(spec index, exception,
    formatted traceback)`` triple — the exception is ``None`` when it
    would not survive pickling.
    """
    local = obs.MetricsRegistry()
    results: list[Any] = []
    failure = None
    with obs.observe(local, obs.NULL_TRACER):
        for index, spec in chunk.items:
            _maybe_crash_once()
            try:
                with local.phase("runner.job"):
                    results.append(spec.execute(world_for(spec)))
            except Exception as error:
                failure = (index, _portable(error), traceback.format_exc())
                break
    return ChunkResult(
        chunk_id=chunk.chunk_id,
        indices=tuple(index for index, _spec in chunk.items[:len(results)]),
        results=tuple(results),
        registry=local,
        failure=failure,
    )


def worker_main(worker_id: int, conn: Any, world: Any) -> None:
    """Long-lived worker loop: install the world once, then serve chunks.

    The worker ignores SIGINT so a Ctrl-C in the parent can drain
    in-flight chunks (their results still arrive and land in the cache)
    instead of killing the whole pool mid-write.
    """
    global _explicit_world
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    _explicit_world = world
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            try:
                conn.send(run_chunk(message))
            except (BrokenPipeError, OSError):  # parent went away
                break
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
