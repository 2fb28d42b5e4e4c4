"""Vectorized arrival generation for the batched data plane.

The per-event tick process (:mod:`repro.workloads._reference`, the test
oracle) drives the store through a jittered
:class:`~repro.sim.process.PeriodicProcess`: every tick draws, in
order, a client choice uniform, an optional object key uniform, an
optional write-fraction uniform and the next-interval jitter uniform —
all from the simulator's ``"workload"`` stream.

:class:`WorkloadArrivals` replays that exact consumption pattern in
blocks: one ``rng.random(B * draws_per_tick)`` call supplies the same
uniforms the scalar path would draw one at a time (``Generator.random``
is block/sequential equivalent), tick times come from a ``cumsum`` left
fold (bitwise the scalar ``now + interval`` chain), and client/key
selection inverts the same re-normalized CDFs ``Generator.choice``
uses.  Every produced arrival is therefore *bitwise identical* — same
time, client, key and kind — to the one the tick process would issue,
which is what the differential suites certify the data plane against.

:class:`TraceArrivals` is the same interface over a recorded trace;
``replay_trace`` feeds it to the engine.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from repro.workloads.population import ClientPopulation, ZipfObjectPopularity
from repro.workloads.temporal import ConstantPattern, TemporalPattern

__all__ = ["ArrivalBatch", "WorkloadArrivals", "TraceArrivals"]


class ArrivalBatch(NamedTuple):
    """A block of client accesses, one array entry per access."""

    times: np.ndarray     # absolute simulated ms, non-decreasing
    clients: np.ndarray   # client node ids
    key_idx: np.ndarray   # indices into the source's ``keys`` tuple
    is_write: np.ndarray  # bool per access

    @property
    def size(self) -> int:
        return self.times.size


def _empty_batch() -> ArrivalBatch:
    return ArrivalBatch(np.empty(0), np.empty(0, dtype=int),
                        np.empty(0, dtype=int), np.empty(0, dtype=bool))


def _concat(batches: list[ArrivalBatch]) -> ArrivalBatch:
    if not batches:
        return _empty_batch()
    if len(batches) == 1:
        return batches[0]
    return ArrivalBatch(*(np.concatenate(parts)
                          for parts in zip(*batches)))


class WorkloadArrivals:
    """RNG-exact vectorized replica of the per-event tick stream.

    Parameters mirror
    :class:`~repro.store.batched.BatchedAccessWorkload`; ``rng`` must be
    the ``sim.rng("workload")`` stream and ``start_time`` the simulated
    time of construction, so the first jitter draw and every subsequent
    tick line up with the scalar path.
    """

    def __init__(self, rng: np.random.Generator,
                 population: ClientPopulation, keys: Sequence[str],
                 rate_per_second: float = 100.0,
                 write_fraction: float = 0.0,
                 pattern: TemporalPattern | None = None,
                 popularity: ZipfObjectPopularity | None = None,
                 jitter: float = 0.5, start_time: float = 0.0) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write fraction must lie in [0, 1]")
        if not keys:
            raise ValueError("at least one object key required")
        self._rng = rng
        self.population = population
        self.keys = tuple(keys)
        self.write_fraction = write_fraction
        self.pattern = pattern or ConstantPattern()
        self.popularity = popularity or ZipfObjectPopularity(self.keys)
        self.period_ms = 1000.0 / rate_per_second
        self._lo = 1.0 - jitter
        self._span = (1.0 + jitter) - (1.0 - jitter)
        # Uniform draws per tick, in stream order: client choice,
        # object key (multi-key only), write coin (write_fraction > 0
        # only), next-interval jitter.
        self._multikey = len(self.keys) > 1
        self._key_col = 1 if self._multikey else -1
        self._write_col = (1 + self._multikey) if write_fraction > 0 else -1
        self._dpt = 2 + self._multikey + (write_fraction > 0)
        # PeriodicProcess draws the first interval at construction.
        self._next_time = start_time + self.period_ms * rng.uniform(
            1.0 - jitter, 1.0 + jitter)
        self._pending: ArrivalBatch | None = None
        self._stopped = False

    def stop(self) -> None:
        """Stop producing arrivals."""
        self._stopped = True
        self._pending = None

    def _generate_block(self, count: int) -> ArrivalBatch:
        """Produce the next ``count`` ticks of the stream."""
        draws = self._rng.random(count * self._dpt).reshape(count,
                                                            self._dpt)
        intervals = self.period_ms * (self._lo
                                      + self._span * draws[:, -1])
        # cumsum is the same left fold as the scalar now+interval chain,
        # seeded with the pending tick time; the final entry is the
        # first tick of the *next* block.
        path = np.empty(count + 1)
        path[0] = self._next_time
        path[1:] = intervals
        times_all = np.cumsum(path)
        times = times_all[:count]
        self._next_time = float(times_all[count])

        # A constant pattern modulates every weight by exactly 1.0 —
        # skipping the (ticks x clients) matrix entirely is bitwise-free.
        if type(self.pattern) is ConstantPattern:
            modulation = None
        else:
            modulation = self.pattern.modulation_block(times,
                                                       self.population)
        clients = self.population.sample_block(draws[:, 0], modulation)
        if self._multikey:
            key_idx = self.popularity.sample_block(draws[:, self._key_col])
        else:
            key_idx = np.zeros(count, dtype=int)
        if self.write_fraction > 0:
            is_write = draws[:, self._write_col] < self.write_fraction
        else:
            is_write = np.zeros(count, dtype=bool)
        return ArrivalBatch(times, clients, key_idx, is_write)

    def generate_until(self, bound: float) -> ArrivalBatch:
        """All arrivals with ``time <= bound`` not yet handed out.

        Over-generated ticks (the tail of a block that crossed
        ``bound``) are buffered for the next call; the underlying RNG
        stream only ever moves forward.
        """
        if self._stopped:
            return _empty_batch()
        if bound == math.inf:
            raise ValueError(
                "an endless workload cannot be drained: stop() it first "
                "or run the simulator with run_until")
        chunks: list[ArrivalBatch] = []
        if self._pending is not None:
            pending = self._pending
            if pending.times[0] > bound:
                return _empty_batch()
            cut = int(np.searchsorted(pending.times, bound, side="right"))
            chunks.append(ArrivalBatch(*(a[:cut] for a in pending)))
            self._pending = (ArrivalBatch(*(a[cut:] for a in pending))
                             if cut < pending.size else None)
            if self._pending is not None:
                return chunks[0]
        while self._next_time <= bound:
            expected = (bound - self._next_time) / self.period_ms
            count = int(min(max(expected + 16.0, 64.0), 65536.0))
            block = self._generate_block(count)
            if block.times[-1] <= bound:
                chunks.append(block)
                continue
            cut = int(np.searchsorted(block.times, bound, side="right"))
            chunks.append(ArrivalBatch(*(a[:cut] for a in block)))
            if cut < block.size:
                self._pending = ArrivalBatch(*(a[cut:] for a in block))
            break
        return _concat(chunks)

    def next_write_time(self, limit: float) -> float:
        """Issue time of the first write not yet handed out (inf if none
        by ``limit``), generating ahead; buffered ticks leave the stream
        exactly as :meth:`generate_until` would produce it."""
        if self._stopped or self.write_fraction == 0:
            return math.inf
        block = self._pending
        while True:
            if block is not None:
                hit = np.flatnonzero(block.is_write)
                if hit.size:
                    return float(block.times[hit[0]])
            if self._next_time > limit:
                return math.inf
            block = self._generate_block(1024)
            self._pending = (block if self._pending is None
                             else _concat([self._pending, block]))


class TraceArrivals:
    """The :class:`WorkloadArrivals` interface over a recorded trace."""

    def __init__(self, times: np.ndarray, clients: np.ndarray,
                 key_idx: np.ndarray, is_write: np.ndarray,
                 keys: Sequence[str]) -> None:
        order = np.argsort(times, kind="stable")
        self._batch = ArrivalBatch(
            np.asarray(times, dtype=float)[order],
            np.asarray(clients, dtype=int)[order],
            np.asarray(key_idx, dtype=int)[order],
            np.asarray(is_write, dtype=bool)[order])
        self.keys = tuple(keys)
        self._cursor = 0
        self._stopped = False
        self._writes = np.flatnonzero(self._batch.is_write)

    def stop(self) -> None:
        self._stopped = True

    def next_write_time(self, limit: float) -> float:
        later = self._writes[self._writes >= self._cursor]
        return (math.inf if self._stopped or not later.size
                else float(self._batch.times[later[0]]))

    def generate_until(self, bound: float) -> ArrivalBatch:
        if self._stopped or self._cursor >= self._batch.size:
            return _empty_batch()
        start = self._cursor
        stop = int(np.searchsorted(self._batch.times, bound, side="right"))
        if stop <= start:
            return _empty_batch()
        self._cursor = stop
        return ArrivalBatch(*(a[start:stop] for a in self._batch))
