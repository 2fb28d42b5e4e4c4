"""The per-event access driver: the batched pipeline's test oracle.

:class:`AccessWorkload` issues every access as its own heap event from a
jittered :class:`~repro.sim.process.PeriodicProcess`, and
:func:`replay_trace` schedules one heap event per trace line.  Same
names and signatures as the production pair
(:class:`~repro.store.batched.BatchedAccessWorkload`,
:func:`repro.workloads.access.replay_trace`), so a differential can swap
one for the other.  Reached the way
:mod:`repro.kernels._reference` is: not exported from
:mod:`repro.workloads`, never imported by production code, imported by
the differential suites (``tests/integration/test_*_equivalence.py``),
the tick-process unit tests and the slow arm of the throughput
benchmarks.

Operation order is the contract: per tick the ``"workload"`` stream is
consumed as client choice, object key (several keys only), write coin
(``write_fraction > 0`` only), next-interval jitter — the pattern
:class:`~repro.workloads.batched.WorkloadArrivals` replays in blocks.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.process import PeriodicProcess
from repro.store.kvstore import ReplicatedStore
from repro.workloads.access import AccessEvent
from repro.workloads.population import ClientPopulation, ZipfObjectPopularity
from repro.workloads.temporal import ConstantPattern, TemporalPattern


class AccessWorkload:
    """A simulator process issuing store operations, one event each.

    Requests arrive as a Poisson-like process: every tick of a periodic
    driver (running at ``rate_per_second``, jittered), one client is
    drawn from the population (modulated by the temporal pattern) and
    issues a read — or a write with probability ``write_fraction``.
    Parameters as :class:`~repro.store.batched.BatchedAccessWorkload`.
    """

    def __init__(self, store: ReplicatedStore, population: ClientPopulation,
                 keys: Sequence[str], rate_per_second: float = 100.0,
                 write_fraction: float = 0.0,
                 pattern: TemporalPattern | None = None,
                 popularity: ZipfObjectPopularity | None = None) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write fraction must lie in [0, 1]")
        if not keys:
            raise ValueError("at least one object key required")
        self.store = store
        self.population = population
        self.keys = tuple(keys)
        self.write_fraction = write_fraction
        self.pattern = pattern or ConstantPattern()
        self.popularity = popularity or ZipfObjectPopularity(self.keys)
        self.operations_issued = 0
        self._rng = store.sim.rng("workload")
        for client in population.clients:
            if client not in store.clients:
                store.add_client(client)
        period_ms = 1000.0 / rate_per_second
        self._process = PeriodicProcess(
            store.sim, period_ms, self._issue, jitter=0.5, rng=self._rng)

    def _issue(self) -> None:
        modulation = self.pattern.modulation(self.store.sim.now, self.population)
        client_id = self.population.sample(self._rng, modulation)
        client = self.store.clients[client_id]
        key = (self.keys[0] if len(self.keys) == 1
               else self.popularity.sample(self._rng))
        if self.write_fraction > 0 and self._rng.random() < self.write_fraction:
            client.write(key)
        else:
            client.read(key)
        self.operations_issued += 1

    def stop(self) -> None:
        """Stop issuing operations."""
        self._process.stop()


def replay_trace(store: ReplicatedStore, events: Sequence[AccessEvent],
                 time_offset_ms: float = 0.0) -> int:
    """Heap :func:`repro.workloads.access.replay_trace`: one scheduled
    ``client.read`` / ``client.write`` event per trace line."""
    sim = store.sim
    for event in events:
        if time_offset_ms + event.time_ms < sim.now:
            raise ValueError(
                f"event at {event.time_ms} ms lies in the simulator's past"
            )
        if event.client not in store.clients:
            store.add_client(event.client)
    count = 0
    for event in events:
        when = time_offset_ms + event.time_ms
        client = store.clients[event.client]
        action = client.write if event.kind == "write" else client.read
        sim.schedule_at(when, action, event.key)
        count += 1
    return count
