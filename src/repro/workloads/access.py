"""Access traces: generating, persisting and replaying them."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.store.kvstore import ReplicatedStore
from repro.workloads.population import ClientPopulation, ZipfObjectPopularity
from repro.workloads.temporal import ConstantPattern, TemporalPattern

__all__ = ["AccessEvent", "generate_trace", "replay_trace", "save_trace",
           "load_trace"]


@dataclass(frozen=True)
class AccessEvent:
    """One entry of a generated trace."""

    time_ms: float
    client: int
    key: str
    kind: str  # "read" or "write"


def generate_trace(population: ClientPopulation, keys: Sequence[str],
                   duration_ms: float, rate_per_second: float,
                   rng: np.random.Generator,
                   write_fraction: float = 0.0,
                   pattern: TemporalPattern | None = None,
                   popularity: ZipfObjectPopularity | None = None
                   ) -> list[AccessEvent]:
    """Generate a replayable access trace (no simulator required).

    Inter-arrival times are exponential with mean ``1/rate``; client
    selection honours the temporal pattern at each event's timestamp.
    """
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if rate_per_second <= 0:
        raise ValueError("rate must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write fraction must lie in [0, 1]")
    if not keys:
        raise ValueError("at least one object key required")
    pattern = pattern or ConstantPattern()
    # Default popularity ranks keys in *sorted* order, not enumeration
    # order: the same seed then yields a byte-identical trace no matter
    # how the caller enumerates the keyspace (a dict's insertion order,
    # a catalog's shard order, ...).  An explicit ``popularity`` keeps
    # whatever ranking the caller built.
    popularity = popularity or ZipfObjectPopularity(tuple(sorted(keys)))

    events: list[AccessEvent] = []
    mean_gap_ms = 1000.0 / rate_per_second
    t = float(rng.exponential(mean_gap_ms))
    while t < duration_ms:
        modulation = pattern.modulation(t, population)
        client = population.sample(rng, modulation)
        key = keys[0] if len(keys) == 1 else popularity.sample(rng)
        kind = "write" if (write_fraction > 0
                           and rng.random() < write_fraction) else "read"
        events.append(AccessEvent(t, client, key, kind))
        t += float(rng.exponential(mean_gap_ms))
    return events


def save_trace(events: Sequence[AccessEvent], path: str) -> None:
    """Persist a trace as JSON-lines (one event per line).

    The format is the interchange point with real application logs: any
    log that can be converted to ``{"time_ms", "client", "key", "kind"}``
    lines can be replayed through the store.
    """
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps({
                "time_ms": event.time_ms,
                "client": event.client,
                "key": event.key,
                "kind": event.kind,
            }) + "\n")


def load_trace(path: str) -> list[AccessEvent]:
    """Load a JSON-lines trace written by :func:`save_trace`.

    Malformed input — a line that is not valid JSON (e.g. a truncated
    final line from an interrupted writer), a non-object line, missing
    or mistyped fields, an unknown kind — raises :class:`ValueError`
    naming the offending line number.
    """
    events: list[AccessEvent] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"bad trace record on line {line_number}: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"bad trace record on line {line_number}: expected an "
                    f"object, got {type(record).__name__}")
            try:
                event = AccessEvent(float(record["time_ms"]),
                                    int(record["client"]),
                                    str(record["key"]),
                                    str(record["kind"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"bad trace record on line {line_number}: {exc}"
                ) from exc
            if event.kind not in ("read", "write"):
                raise ValueError(
                    f"bad trace record on line {line_number}: "
                    f"unknown kind {event.kind!r}"
                )
            events.append(event)
    return events


def replay_trace(store: ReplicatedStore, events: Sequence[AccessEvent],
                 time_offset_ms: float = 0.0) -> int:
    """Replay a recorded trace against the store, verbatim.

    Every event is issued at ``time_offset_ms + event.time_ms`` on the
    store's simulator (so the offset must keep all events in the
    future); clients are registered on demand.  Returns the number of
    operations handed to the data plane.  Replaying the same trace
    against different store configurations gives perfectly paired
    comparisons — the "realistic evaluation based on data accesses in
    actual applications" the paper's conclusion asks for, with the trace
    standing in for an application log.

    The trace feeds a :class:`~repro.store.batched.BatchedAccessEngine`
    through :class:`~repro.workloads.batched.TraceArrivals`, so a
    multi-million-line log costs a fraction of one heap event per line.
    """
    from repro.store.batched import BatchedAccessEngine
    from repro.workloads.batched import TraceArrivals

    for event in events:
        if time_offset_ms + event.time_ms < store.sim.now:
            raise ValueError(
                f"event at {event.time_ms} ms lies in the simulator's past"
            )
        if event.client not in store.clients:
            store.add_client(event.client)
    keys = tuple(dict.fromkeys(e.key for e in events))
    key_pos = {k: i for i, k in enumerate(keys)}
    source = TraceArrivals(
        np.array([time_offset_ms + e.time_ms for e in events]),
        np.array([e.client for e in events], dtype=int),
        np.array([key_pos[e.key] for e in events], dtype=int),
        np.array([e.kind == "write" for e in events], dtype=bool),
        keys)
    BatchedAccessEngine(store, source)  # registers as a data plane
    return len(events)
