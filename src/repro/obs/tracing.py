"""Typed event tracing with a bounded ring buffer.

A :class:`Tracer` records :class:`Span` events — *what* happened, at
which **simulated** time, with free-form attributes.  The buffer is a
fixed-capacity ring: old spans are evicted once capacity is reached, so
tracing a long simulation is memory-bounded; the eviction count is kept
so exports can report how much was dropped.

Span kinds used by the instrumented stack (see ``docs/observability.md``;
micro-cluster maintenance is counted, not traced — the
``clustering.micro.*`` counters):

==========================  ============================================
kind                        emitted when
==========================  ============================================
``access-served``           a client read/write completes at the store
``macro-round``             the coordinator runs Algorithm 1
``migration-start``         a replica migration begins transfers
``migration-finish``        the last migration transfer lands
==========================  ============================================

Examples
--------
>>> tracer = Tracer(capacity=2)
>>> tracer.record("macro-round", time=10.0, k=3)
>>> tracer.record("macro-round", time=20.0, k=3)
>>> tracer.record("macro-round", time=30.0, k=3)
>>> [s.time for s in tracer.spans()]       # oldest span evicted
[20.0, 30.0]
>>> tracer.dropped
1
"""

from __future__ import annotations

from collections import Counter as _KindCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ACCESS_SERVED",
    "MACRO_ROUND",
    "MIGRATION_START",
    "MIGRATION_FINISH",
]

ACCESS_SERVED = "access-served"
MACRO_ROUND = "macro-round"
MIGRATION_START = "migration-start"
MIGRATION_FINISH = "migration-finish"


@dataclass(frozen=True)
class Span:
    """One traced event.

    Attributes
    ----------
    kind:
        The event type (one of the module constants, or any string for
        application-defined events).
    time:
        Simulated timestamp in milliseconds (0.0 when no clock is bound
        and none was passed).
    attrs:
        Free-form event attributes (JSON-safe values recommended).
    """

    kind: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> dict:
        """JSON-safe form."""
        return {"kind": self.kind, "time": self.time, **self.attrs}


class Tracer:
    """Bounded ring buffer of typed spans.

    Parameters
    ----------
    capacity:
        Maximum retained spans; older spans are evicted first.
    clock:
        Optional zero-argument callable returning the current simulated
        time; used when :meth:`record` is not given an explicit time.
        Bind one with :meth:`bind_clock` (e.g. ``lambda: sim.now``).
    """

    enabled = True

    def __init__(self, capacity: int = 65_536,
                 clock: Callable[[], float] | None = None) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._buffer: deque[Span] = deque(maxlen=capacity)
        self._clock = clock
        self.recorded = 0
        self._kind_counts: _KindCounter = _KindCounter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float] | None) -> None:
        """Set (or clear) the simulated-time source."""
        self._clock = clock

    def record(self, kind: str, time: float | None = None,
               **attrs: Any) -> None:
        """Append one span; evicts the oldest when the ring is full."""
        if time is None:
            time = self._clock() if self._clock is not None else 0.0
        self._buffer.append(Span(kind, float(time), attrs))
        self.recorded += 1
        self._kind_counts[kind] += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def spans(self, kind: str | None = None) -> list[Span]:
        """Retained spans in arrival order, optionally filtered by kind."""
        if kind is None:
            return list(self._buffer)
        return [s for s in self._buffer if s.kind == kind]

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterable[Span]:
        return iter(self._buffer)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring so far."""
        return self.recorded - len(self._buffer)

    def kind_counts(self) -> dict[str, int]:
        """Total spans recorded per kind (including evicted ones)."""
        return dict(self._kind_counts)

    def snapshot(self, include_spans: bool = False,
                 span_limit: int = 1_000) -> dict:
        """JSON-safe summary; optionally inlines the newest spans."""
        payload = {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "retained": len(self._buffer),
            "dropped": self.dropped,
            "kinds": {k: int(v) for k, v in sorted(self._kind_counts.items())},
        }
        if include_spans:
            newest = list(self._buffer)[-span_limit:]
            payload["spans"] = [s.snapshot() for s in newest]
        return payload

    def reset(self) -> None:
        """Drop all spans and counts."""
        self._buffer.clear()
        self.recorded = 0
        self._kind_counts.clear()

    def __repr__(self) -> str:
        return (f"Tracer(capacity={self.capacity}, retained={len(self)}, "
                f"recorded={self.recorded})")


class NullTracer(Tracer):
    """Disabled tracer: records nothing, costs (almost) nothing.

    >>> NULL_TRACER.record("access-served", time=1.0)
    >>> len(NULL_TRACER)
    0
    >>> NULL_TRACER.enabled
    False
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def bind_clock(self, clock: Callable[[], float] | None) -> None:
        pass

    def record(self, kind: str, time: float | None = None,
               **attrs: Any) -> None:
        pass


#: Shared disabled tracer — the process-wide default.
NULL_TRACER = NullTracer()
