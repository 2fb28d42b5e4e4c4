"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, seq)``: two events scheduled for the same
instant fire in scheduling order, which makes runs fully deterministic.
The heaps hold ``(time, seq, event)`` tuples, so every comparison is a C
tuple comparison with exactly that total order (``seq`` is unique, so
the event itself is never compared).

``Event`` is a plain ``__slots__`` class rather than a dataclass: event
creation and cancellation sit on the simulator's hottest path, and the
frozen-dataclass ``object.__setattr__`` / ``__getattribute__``
indirection costs real time per event.  Cancelled events become
*tombstones* — they stay in the heap (removing an arbitrary heap entry
is O(n)) but the queue counts them and compacts the heap once tombstones
outnumber live events, so cancelling many timers cannot leak memory for
the rest of the run.

Inert events, barriers and scopes
---------------------------------
An event may be scheduled *inert*: a promise by the scheduler that
firing it mutates no state any batched data plane bakes its decisions on.
Clean read-request/reply deliveries and read retry timeouts qualify —
their effects land in order-tolerant sinks — and so do summary
deliveries, which only acknowledge a shipment (cancelling its retry
timer, which only removes a barrier).  Every other event is a
*barrier*.

A barrier may carry a *scope*: a promise that firing it changes only the
server-side data-plane state of that one placement unit (its replica
set, stored versions and summaries) — a unit's epoch tick, its replica
transfers, their retry timers and those of its summary shipments.
``scope=None`` (the default) means *global*: faults, heals, partitions,
loss changes, repair-monitor ticks, gossip, writes and their update
propagation.  The scope is a fact about the event, set by the code that
creates it — and only one module creates scoped events: the per-unit
control plane (:mod:`repro.store.control`) stamps its unit on everything
it schedules or sends, through one schedule/send helper pair and its
epoch clock.

When barrier tracking is enabled (it is off, and free, until a data
plane attaches) the queue mirrors every barrier into one heap of all
barriers and into the heap of its scope, so both questions a data plane
asks cost O(1) amortized:

* :meth:`EventQueue.next_barrier_time` — the earliest barrier of any
  scope, up to which arrivals can be generated;
* :meth:`EventQueue.scope_barrier_time` — the earliest barrier that can
  touch one unit, ``min(global, that unit's)``, before which a bulk read
  of that unit must land its requests (it must complete before the
  earliest global one, ``scope_barrier_time(None)``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Hashable

__all__ = ["Event", "EventQueue"]

# Below this heap size compaction is pointless churn — a handful of
# tombstones costs nothing and the filter+heapify would dominate.
_COMPACT_MIN_SIZE = 64


class Event:
    """A scheduled callback.

    ``inert`` marks events whose firing cannot change batched-engine-
    visible state; ``scope`` names the one placement unit a barrier can
    change (``None``: any state) — see the module docstring.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "inert",
                 "scope", "_queue")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple = (),
                 inert: bool = False, scope: Hashable = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.inert = inert
        self.scope = scope
        self._queue: EventQueue | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        state += " inert" if self.inert else ""
        return (f"Event(time={self.time!r}, seq={self.seq!r}, "
                f"callback={self.callback!r}{state})")

    def fire(self) -> None:
        """Invoke the callback (no-op when cancelled)."""
        if not self.cancelled:
            self.callback(*self.args)

    def cancel(self) -> None:
        """Prevent the event from firing when popped."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancelled()


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Cancelled events that are still queued are tracked as tombstones;
    when they outnumber the live events (and the heap is big enough for
    it to matter) the queue rebuilds itself without them.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._tombstones = 0
        self._track_barriers = False
        #: Every live barrier, and the barriers per scope (``None`` is
        #: the global scope).  Entries of fired or cancelled events are
        #: discarded lazily from the tops.
        self._barriers: list[tuple[float, int, Event]] = []
        self._scoped: dict[Hashable, list[tuple[float, int, Event]]] = {}
        #: Live non-inert events retired so far.  Each one is a bulk-
        #: window boundary a batched data plane had to stop at, so the
        #: counter measures how "choppy" a run was for bulk processing —
        #: the chaos benchmark reports it next to wall-clock time.
        self.barriers_fired = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def tombstones(self) -> int:
        """Number of cancelled events still occupying heap slots."""
        return self._tombstones

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = (), inert: bool = False,
             scope: Hashable = None) -> Event:
        """Schedule ``callback(*args)`` at simulated ``time``."""
        if not time >= 0:  # NaN fails too: it would corrupt the heap order
            raise ValueError(f"event time must be non-negative, got {time!r}")
        seq = next(self._counter)
        event = Event(time, seq, callback, args, inert, scope)
        event._queue = self
        entry = (time, seq, event)
        heapq.heappush(self._heap, entry)
        if self._track_barriers and not inert:
            heapq.heappush(self._barriers, entry)
            scoped = self._scoped.get(scope)
            if scoped is None:
                scoped = self._scoped[scope] = []
            heapq.heappush(scoped, entry)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event (cancelled ones included)."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        event = heapq.heappop(self._heap)[2]
        event._queue = None
        if event.cancelled:
            if self._tombstones > 0:
                self._tombstones -= 1
        elif not event.inert:
            self.barriers_fired += 1
        if self._track_barriers and not event.inert:
            # Retire the entry from its scope heap now rather than at the
            # next query: a unit whose scope is never asked about must
            # not accumulate fired entries for the rest of the run.
            scoped = self._scoped.get(event.scope)
            if scoped is not None:
                self._live_top(scoped)
                if not scoped:
                    del self._scoped[event.scope]
        return event

    def peek_time(self) -> float:
        """Time of the earliest event."""
        if not self._heap:
            raise IndexError("peek on empty event queue")
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Barrier tracking (batched data planes)
    # ------------------------------------------------------------------
    def enable_barrier_tracking(self) -> None:
        """Start mirroring barriers into the barrier heaps.

        Idempotent.  Already-queued events are adopted, so enabling
        mid-run is safe.  Tracking costs two extra heap pushes per
        barrier; it stays disabled (zero cost) until a data plane needs
        :meth:`next_barrier_time`.
        """
        if not self._track_barriers:
            self._track_barriers = True
            self._rebuild_barriers()

    def next_barrier_time(self) -> float:
        """Time of the earliest live barrier of any scope (inf when none)."""
        if not self._track_barriers:
            # Conservative fallback: every event is a potential barrier.
            return self._heap[0][0] if self._heap else math.inf
        return self._live_top(self._barriers)

    def scope_barrier_time(self, scope: Hashable) -> float:
        """Time of the earliest live barrier that can touch ``scope``:
        a global one or one of ``scope``'s own (inf when none)."""
        if not self._track_barriers:
            return self.next_barrier_time()
        return min(self._live_top(self._scoped.get(None, ())),
                   self._live_top(self._scoped.get(scope, ())))

    def _live_top(self, heap) -> float:
        """Discard fired/cancelled entries from the top of ``heap``;
        the time of its first live entry (inf when none is left)."""
        while heap and (heap[0][2].cancelled
                        or heap[0][2]._queue is not self):
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def _rebuild_barriers(self) -> None:
        self._barriers = []
        self._scoped = {}
        for entry in self._heap:
            event = entry[2]
            if not event.inert and not event.cancelled:
                self._barriers.append(entry)
                self._scoped.setdefault(event.scope, []).append(entry)
        heapq.heapify(self._barriers)
        for scoped in self._scoped.values():
            heapq.heapify(scoped)

    def clear(self) -> None:
        """Drop all pending events."""
        for _, _, event in self._heap:
            event._queue = None
        self._heap.clear()
        self._barriers.clear()
        self._scoped.clear()
        self._tombstones = 0

    def compact(self) -> None:
        """Rebuild the heap without tombstones (preserves event order)."""
        if not self._tombstones:
            return
        for _, _, event in self._heap:
            if event.cancelled:
                event._queue = None
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0
        if self._track_barriers:
            self._rebuild_barriers()

    def _note_cancelled(self) -> None:
        self._tombstones += 1
        if (len(self._heap) >= _COMPACT_MIN_SIZE
                and self._tombstones * 2 > len(self._heap)):
            self.compact()
