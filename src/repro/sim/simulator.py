"""The simulator core: clock, scheduler and named RNG streams.

Typical use::

    sim = Simulator(seed=42)
    sim.schedule(10.0, my_callback, arg1, arg2)   # 10 ms from now
    sim.run_until(60_000.0)                       # one simulated minute

Determinism: all randomness must come from :meth:`Simulator.rng` streams,
which are derived from the seed and the stream name, so two runs with the
same seed produce identical event sequences regardless of the order in
which streams are first requested.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Callable, Hashable

import numpy as np

from repro import obs
from repro.sim.events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """A discrete-event simulator with a millisecond clock.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams.
    """

    def __init__(self, seed: int = 0) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self.events_processed = 0
        self._data_planes: list[Any] = []

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> np.random.Generator:
        """A named, seed-derived random stream (stable across runs).

        The child seed derives from ``(master seed, crc32(name))`` — a
        *stable* hash, never Python's randomized ``hash()``, so the same
        seed produces identical simulations across processes.
        """
        if name not in self._rngs:
            digest = zlib.crc32(name.encode("utf-8"))
            self._rngs[name] = np.random.default_rng(
                np.random.SeedSequence(entropy=(self._seed, digest))
            )
        return self._rngs[name]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, inert: bool = False,
                 scope: Hashable = None) -> Event:
        """Run ``callback(*args)`` after ``delay`` milliseconds.

        ``inert=True`` promises that firing the event mutates no state a
        batched data plane bakes decisions on; ``scope=unit_key``
        promises it changes only that placement unit's (see
        :mod:`repro.sim.events`).  Neither ends other units' bulk reads.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.now + delay, callback, args, inert, scope)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, inert: bool = False,
                    scope: Hashable = None) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past ({time} < now={self.now})"
            )
        return self.queue.push(time, callback, args, inert, scope)

    # ------------------------------------------------------------------
    # Data planes (batched engines)
    # ------------------------------------------------------------------
    def attach_data_plane(self, plane: Any) -> None:
        """Register a batched data plane with the event loop.

        A data plane is anything with an ``advance(bound, horizon=None)``
        method.  The loop calls it with the next barrier (:meth:`run`:
        the next event) so the plane can apply whole windows of
        data-plane work in bulk between control-plane events;
        :meth:`run_until` also hands over its horizon, up to which a
        unit's work may run past ``bound`` (see :mod:`repro.sim.events`).
        ``advance`` must be idempotent over already-covered time and may
        schedule new events (escalations) at or after the current clock.
        """
        if plane not in self._data_planes:
            self._data_planes.append(plane)
            self.queue.enable_barrier_tracking()

    def detach_data_plane(self, plane: Any) -> None:
        """Unregister a previously attached data plane (no-op if absent)."""
        if plane in self._data_planes:
            self._data_planes.remove(plane)

    def _flush_data_planes(self) -> None:
        """Let each plane apply what it deferred (summary folds), so
        inspecting state after a run needs no manual step."""
        for plane in self._data_planes:
            flush = getattr(plane, "flush", None)
            if flush is not None:
                flush()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Pop one event and fire it unless it was cancelled; returns
        False when the queue is empty.  ``events_processed`` counts fired
        events only, so it does not depend on when the heap compacts."""
        if not self.queue:
            return False
        event = self.queue.pop()
        self.now = event.time
        if not event.cancelled:
            event.fire()
            self.events_processed += 1
        return True

    def run(self, max_events: int | None = None) -> None:
        """Drain the queue (optionally until ``max_events`` have fired).

        With data planes attached, draining includes their pending work:
        once the heap is empty each plane is advanced without bound (a
        replayed trace runs to its last line; an endless workload must be
        stopped first or run with :meth:`run_until`).
        """
        registry = obs.get_registry()
        start = self.events_processed
        planes = self._data_planes
        queue = self.queue
        with registry.phase("sim.run"):
            while (max_events is None
                   or self.events_processed - start < max_events):
                if planes:
                    bound = queue.peek_time() if queue else math.inf
                    for plane in planes:
                        plane.advance(bound)
                if not queue:
                    break
                self.step()
        self._flush_data_planes()
        if registry.enabled:
            registry.counter("sim.events_processed").inc(
                self.events_processed - start)

    def run_until(self, time: float) -> None:
        """Process events up to and including simulated ``time``.

        The clock is left at ``time`` even if the queue empties earlier,
        so periodic measurements can rely on it.
        """
        if time < self.now:
            raise ValueError("cannot run backwards")
        registry = obs.get_registry()
        start = self.events_processed
        planes = self._data_planes
        queue = self.queue
        with registry.phase("sim.run"):
            if planes:
                # Interleave bulk data-plane windows with control events.
                # The window bound is the next *barrier* (non-inert
                # event) of any scope — inert events (clean read chains)
                # fire without ending the window because their effects
                # land in order-tolerant sinks.  After advancing, fire
                # the inert events up to the bound plus at most one
                # barrier, then recompute: the barrier (or an escalation
                # the plane scheduled) may have changed state or added
                # barriers.  The bound stops the run too, since an inert
                # event may cancel the barrier it was computed from (a
                # summary acknowledgement cancels its retry timer) and
                # events past it lie beyond the arrivals generated.
                while True:
                    bound = min(queue.next_barrier_time(), time)
                    for plane in planes:
                        plane.advance(bound, time)
                    if not (queue and queue.peek_time() <= time):
                        break
                    while queue and queue.peek_time() <= bound:
                        event = queue.pop()
                        self.now = event.time
                        if not event.cancelled:
                            event.fire()
                            self.events_processed += 1
                        if not event.inert:
                            break
            else:
                while queue and queue.peek_time() <= time:
                    self.step()
        self.now = time
        self._flush_data_planes()
        if registry.enabled:
            registry.counter("sim.events_processed").inc(
                self.events_processed - start)
