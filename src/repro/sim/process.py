"""Periodic processes: repeating simulator callbacks with optional jitter.

Used for coordinate gossip, client access workloads and the placement
epoch timer.  A process reschedules itself after every tick until
:meth:`PeriodicProcess.stop` is called.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

import numpy as np

from repro.sim.simulator import Simulator

__all__ = ["PeriodicProcess"]


class PeriodicProcess:
    """Call ``callback()`` every ``period`` ms, with optional jitter.

    Parameters
    ----------
    sim:
        Simulator to schedule on.
    period:
        Nominal interval between ticks in milliseconds.
    callback:
        Invoked once per tick.
    jitter:
        Each interval is multiplied by ``uniform(1 - jitter, 1 + jitter)``;
        zero (the default) means strictly periodic.
    rng:
        Randomness for the jitter (required when ``jitter > 0``).
    start_after:
        Delay before the first tick; defaults to one period.
    scope:
        Scope of every tick (:mod:`repro.sim.events`): a unit's epoch
        clock names its unit; ``None`` (global) otherwise.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], Any], jitter: float = 0.0,
                 rng: np.random.Generator | None = None,
                 start_after: float | None = None,
                 scope: Hashable = None) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.jitter = jitter
        self.rng = rng
        self.scope = scope
        self.ticks = 0
        self._running = True
        first = self._interval() if start_after is None else start_after
        self._pending = sim.schedule(first, self._tick, scope=scope)

    def _interval(self) -> float:
        if self.jitter == 0.0:
            return self.period
        assert self.rng is not None
        return self.period * self.rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self.callback()
        if self._running:
            self._pending = self.sim.schedule(self._interval(), self._tick,
                                              scope=self.scope)

    def stop(self) -> None:
        """Halt the process; a pending tick is cancelled."""
        self._running = False
        if self._pending is not None:
            self._pending.cancel()

    @property
    def running(self) -> bool:
        """Whether the process will tick again."""
        return self._running
