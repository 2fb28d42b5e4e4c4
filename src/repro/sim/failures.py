"""Failure injection: crashes, network partitions and flaky links.

The paper defers "data availability" to future work; this module builds
the substrate for it.  A :class:`FailureInjector` perturbs a
:class:`~repro.sim.node.Network` three ways:

* **crash-stop nodes** — messages to or from a down node are silently
  dropped, exactly the symptom a wide-area system observes;
* **network partitions** — every link between two node groups is cut
  (both directions), healed later as a unit;
* **flaky links** — a directed link drops each message with a given
  probability (asymmetric loss), seeded from the simulator's named RNG
  streams so runs stay bit-deterministic.

Layers above (the store's availability monitor, client read retries,
the controller's coordinator failover) react to the symptoms, never to
the injector.

Determinism
-----------
Transitions scheduled for the *same* simulated instant are applied in
an explicit order, independent of the order the schedule calls were
made: repairs before failures (``recover``/``heal``/``link-fix`` ahead
of ``crash``/``partition``/``link-loss``), ties broken by the
transition's payload.  A node scheduled to both recover and crash at
time *t* therefore always ends *down* at *t* — failure wins the
instant — no matter which call came first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.sim.node import Network
from repro.sim.simulator import Simulator

__all__ = ["FailureEvent", "FailureInjector"]


@dataclass(frozen=True)
class FailureEvent:
    """One recorded transition for the failure timeline.

    ``kind`` is one of ``crash``/``recover`` (``node`` is the affected
    node), ``partition``/``heal`` (``node`` is ``-1``; ``detail`` holds
    the two sorted groups) or ``link-loss``/``link-fix`` (``node`` is
    the sender; ``detail`` is ``(recipient,)`` or ``(recipient, loss)``).
    """

    time: float
    node: int
    kind: str
    detail: tuple = ()


#: Same-instant application order: repairs strictly before failures.
_KIND_RANK = {
    "recover": 0,
    "heal": 1,
    "link-fix": 2,
    "crash": 3,
    "partition": 4,
    "link-loss": 5,
}


@dataclass(frozen=True)
class _Transition:
    """One pending state change, with its deterministic sort key."""

    kind: str
    payload: tuple = ()

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], repr(self.payload))


class FailureInjector:
    """Crash nodes, cut links and partition groups on a network.

    Parameters
    ----------
    network:
        The fabric whose deliveries are affected.
    on_crash / on_recover:
        Optional hooks ``(node_id) -> None`` fired at transition time
        (the store uses them to refresh replica availability promptly;
        without hooks it discovers failures at its next monitor tick).
    """

    def __init__(self, network: Network,
                 on_crash: Callable[[int], None] | None = None,
                 on_recover: Callable[[int], None] | None = None) -> None:
        self.network = network
        self.sim: Simulator = network.sim
        self.on_crash = on_crash
        self.on_recover = on_recover
        self.timeline: list[FailureEvent] = []
        #: Pending transitions per simulated instant (see module notes).
        self._pending: dict[float, list[_Transition]] = {}

    # ------------------------------------------------------------------
    # Explicit schedule
    # ------------------------------------------------------------------
    def crash_at(self, time: float, node: int) -> None:
        """Crash ``node`` at absolute simulated ``time``."""
        self._schedule(time, _Transition("crash", (int(node),)))

    def recover_at(self, time: float, node: int) -> None:
        """Recover ``node`` at absolute simulated ``time``."""
        self._schedule(time, _Transition("recover", (int(node),)))

    def crash_now(self, node: int) -> None:
        """Crash ``node`` immediately."""
        self._crash(node)

    def recover_now(self, node: int) -> None:
        """Recover ``node`` immediately."""
        self._recover(node)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition_now(self, group_a: Sequence[int],
                      group_b: Sequence[int] | None = None) -> None:
        """Cut every link between two groups, in both directions.

        ``group_b`` defaults to *every other registered node* — the
        classic "minority island" cut.  Groups may not overlap.
        """
        self._partition(*self._groups(group_a, group_b))

    def partition_at(self, time: float, group_a: Sequence[int],
                     group_b: Sequence[int] | None = None) -> None:
        """Schedule a partition at absolute simulated ``time``."""
        self._schedule(time, _Transition(
            "partition", self._groups(group_a, group_b)))

    def heal_now(self, group_a: Sequence[int],
                 group_b: Sequence[int] | None = None) -> None:
        """Restore every link between two previously partitioned groups."""
        self._heal(*self._groups(group_a, group_b))

    def heal_at(self, time: float, group_a: Sequence[int],
                group_b: Sequence[int] | None = None) -> None:
        """Schedule a partition heal at absolute simulated ``time``."""
        self._schedule(time, _Transition(
            "heal", self._groups(group_a, group_b)))

    def _groups(self, group_a: Sequence[int],
                group_b: Sequence[int] | None) -> tuple[tuple, tuple]:
        a = tuple(sorted(int(n) for n in group_a))
        if group_b is None:
            b = tuple(sorted(set(self.network.nodes) - set(a)))
        else:
            b = tuple(sorted(int(n) for n in group_b))
        if set(a) & set(b):
            raise ValueError("partition groups must be disjoint")
        if not a or not b:
            raise ValueError("partition groups must be non-empty")
        return a, b

    # ------------------------------------------------------------------
    # Flaky links
    # ------------------------------------------------------------------
    def flaky_link_at(self, time: float, a: int, b: int, loss: float,
                      symmetric: bool = False) -> None:
        """Schedule link flakiness at absolute simulated ``time``."""
        self._schedule(time, _Transition(
            "link-loss", (int(a), int(b), float(loss), bool(symmetric))))

    def fix_link_at(self, time: float, a: int, b: int,
                    symmetric: bool = False) -> None:
        """Schedule a link fix at absolute simulated ``time``."""
        self._schedule(time, _Transition(
            "link-fix", (int(a), int(b), bool(symmetric))))

    # ------------------------------------------------------------------
    # Random crash/repair process
    # ------------------------------------------------------------------
    def random_failures(self, nodes: Sequence[int], mtbf_ms: float,
                        mttr_ms: float, until: float,
                        rng: np.random.Generator) -> int:
        """Schedule an exponential crash/repair process per node.

        Each node independently alternates up/down with exponential
        times-to-failure (mean ``mtbf_ms``) and times-to-repair (mean
        ``mttr_ms``) until simulated time ``until``.  Returns the number
        of crash events scheduled.
        """
        if mtbf_ms <= 0 or mttr_ms <= 0:
            raise ValueError("MTBF and MTTR must be positive")
        if until <= self.sim.now:
            raise ValueError("horizon must be in the future")
        crashes = 0
        for node in nodes:
            t = self.sim.now + float(rng.exponential(mtbf_ms))
            while t < until:
                self.crash_at(t, int(node))
                crashes += 1
                t += float(rng.exponential(mttr_ms))
                if t >= until:
                    break
                self.recover_at(t, int(node))
                t += float(rng.exponential(mtbf_ms))
        return crashes

    # ------------------------------------------------------------------
    # Deterministic same-instant application
    # ------------------------------------------------------------------
    def _schedule(self, time: float, transition: _Transition) -> None:
        batch = self._pending.get(time)
        if batch is None:
            batch = self._pending[time] = []
            # One simulator event per distinct instant applies the whole
            # batch in sorted order, so the outcome cannot depend on the
            # order the crash_at/recover_at calls were made.
            self.sim.schedule_at(time, self._apply_batch, time)
        batch.append(transition)

    def _apply_batch(self, time: float) -> None:
        batch = self._pending.pop(time, [])
        for transition in sorted(batch, key=_Transition.sort_key):
            self._apply(transition)

    def _apply(self, transition: _Transition) -> None:
        kind, payload = transition.kind, transition.payload
        if kind == "crash":
            self._crash(*payload)
        elif kind == "recover":
            self._recover(*payload)
        elif kind == "partition":
            self._partition(*payload)
        elif kind == "heal":
            self._heal(*payload)
        elif kind == "link-loss":
            self._flaky(*payload)
        elif kind == "link-fix":
            self._fix(*payload)
        else:  # pragma: no cover - _KIND_RANK gates every constructor
            raise ValueError(f"unknown transition kind {kind!r}")

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _crash(self, node: int) -> None:
        if self.network.is_up(node):
            self.network.set_down(node)
            self.timeline.append(FailureEvent(self.sim.now, node, "crash"))
            if self.on_crash is not None:
                self.on_crash(node)

    def _recover(self, node: int) -> None:
        if not self.network.is_up(node):
            self.network.set_up(node)
            self.timeline.append(FailureEvent(self.sim.now, node, "recover"))
            if self.on_recover is not None:
                self.on_recover(node)

    def _partition(self, group_a: tuple, group_b: tuple) -> None:
        for a in group_a:
            for b in group_b:
                self.network.set_link_down(a, b, symmetric=True)
        self.timeline.append(FailureEvent(
            self.sim.now, -1, "partition", (group_a, group_b)))

    def _heal(self, group_a: tuple, group_b: tuple) -> None:
        for a in group_a:
            for b in group_b:
                self.network.set_link_up(a, b, symmetric=True)
        self.timeline.append(FailureEvent(
            self.sim.now, -1, "heal", (group_a, group_b)))

    def _flaky(self, a: int, b: int, loss: float, symmetric: bool) -> None:
        self.network.set_link_loss(a, b, loss, symmetric=symmetric)
        self.timeline.append(FailureEvent(
            self.sim.now, a, "link-loss", (b, loss)))

    def _fix(self, a: int, b: int, symmetric: bool) -> None:
        self.network.clear_link_loss(a, b, symmetric=symmetric)
        self.timeline.append(FailureEvent(self.sim.now, a, "link-fix", (b,)))

    def crashes(self) -> list[FailureEvent]:
        """All crash events so far."""
        return [e for e in self.timeline if e.kind == "crash"]

    def partitions(self) -> list[FailureEvent]:
        """All partition events so far."""
        return [e for e in self.timeline if e.kind == "partition"]
