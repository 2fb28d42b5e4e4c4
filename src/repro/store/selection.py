"""Client-side replica selection strategies as policy objects.

The paper's clients always read the *nearest* replica.  That is optimal
when servers are uncontended, and collapses under load: every client
near a hotspot piles onto the same server while its siblings idle.
This module turns the choice into a policy object (in the style of
absim's client simulation — pending-request maps, per-replica latency
trackers, a pluggable selection strategy):

* :class:`NearestSelection` — today's behaviour, bitwise-preserved.
  The default; the differential suite certifies that a store built
  with it is byte-identical to the pre-strategy store.
* :class:`LeastPendingSelection` — prefer the replica with the fewest
  requests this client has in flight to it; distance breaks ties.
  The classic least-outstanding-requests load balancer.
* :class:`C3Selection` — rate-adaptive scoring: an EWMA of observed
  per-replica reply latency, inflated by the cube of the client's
  outstanding requests to that replica (the C3 replica-ranking shape:
  ``ewma * (1 + pending)^3``).  Unobserved replicas fall back to their
  distance key, so cold-start behaviour is nearest-replica.

All state is **client-local** (per ``(client, server)`` pair): a real
client knows only what it sent and what came back, never the server's
true queue depth.  Strategies see the store only through
``store._distance_keys`` plus the issue/reply/failure notifications the
client machinery feeds them, which keeps them trivially portable to
the property-test harness.

Determinism: strategies are pure functions of (distance keys, their
own notification history); they draw no randomness and break every
tie by ascending site id, so two runs with the same seed rank
identically.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "SelectionStrategy",
    "NearestSelection",
    "LeastPendingSelection",
    "C3Selection",
    "EwmaTracker",
    "make_strategy",
    "STRATEGIES",
]

#: Strategy aliases accepted by :func:`make_strategy` (store
#: constructor and scenario files).
STRATEGIES = ("nearest", "least-pending", "c3")


class EwmaTracker:
    """Exponentially weighted moving average of latency samples.

    ``alpha`` is the *retention* weight: after a sample ``x`` the value
    becomes ``alpha * value + (1 - alpha) * x`` (the first sample seeds
    the value directly).  Because every update is a convex combination
    of the old value and the sample, the tracked value always lies
    within ``[min(samples), max(samples)]`` — the invariant the
    property suite pins.
    """

    __slots__ = ("alpha", "value", "samples")

    def __init__(self, alpha: float = 0.9) -> None:
        alpha = float(alpha)
        if not 0.0 <= alpha < 1.0 or not math.isfinite(alpha):
            raise ValueError("alpha must lie in [0, 1)")
        self.alpha = alpha
        self.value: float | None = None
        self.samples = 0

    def update(self, sample: float) -> float:
        """Fold one sample in; return the new value."""
        sample = float(sample)
        if self.value is None:
            self.value = sample
        else:
            self.value = self.alpha * self.value + (1 - self.alpha) * sample
        self.samples += 1
        return self.value


class SelectionStrategy:
    """Ranks replica sites for a client; observes request lifecycles.

    :meth:`rank` must return the given sites reordered best-first,
    deterministically (no RNG, ties by site id).  The notification
    hooks are called by the client machinery: ``note_issued`` when a
    request leg is sent, ``note_reply`` when a reply arrives (with the
    observed latency), ``note_failure`` when a read gives up on its
    outstanding legs (final timeout).  The base hooks are no-ops, so a
    stateless strategy pays nothing.
    """

    #: Whether the batched engine may bulk-serve reads routed by this
    #: strategy.  Only ``nearest`` qualifies: its ranking is a pure
    #: function of frozen window state, while pending-aware strategies
    #: change their answer with every in-flight request, so the engine
    #: escalates their reads to the per-event path (exact, not fast).
    supports_bulk = False

    def rank(self, client: int, sites: Sequence[int], store) -> list[int]:
        raise NotImplementedError

    def note_issued(self, client: int, server: int) -> None:
        pass

    def note_reply(self, client: int, server: int,
                   latency_ms: float) -> None:
        pass

    def note_failure(self, client: int, servers: Sequence[int]) -> None:
        pass


class NearestSelection(SelectionStrategy):
    """Closest replica first — the paper's model, bitwise-preserved.

    The body is exactly the store's historical ``_rank_sites``: the
    same distance keys, the same ``sorted(zip(keys, sites))`` (whose
    tuple comparison breaks distance ties by ascending site id).  The
    differential suite certifies byte-identical runs.
    """

    supports_bulk = True

    def rank(self, client: int, sites: Sequence[int], store) -> list[int]:
        keys = store._distance_keys(client, sites)
        return [s for _, s in sorted(zip(keys, sites))]


class _PendingMixin:
    """Client-local pending-request counts per (client, server)."""

    def __init__(self) -> None:
        self._pending: dict[tuple[int, int], int] = {}

    def pending(self, client: int, server: int) -> int:
        return self._pending.get((client, server), 0)

    def note_issued(self, client: int, server: int) -> None:
        key = (client, server)
        self._pending[key] = self._pending.get(key, 0) + 1

    def _release(self, client: int, server: int) -> None:
        key = (client, server)
        count = self._pending.get(key, 0)
        if count <= 1:
            self._pending.pop(key, None)
        else:
            self._pending[key] = count - 1

    def note_reply(self, client: int, server: int,
                   latency_ms: float) -> None:
        self._release(client, server)

    def note_failure(self, client: int, servers: Sequence[int]) -> None:
        for server in servers:
            self._release(client, server)


class LeastPendingSelection(_PendingMixin, SelectionStrategy):
    """Fewest outstanding requests first; distance breaks ties.

    The client-local least-outstanding-requests balancer: a replica
    the client is already waiting on ranks behind an idle one even if
    it is closer, which is exactly what spreads a hotspot's load over
    the replica set and collapses the p999 queueing tail (the nightly
    ``BENCH_tail.json`` benchmark measures this against ``nearest``).
    """

    def rank(self, client: int, sites: Sequence[int], store) -> list[int]:
        keys = store._distance_keys(client, sites)
        return [s for _, _, s in sorted(
            (self.pending(client, s), k, s)
            for k, s in zip(keys, sites))]


class C3Selection(_PendingMixin, SelectionStrategy):
    """C3-style rate-adaptive scoring with EWMA latency trackers.

    Each ``(client, server)`` pair keeps an EWMA of observed reply
    latencies; a replica's score is ``ewma * (1 + pending)^3`` — the
    cubic penalty is C3's concurrency compensation, which backs off a
    slow-or-loaded replica *before* its queue shows up in averages.
    Replicas with no samples yet score by their distance key (scaled by
    the same pending penalty), so a cold store behaves like ``nearest``
    and the trackers warm up from real traffic.
    """

    def __init__(self, alpha: float = 0.9) -> None:
        super().__init__()
        self._alpha = float(alpha)
        self._trackers: dict[tuple[int, int], EwmaTracker] = {}

    def tracker(self, client: int, server: int) -> EwmaTracker | None:
        return self._trackers.get((client, server))

    def note_reply(self, client: int, server: int,
                   latency_ms: float) -> None:
        super().note_reply(client, server, latency_ms)
        key = (client, server)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._trackers[key] = EwmaTracker(self._alpha)
        tracker.update(latency_ms)

    def rank(self, client: int, sites: Sequence[int], store) -> list[int]:
        keys = store._distance_keys(client, sites)
        scored = []
        for k, s in zip(keys, sites):
            tracker = self._trackers.get((client, s))
            base = tracker.value if tracker is not None else float(k)
            penalty = (1 + self.pending(client, s)) ** 3
            scored.append((base * penalty, s))
        return [s for _, s in sorted(scored)]


def make_strategy(strategy: "SelectionStrategy | str | None"
                  ) -> SelectionStrategy:
    """Resolve a strategy alias (or pass a policy object through).

    ``None`` and ``"nearest"`` give :class:`NearestSelection` — the
    bitwise-preserved default.
    """
    if strategy is None:
        return NearestSelection()
    if isinstance(strategy, SelectionStrategy):
        return strategy
    if strategy == "nearest":
        return NearestSelection()
    if strategy == "least-pending":
        return LeastPendingSelection()
    if strategy == "c3":
        return C3Selection()
    raise ValueError(f"unknown selection strategy {strategy!r}; "
                     f"known: {STRATEGIES}")
