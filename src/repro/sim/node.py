"""Nodes and latency-delayed messaging on top of the simulator.

A :class:`Network` binds a :class:`~repro.sim.simulator.Simulator` to a
:class:`~repro.net.latency.LatencyMatrix`; :class:`Node` subclasses
register with it and exchange :class:`Message` objects that arrive after
the one-way delay between the endpoints (plus payload serialization time
when a :class:`~repro.net.bandwidth.BandwidthModel` is configured).  The
network keeps per-node traffic accounting, which the Table II bandwidth
comparison uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from repro import obs
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyMatrix
from repro.sim.simulator import Simulator

__all__ = ["Message", "Network", "Node"]


@dataclass(frozen=True)
class Message:
    """One message in flight.

    ``kind`` is a free-form tag (e.g. ``"access-request"``); ``payload``
    is arbitrary and ``size_bytes`` is what traffic accounting charges.
    """

    sender: int
    recipient: int
    kind: str
    payload: Any = None
    size_bytes: int = 0
    sent_at: float = 0.0


@dataclass
class TrafficStats:
    """Byte and message counters for one node or the whole network."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def record_send(self, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size

    def record_receive(self, size: int) -> None:
        self.messages_received += 1
        self.bytes_received += size


class Network:
    """Message fabric: delivers node-to-node messages after latency.

    Parameters
    ----------
    sim:
        The event loop that delivery events are scheduled on.
    matrix:
        Ground-truth RTTs; a message from ``a`` to ``b`` arrives after
        ``matrix.one_way(a, b)`` milliseconds.
    """

    def __init__(self, sim: Simulator, matrix: LatencyMatrix,
                 bandwidth: BandwidthModel | None = None) -> None:
        self.sim = sim
        self.matrix = matrix
        self.bandwidth = bandwidth
        self.nodes: dict[int, "Node"] = {}
        self.stats = TrafficStats()
        self.per_node: dict[int, TrafficStats] = {}
        self.per_kind_bytes: dict[str, int] = {}
        self._down: set[int] = set()
        #: Directed links currently cut by a partition: (sender, recipient).
        self._blocked: set[tuple[int, int]] = set()
        #: Directed per-link drop probability (flaky links).
        self._loss: dict[tuple[int, int], float] = {}
        #: Monotone fault-state version: bumped by every node/link state
        #: mutation.  Consumers (the batched engine's route cache) use it
        #: to know whether any reachability/reliability answer could have
        #: changed since they last looked, without re-deriving the full
        #: fault state.
        self.state_epoch = 0
        self.messages_dropped = 0

    def register(self, node: "Node") -> None:
        """Attach ``node``; its id must index into the latency matrix."""
        if not 0 <= node.node_id < self.matrix.n:
            raise ValueError(
                f"node id {node.node_id} outside matrix of size {self.matrix.n}"
            )
        if node.node_id in self.nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        self.nodes[node.node_id] = node
        self.per_node[node.node_id] = TrafficStats()

    def send(self, message: Message, scope: Hashable = None) -> None:
        """Ship ``message``; the recipient's handler fires after delay.

        Messages from a down sender are silently dropped (a crashed node
        cannot transmit); messages to a down recipient are dropped at
        delivery time, so a node crashing mid-flight still loses them.
        ``scope`` is the delivery event's (see :mod:`repro.sim.events`):
        the placement unit whose control traffic this is, or ``None``.
        """
        if message.recipient not in self.nodes:
            raise KeyError(f"unknown recipient {message.recipient}")
        registry = obs.get_registry()
        if message.sender in self._down:
            self.messages_dropped += 1
            return
        link = (message.sender, message.recipient)
        if link in self._blocked:
            self.messages_dropped += 1
            if registry.enabled:
                registry.counter("net.messages_blocked").inc()
            return
        loss = self._loss.get(link)
        if loss is not None and self.sim.rng("net.loss").random() < loss:
            self.messages_dropped += 1
            if registry.enabled:
                registry.counter("net.messages_lost").inc()
            return
        if registry.enabled:
            registry.counter("net.messages_sent").inc()
            registry.counter("net.bytes_sent").inc(message.size_bytes)
        self.stats.record_send(message.size_bytes)
        self.per_node[message.sender].record_send(message.size_bytes)
        self.per_kind_bytes[message.kind] = (
            self.per_kind_bytes.get(message.kind, 0) + message.size_bytes
        )
        delay = self.matrix.one_way(message.sender, message.recipient)
        if self.bandwidth is not None:
            rtt = self.matrix.latency(message.sender, message.recipient)
            delay += self.bandwidth.transfer_ms(rtt, message.size_bytes)
        # Read request/reply deliveries are *inert*: handling them only
        # touches order-tolerant sinks (buffered summary folds, the
        # time-sorted access log, integer counters), so they do not end
        # a batched data plane's bulk window.  Write and control-plane
        # deliveries mutate versions/placement and stay barriers.
        self.sim.schedule(delay, self._deliver, message,
                          inert=message.kind in ("read-req", "read-rep"),
                          scope=scope)

    def _deliver(self, message: Message) -> None:
        node = self.nodes.get(message.recipient)
        if node is None:  # node retired while the message was in flight
            return
        if message.recipient in self._down:
            self.messages_dropped += 1
            return
        if (message.sender, message.recipient) in self._blocked:
            # The link was cut while the message was in flight.
            self.messages_dropped += 1
            return
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("net.messages_delivered").inc()
            registry.histogram("net.delivery_delay_ms").observe(
                self.sim.now - message.sent_at)
        self.stats.record_receive(message.size_bytes)
        self.per_node[message.recipient].record_receive(message.size_bytes)
        node.handle_message(message)

    def rtt(self, a: int, b: int) -> float:
        """Ground-truth round-trip time between two nodes."""
        return self.matrix.latency(a, b)

    def link_reliable(self, a: int, b: int) -> bool:
        """Whether ``a -> b`` delivers deterministically, no RNG draws.

        True iff the directed link is uncut *and* has no loss entry.  A
        configured loss probability of 0.0 still consumes a
        ``"net.loss"`` draw per message, so the batched engine must
        treat such links as non-bulkable to keep RNG streams aligned.
        """
        link = (a, b)
        return link not in self._blocked and link not in self._loss

    # ------------------------------------------------------------------
    # Bulk traffic accounting (batched data-plane engine)
    # ------------------------------------------------------------------
    def account_bulk_sends(self, kind: str, senders: np.ndarray,
                           sizes: np.ndarray) -> None:
        """Apply :meth:`send`-side accounting for a block of messages.

        The caller guarantees every message would have left cleanly
        (sender up, link uncut and loss-free).  Counter increments are
        integer-valued, so folding a block at once matches the scalar
        per-message path exactly.
        """
        count = senders.size
        if count == 0:
            return
        total = int(sizes.sum())
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("net.messages_sent").inc(count)
            registry.counter("net.bytes_sent").inc(total)
        self.stats.messages_sent += count
        self.stats.bytes_sent += total
        self.per_kind_bytes[kind] = self.per_kind_bytes.get(kind, 0) + total
        per_sender = np.bincount(senders, weights=sizes)
        uniq, counts = np.unique(senders, return_counts=True)
        for node, n in zip(uniq.tolist(), counts.tolist()):
            stats = self.per_node[node]
            stats.messages_sent += int(n)
            stats.bytes_sent += int(per_sender[node])

    def account_bulk_deliveries(self, recipients: np.ndarray,
                                sizes: np.ndarray,
                                delays: np.ndarray) -> None:
        """Apply :meth:`_deliver`-side accounting for a message block.

        ``delays`` must be the per-message ``arrival - sent_at`` values
        the scalar path would observe.
        """
        count = recipients.size
        if count == 0:
            return
        total = int(sizes.sum())
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("net.messages_delivered").inc(count)
            registry.histogram("net.delivery_delay_ms").observe_many(delays)
        self.stats.messages_received += count
        self.stats.bytes_received += total
        per_recipient = np.bincount(recipients, weights=sizes)
        uniq, counts = np.unique(recipients, return_counts=True)
        for node, n in zip(uniq.tolist(), counts.tolist()):
            stats = self.per_node[node]
            stats.messages_received += int(n)
            stats.bytes_received += int(per_recipient[node])

    # ------------------------------------------------------------------
    # Liveness (driven by repro.sim.failures.FailureInjector)
    # ------------------------------------------------------------------
    def is_up(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently able to send/receive."""
        return node_id not in self._down

    def set_down(self, node_id: int) -> None:
        """Mark a node crashed; its traffic is dropped until set_up."""
        self.state_epoch += 1
        self._down.add(node_id)

    def set_up(self, node_id: int) -> None:
        """Mark a node recovered."""
        self.state_epoch += 1
        self._down.discard(node_id)

    # ------------------------------------------------------------------
    # Link state (partitions and asymmetric loss)
    # ------------------------------------------------------------------
    def set_link_down(self, a: int, b: int, symmetric: bool = True) -> None:
        """Cut the ``a -> b`` link (and ``b -> a`` when symmetric)."""
        self.state_epoch += 1
        self._blocked.add((a, b))
        if symmetric:
            self._blocked.add((b, a))

    def set_link_up(self, a: int, b: int, symmetric: bool = True) -> None:
        """Restore the ``a -> b`` link (and ``b -> a`` when symmetric)."""
        self.state_epoch += 1
        self._blocked.discard((a, b))
        if symmetric:
            self._blocked.discard((b, a))

    def link_up(self, a: int, b: int) -> bool:
        """Whether the directed link ``a -> b`` is currently uncut."""
        return (a, b) not in self._blocked

    def can_reach(self, a: int, b: int) -> bool:
        """Whether a message from ``a`` can currently arrive at ``b``.

        True iff both endpoints are up and the directed link is uncut.
        (The overlay is a full mesh — messages are never relayed through
        intermediate nodes, so reachability is a single-link question.)
        Flaky-link loss is probabilistic and deliberately *not* part of
        this check: a lossy link is reachable, just unreliable.
        """
        return (self.is_up(a) and self.is_up(b)
                and (a, b) not in self._blocked)

    def set_link_loss(self, a: int, b: int, probability: float,
                      symmetric: bool = False) -> None:
        """Drop each ``a -> b`` message with ``probability``.

        Asymmetric by default — real wide-area loss frequently is.  The
        drop draws come from the simulator's ``"net.loss"`` RNG stream,
        so runs stay deterministic; with no flaky links configured no
        randomness is consumed at all.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must lie in [0, 1]")
        self.state_epoch += 1
        self._loss[(a, b)] = probability
        if symmetric:
            self._loss[(b, a)] = probability

    def clear_link_loss(self, a: int, b: int, symmetric: bool = False) -> None:
        """Make the ``a -> b`` link reliable again."""
        self.state_epoch += 1
        self._loss.pop((a, b), None)
        if symmetric:
            self._loss.pop((b, a), None)


class Node:
    """Base class for simulated nodes.

    Subclasses override :meth:`handle_message`.  ``node_id`` doubles as
    the row index into the network's latency matrix.
    """

    def __init__(self, network: Network, node_id: int) -> None:
        self.network = network
        self.node_id = node_id
        network.register(self)

    @property
    def sim(self) -> Simulator:
        """The simulator this node runs on."""
        return self.network.sim

    def send(self, recipient: int, kind: str, payload: Any = None,
             size_bytes: int = 0, scope: Hashable = None) -> None:
        """Send a message; it arrives after the one-way network delay."""
        self.network.send(Message(
            sender=self.node_id,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            sent_at=self.sim.now,
        ), scope)

    def handle_message(self, message: Message) -> None:
        """Process a delivered message (override in subclasses)."""
        raise NotImplementedError
