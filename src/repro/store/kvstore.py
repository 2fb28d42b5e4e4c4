"""The replicated store: servers, clients and the placement control loop.

See :mod:`repro.store` for the overview.  All latency behaviour comes
from the simulator's message fabric; this module adds the storage
protocol on top:

========================  ==========================================
message kind              meaning
========================  ==========================================
``read-req``              client -> server: read an object
``read-rep``              server -> client: object payload
``write-req``             client -> server: update an object
``write-ack``             server -> client: write accepted
``replicate``             server -> server: full replica transfer
                          (update propagation, migration or repair)
``summary``               server -> coordinator: micro-cluster summary
========================  ==========================================

Placement operates on **placement units**: a unit is either a single
object or an *object group* — the paper's Section II-A "virtual object
that represents all the objects of the group".  Every member of a unit
shares one replica set, one access summary, one controller and one
migration decision; accesses to any member inform the shared summary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.core.controller import (
    ControllerConfig,
    EpochReport,
    ReplicationController,
)
from repro.core.migration import MigrationCostModel, MigrationPolicy, RetryPolicy
from repro.net.bandwidth import BandwidthModel
from repro.net.domains import FailureDomains
from repro.sim.node import Message, Network, Node
from repro.sim.process import PeriodicProcess
from repro.sim.simulator import Simulator
from repro.store.consistency import ConsistencyConfig, QuorumError
from repro.store.objects import AccessLog, AccessRecord, DataObject
from repro.store.queueing import QueueingConfig, ServerQueue
from repro.store.selection import SelectionStrategy, make_strategy

__all__ = ["StorageServer", "StorageClient", "ReplicatedStore"]

#: Bytes of a read/write request (key + client coordinates + header).
REQUEST_BYTES = 256


class StorageServer(Node):
    """A data-center server that can hold replicas of objects."""

    def __init__(self, store: "ReplicatedStore", node_id: int) -> None:
        super().__init__(store.network, node_id)
        self.store = store
        #: object key -> stored version.
        self.replicas: dict[str, int] = {}
        #: FIFO service queue (inert unless the store configures
        #: queueing; reads then wait behind earlier admitted work).
        self.queue = ServerQueue()

    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        handler = {
            "read-req": self._on_read,
            "write-req": self._on_write,
            "replicate": self._on_replicate,
            "summary": self._on_summary,
        }.get(message.kind)
        if handler is None:
            raise ValueError(f"server got unexpected message {message.kind!r}")
        handler(message)

    def _forward(self, message: Message) -> None:
        """Replica gone: forward the request to a current site.

        The extra server-to-server hop costs real latency, which is the
        honest price of catching a replica mid-retirement.
        """
        key = message.payload["key"]
        try:
            sites = self.store.installed_sites(key)
        except KeyError:
            return  # object deleted while the request was in flight
        if not sites:
            return  # object fully retired; the request is lost
        target = self.store._rank_sites(self.node_id, sites)[0]
        self.send(target, message.kind, payload=message.payload,
                  size_bytes=message.size_bytes)

    def _on_read(self, message: Message) -> None:
        key = message.payload["key"]
        if key not in self.replicas:
            self._forward(message)
            return
        now = finish = self.sim.now
        queueing = self.store.queueing
        if queueing is not None and queueing.active:
            # Inactive configs never get here — the certified fast path:
            # identical to the pre-queueing store, byte for byte (no
            # counters, no RNG, no events).
            service = queueing.sample_service(self.sim)
            finish = self.queue.admit(now, service, queueing.queue_capacity)
            if finish is None:
                # Queue full: the request is dropped.  The client sees
                # it exactly like a lost message — its read timeout (if
                # configured) fires and retries another replica.
                self.store._count("queue_rejections")
                return
        # The server snapshots the object and accounts the access at
        # admission; the reply departs when the service completes.
        version = self.replicas[key]
        size_bytes = self.store.object(key).read_size_bytes
        self.store._record_server_access(self.node_id, key,
                                         message.payload["coords"],
                                         size_bytes, kind="read")
        reply = (message.payload["client"], "read-rep",
                 {"key": key, "version": version,
                  "request_id": message.payload["request_id"]}, size_bytes)
        if finish <= now:
            self.send(*reply)
        else:
            self.sim.schedule_at(finish, self.send, *reply, inert=True)

    def _on_write(self, message: Message) -> None:
        key = message.payload["key"]
        if key not in self.replicas:
            self._forward(message)
            return
        version = self.store._next_version(key)
        self.replicas[key] = max(self.replicas[key], version)
        self.store._record_server_access(self.node_id, key,
                                         message.payload["coords"],
                                         REQUEST_BYTES, kind="write")
        self.send(message.payload["client"], "write-ack",
                  payload={"key": key, "version": version,
                           "request_id": message.payload["request_id"]},
                  size_bytes=REQUEST_BYTES)
        config = self.store.consistency
        if config.propagate_updates:
            self.sim.schedule(config.propagation_delay_ms,
                              self._propagate, key, version)

    def _propagate(self, key: str, version: int) -> None:
        obj = self.store.object(key)
        for peer in self.store.installed_sites(key):
            if peer != self.node_id:
                self.send(peer, "replicate",
                          payload={"versions": {key: version},
                                   "unit": self.store._unit_key_of(key),
                                   "reason": "update"},
                          size_bytes=obj.size_bytes)

    def _on_replicate(self, message: Message) -> None:
        """Install (or refresh) replicas of one placement unit.

        ``versions`` maps every transferred member key to its version;
        a migration or repair moves the whole unit in one transfer.
        """
        versions: Mapping[str, int] = message.payload["versions"]
        for key, version in versions.items():
            self.replicas[key] = max(self.replicas.get(key, -1), version)
        reason = message.payload.get("reason")
        unit_key = message.payload["unit"]
        unit = self.store._units.get(unit_key)
        if unit is None:
            # The unit was deleted while the transfer was in flight;
            # discard the stray replica data.
            for key in versions:
                self.replicas.pop(key, None)
            return
        unit.version += 1
        if reason == "migration":
            self.store._migration_transfer_done(unit_key, self.node_id)
        elif reason == "repair":
            self.store._repair_transfer_done(unit_key, self.node_id)

    def _on_summary(self, message: Message) -> None:
        # Summaries terminate at the coordinator; the controller already
        # consumed their content synchronously — this message exists so
        # the control-plane traffic is charged to the network.  Its
        # arrival doubles as the delivery acknowledgement the retry
        # machinery waits for.
        self.store._summary_received(message.payload["unit"], message.sender,
                                     message.payload.get("shipment"))

    # ------------------------------------------------------------------
    def install(self, key: str, version: int) -> None:
        """Place a replica directly (initial placement, no transfer)."""
        self.store._unit_of_key(key).version += 1
        self.replicas[key] = version

    def drop(self, key: str) -> None:
        """Discard a replica."""
        self.store._unit_of_key(key).version += 1
        self.replicas.pop(key, None)

    def holds_unit(self, unit: "_PlacementUnit") -> bool:
        """Whether this server holds every member of ``unit``."""
        return all(key in self.replicas for key in unit.members)


@dataclass
class _PendingRead:
    key: str
    issued_at: float
    expected: int
    #: Latest committed version when the read was issued; a read is
    #: *stale* if it returns anything older (reads racing with writes
    #: that commit mid-flight are not penalised).
    latest_at_issue: int
    versions: list[int] = field(default_factory=list)
    servers: list[int] = field(default_factory=list)
    attempts: int = 1
    tried: set[int] = field(default_factory=set)
    timeout_event: object = None
    #: Server -> issue time of the leg still awaiting a reply; feeds
    #: the selection strategy's pending counts and latency trackers.
    outstanding: dict[int, float] = field(default_factory=dict)


class StorageClient(Node):
    """A user client issuing reads and writes against the store."""

    def __init__(self, store: "ReplicatedStore", node_id: int) -> None:
        super().__init__(store.network, node_id)
        self.store = store
        self._request_ids = itertools.count()
        self._pending_reads: dict[int, _PendingRead] = {}
        self._pending_writes: dict[int, tuple[str, float]] = {}

    # ------------------------------------------------------------------
    # Issuing operations
    # ------------------------------------------------------------------
    def read(self, key: str) -> None:
        """Read ``key`` from the closest replica(s) (quorum-aware).

        With the store's ``read_timeout_ms`` configured, an unanswered
        read is retried against the next-closest untried replica — the
        paper's "users may have time to access a second or more
        replicas if they cannot access the first" scenario.  The total
        logged delay includes the time lost waiting on dead replicas.
        """
        self._start_read(key, self.sim.now,
                         self.store.route_read(self.node_id, key))

    def materialize_read(self, key: str, issued_at: float,
                         targets: Sequence[int],
                         delays: Sequence[float]) -> int:
        """Batched-engine hook: register an already-sent read.

        The engine bulk-accounted the request legs as cleanly sent at
        ``issued_at``; this schedules their deliveries (after the given
        per-leg one-way ``delays``) and the retry timeout exactly as
        :meth:`read` would have, so replies, retries and timeouts run
        through the untouched per-event machinery.
        """
        return self._start_read(key, issued_at, targets, sent=delays)

    def _start_read(self, key: str, issued_at: float,
                    targets: Sequence[int],
                    sent: Sequence[float] | None = None) -> int:
        request_id = next(self._request_ids)
        pending = _PendingRead(
            key=key, issued_at=issued_at, expected=len(targets),
            latest_at_issue=self.store.latest_version(key))
        self._pending_reads[request_id] = pending
        self._issue_read(request_id, pending, targets, sent)
        return request_id

    def _issue_read(self, request_id: int, pending: _PendingRead,
                    targets: Sequence[int],
                    sent: Sequence[float] | None = None) -> None:
        """Issue one round of request legs and arm the retry timeout.

        ``sent`` marks legs already accounted as sent at
        ``pending.issued_at`` (one one-way delay per target): their
        deliveries are scheduled directly instead of going through
        :meth:`send`, and the timeout counts from the issue time.
        """
        now = self.sim.now if sent is None else pending.issued_at
        coords = self.store.planar_coords_of(self.node_id)
        pending.tried.update(targets)
        strategy = self.store.strategy
        for leg, server in enumerate(targets):
            pending.outstanding[server] = now
            strategy.note_issued(self.node_id, server)
            payload = {"key": pending.key, "request_id": request_id,
                       "coords": coords, "client": self.node_id}
            if sent is None:
                self.send(server, "read-req", payload=payload,
                          size_bytes=REQUEST_BYTES)
            else:
                self.sim.schedule_at(
                    now + sent[leg], self.network._deliver, Message(
                        sender=self.node_id, recipient=server,
                        kind="read-req", payload=payload,
                        size_bytes=REQUEST_BYTES, sent_at=now),
                    inert=True)
        if self.store.read_timeout_ms is not None:
            # Inert: a retry only re-runs the (inert) read machinery or
            # logs a failure — both land in order-tolerant sinks.
            pending.timeout_event = self.sim.schedule_at(
                now + self.store.read_timeout_ms, self._on_read_timeout,
                request_id, inert=True)

    def _on_read_timeout(self, request_id: int) -> None:
        pending = self._pending_reads.get(request_id)
        if pending is None:
            return  # completed in the meantime
        pending.timeout_event = None
        try:
            sites = self.store.installed_sites(pending.key)
        except KeyError:
            sites = ()  # object deleted: the read can only fail now
        untried = [s for s in self.store._rank_sites(self.node_id, sites)
                   if s not in pending.tried]
        missing = pending.expected - len(pending.versions)
        if (pending.attempts >= self.store.max_read_attempts
                or not untried):
            del self._pending_reads[request_id]
            if pending.outstanding:
                self.store.strategy.note_failure(
                    self.node_id, sorted(pending.outstanding))
                pending.outstanding.clear()
            self.store._count("failed_reads", "store.read_timeouts")
            self.store.log.append(AccessRecord(
                time=self.sim.now, client=self.node_id, server=-1,
                key=pending.key, delay_ms=self.sim.now - pending.issued_at,
                kind="read-timeout"))
            return
        pending.attempts += 1
        # Only the missing quorum members are re-requested.
        self._issue_read(request_id, pending, untried[:max(missing, 1)])

    def write(self, key: str) -> None:
        """Update ``key`` at the closest replica."""
        target = self.store.route_write(self.node_id, key)
        request_id = next(self._request_ids)
        self._pending_writes[request_id] = (key, self.sim.now)
        self.send(target, "write-req",
                  payload={"key": key, "request_id": request_id,
                           "coords": self.store.planar_coords_of(self.node_id),
                           "client": self.node_id},
                  size_bytes=REQUEST_BYTES)

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.kind == "read-rep":
            self._on_read_reply(message)
        elif message.kind == "write-ack":
            self._on_write_ack(message)
        else:
            raise ValueError(f"client got unexpected message {message.kind!r}")

    def _on_read_reply(self, message: Message) -> None:
        request_id = message.payload["request_id"]
        pending = self._pending_reads.get(request_id)
        if pending is None:
            return
        leg_issued = pending.outstanding.pop(message.sender, None)
        if leg_issued is not None:
            self.store.strategy.note_reply(
                self.node_id, message.sender, self.sim.now - leg_issued)
        pending.versions.append(message.payload["version"])
        pending.servers.append(message.sender)
        if len(pending.versions) < pending.expected:
            return
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        del self._pending_reads[request_id]
        if pending.outstanding:
            # Quorum satisfied with legs still in flight (a retry raced
            # a slow original); release their pending counts — a late
            # reply finds no pending read and is ignored.
            self.store.strategy.note_failure(
                self.node_id, sorted(pending.outstanding))
            pending.outstanding.clear()
        version = max(pending.versions)
        freshest_server = pending.servers[int(np.argmax(pending.versions))]
        delay = self.sim.now - pending.issued_at
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("accesses.served").inc()
            registry.counter("store.reads").inc()
            registry.histogram("access.delay_ms").observe(delay)
            obs.get_tracer().record(
                obs.ACCESS_SERVED, time=self.sim.now, op="read",
                client=self.node_id, server=freshest_server,
                key=pending.key, delay_ms=delay)
        self.store.log.append(AccessRecord(
            time=self.sim.now, client=self.node_id, server=freshest_server,
            key=pending.key, delay_ms=delay, kind="read", version=version,
            stale=version < pending.latest_at_issue,
        ))

    def _on_write_ack(self, message: Message) -> None:
        request_id = message.payload["request_id"]
        pending = self._pending_writes.pop(request_id, None)
        if pending is None:
            return
        key, issued_at = pending
        delay = self.sim.now - issued_at
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("accesses.served").inc()
            registry.counter("store.writes").inc()
            registry.histogram("access.delay_ms").observe(delay)
            obs.get_tracer().record(
                obs.ACCESS_SERVED, time=self.sim.now, op="write",
                client=self.node_id, server=message.sender,
                key=key, delay_ms=delay)
        self.store.log.append(AccessRecord(
            time=self.sim.now, client=self.node_id, server=message.sender,
            key=key, delay_ms=delay, kind="write",
            version=message.payload["version"],
        ))


@dataclass
class _PendingShipment:
    """Retry state of one in-flight transfer or summary shipment."""

    attempts: int = 1
    size_bytes: int = 0
    timeout_event: object = None
    #: Matches acknowledgements to this shipment (summaries only): a
    #: delayed copy from a superseded epoch must not ack a later one.
    shipment_id: int = 0


class _RetryLoop(NamedTuple):
    """What tells one timeout -> back off -> resend loop from another."""

    pending_of: Callable  # unit -> its live {key: _PendingShipment} map
    counter: str          # store counter bumped per retry (see ``_count``)
    resend: Callable      # (unit, key, pending) -> None
    give_up: Callable     # (unit, key) -> None: attempt budget exhausted


@dataclass
class _PlacementUnit:
    """One independently placed replica set: an object or a group."""

    unit_key: str
    members: dict[str, DataObject]
    controller: ReplicationController
    installed: set[int]            # node ids currently serving reads
    target: set[int] | None = None       # node ids of an in-flight migration
    awaiting: set[int] = field(default_factory=set)  # pending transfers
    latest: dict[str, int] = field(default_factory=dict)
    epoch_process: PeriodicProcess | None = None
    epoch_reports: list[EpochReport] = field(default_factory=list)
    #: Per-unit default coordinator (a sharded catalog homes each shard's
    #: units on that shard's coordinator); ``None`` falls back to the
    #: store-wide default (the first candidate).
    home: int | None = None
    #: Retry bookkeeping (only populated when a RetryPolicy is set).
    pending_transfers: dict[int, _PendingShipment] = field(default_factory=dict)
    pending_summaries: dict[int, _PendingShipment] = field(default_factory=dict)
    abandoned: set[int] = field(default_factory=set)
    #: Deferred summary folds: tuples of
    #: ``(time(s), position, coords, weight(s), kind)`` where the first,
    #: third and fourth fields may be scalars (one access, recorded by a
    #: real event) or arrays (a batched engine's bulk window).  Flushed
    #: — stably sorted by access time, per position and summary stream —
    #: before any summary observation or mutation.
    fold_buffer: list = field(default_factory=list)
    #: Bumped whenever a member's replica on any server, the installed
    #: set or a member's latest version changes: with
    #: ``network.state_epoch``, what tells the batched engine its cached
    #: routes and versions for this unit still hold.
    version: int = 0

    @property
    def total_size_gb(self) -> float:
        return sum(obj.size_gb for obj in self.members.values())

    @property
    def total_size_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self.members.values())

    def current_versions(self, server: StorageServer) -> dict[str, int]:
        return {key: server.replicas.get(key, 0) for key in self.members}


class ReplicatedStore:
    """Catalog, routing and placement control for replicated objects.

    Parameters
    ----------
    sim / matrix:
        Simulator and ground-truth RTTs.
    candidates:
        Node ids usable as data centers; a :class:`StorageServer` is
        created on each.
    coords:
        Planar network coordinates for routing and clustering: a static
        ``(n, d)`` array or any object with a ``planar_coords()`` method
        (e.g. :class:`~repro.sim.gossip.CoordinateGossip`), re-read at
        every routing decision so live coordinates are honoured.
    selection:
        ``"coords"`` routes reads with coordinate predictions (the
        deployable mode); ``"oracle"`` uses true RTTs (the paper's
        closest-replica assumption for its figures).
    consistency:
        Read-quorum / update-propagation configuration.
    bandwidth:
        Optional :class:`~repro.net.bandwidth.BandwidthModel`: payload
        bytes then add serialization time to every delivery (replica
        transfers become slow, reads barely change).
    read_timeout_ms / max_read_attempts:
        Enable client-side read failover: an unanswered read retries
        the next-closest replica, up to the attempt budget.
    auto_repair / repair_period_ms:
        Enable the availability monitor: dead replicas are dropped from
        the read set, recovered durable replicas rejoin, and lost
        redundancy is re-replicated from surviving copies.
    retry_policy:
        Optional :class:`~repro.core.migration.RetryPolicy`.  When set,
        migration transfers and summary shipments are retried on timeout
        with exponential backoff + jitter (drawn from the simulator's
        ``"retry-jitter"`` stream), and a migration whose transfer
        exhausts the budget is rolled back without shedding replicas.
        ``None`` (the default) preserves the fire-and-forget behaviour.
    queueing:
        Optional :class:`~repro.store.queueing.QueueingConfig`: reads
        occupy their server for a sampled service time and wait FIFO
        behind earlier admitted work; with a ``queue_capacity``,
        arrivals beyond it are dropped (counted in
        ``queue_rejections``).  ``None`` — or a config whose service
        time is identically zero with an unbounded queue — keeps the
        certified uncontended path, byte for byte.
    strategy:
        Replica selection policy: ``"nearest"`` (the default, bitwise
        today's behaviour), ``"least-pending"``, ``"c3"``, or any
        :class:`~repro.store.selection.SelectionStrategy` instance.
        Orthogonal to ``selection``, which picks the *distance oracle*
        (true RTTs vs. coordinate estimates) the strategy ranks with.
    """

    def __init__(self, sim: Simulator, matrix, candidates: Sequence[int],
                 coords, selection: str = "coords",
                 consistency: ConsistencyConfig | None = None,
                 bandwidth: BandwidthModel | None = None,
                 read_timeout_ms: float | None = None,
                 max_read_attempts: int = 3,
                 auto_repair: bool = False,
                 repair_period_ms: float = 5_000.0,
                 retry_policy: RetryPolicy | None = None,
                 domains: "FailureDomains | None" = None,
                 queueing: QueueingConfig | None = None,
                 strategy: "SelectionStrategy | str" = "nearest") -> None:
        if selection not in ("coords", "oracle"):
            raise ValueError("selection must be 'coords' or 'oracle'")
        if read_timeout_ms is not None and read_timeout_ms <= 0:
            raise ValueError("read timeout must be positive")
        if max_read_attempts < 1:
            raise ValueError("need at least one read attempt")
        if repair_period_ms <= 0:
            raise ValueError("repair period must be positive")
        self.sim = sim
        self.network = Network(sim, matrix, bandwidth=bandwidth)
        self.read_timeout_ms = read_timeout_ms
        self.max_read_attempts = max_read_attempts
        self.auto_repair = auto_repair
        self.retry_policy = retry_policy
        if queueing is not None and not isinstance(queueing, QueueingConfig):
            raise ValueError("queueing must be a QueueingConfig or None")
        self.queueing = queueing
        self.strategy = make_strategy(strategy)
        self.queue_rejections = 0
        self.failed_reads = 0
        self.repairs = 0
        self.migration_retries = 0
        self.migrations_abandoned = 0
        self.migration_rollbacks = 0
        self.summary_retries = 0
        self.summaries_lost = 0
        self._shipment_ids = itertools.count(1)
        self._transfer_retries = _RetryLoop(
            # A settled migration has nothing left to retry.
            lambda unit: (unit.pending_transfers if unit.target is not None
                          else {}),
            "migration_retries",
            lambda unit, target, _: self._send_transfer(unit, target),
            self._abandon_transfer)
        self.candidates = tuple(int(c) for c in candidates)
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidate node ids must be distinct")
        #: Node id -> candidate position, the inverse of ``candidates``.
        #: Every hot path that needs a position uses this map instead of
        #: an O(n) ``candidates.index`` scan.
        self._position_of = {node: position for position, node
                             in enumerate(self.candidates)}
        self.domains = domains
        if domains is not None and domains.n != len(self.candidates):
            raise ValueError(
                f"domains annotate {domains.n} positions but there are "
                f"{len(self.candidates)} candidates")
        self._coords = coords
        self.selection = selection
        self.consistency = consistency or ConsistencyConfig()
        self.log = AccessLog()
        self.servers: dict[int, StorageServer] = {
            node_id: StorageServer(self, node_id) for node_id in self.candidates
        }
        self.clients: dict[int, StorageClient] = {}
        self._units: dict[str, _PlacementUnit] = {}
        self._unit_of: dict[str, str] = {}   # member key -> unit key
        #: Coordinator for summary traffic: the first candidate.
        self.coordinator = self.candidates[0]
        # Stamp spans (including micro-cluster events emitted deep in
        # the clustering layer) with this simulation's clock.
        obs.get_tracer().bind_clock(lambda: self.sim.now)
        if auto_repair:
            PeriodicProcess(sim, repair_period_ms, self._check_availability)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_client(self, node_id: int) -> StorageClient:
        """Register a client node."""
        if node_id in self.clients:
            raise ValueError(f"client {node_id} already exists")
        client = StorageClient(self, node_id)
        self.clients[node_id] = client
        return client

    def planar_coords(self) -> np.ndarray:
        """Current planar coordinates of all matrix rows."""
        if hasattr(self._coords, "planar_coords"):
            return self._coords.planar_coords()
        return np.asarray(self._coords, dtype=float)

    def planar_coords_of(self, node_id: int) -> np.ndarray:
        """Current planar coordinates of one node."""
        return self.planar_coords()[node_id]

    # ------------------------------------------------------------------
    # Objects and groups
    # ------------------------------------------------------------------
    def create_object(self, key: str, size_gb: float = 1.0,
                      initial_sites: Sequence[int] | None = None,
                      k: int = 3, read_size_bytes: int = 64 * 1024,
                      controller_config: ControllerConfig | None = None,
                      cost_model: MigrationCostModel | None = None,
                      policy: MigrationPolicy | None = None,
                      epoch_period_ms: float | None = None,
                      home_coordinator: int | None = None) -> DataObject:
        """Create and place a single replicated object.

        ``initial_sites`` (node ids drawn from the candidates) defaults
        to ``k`` random candidates — the uninformed starting point from
        which the controller gradually migrates.  With
        ``epoch_period_ms`` set, a placement epoch runs periodically.
        ``home_coordinator`` pins the unit's default coordinator to a
        specific candidate (sharded catalogs home each shard's units on
        one node); ``None`` uses the store-wide default.
        """
        obj = DataObject(key, size_gb, read_size_bytes=read_size_bytes)
        self._create_unit(key, {key: obj}, initial_sites, k,
                          controller_config, cost_model, policy,
                          epoch_period_ms, home_coordinator)
        return obj

    def create_group(self, group_key: str,
                     members: Mapping[str, float] | Sequence[str],
                     initial_sites: Sequence[int] | None = None,
                     k: int = 3, read_size_bytes: int = 64 * 1024,
                     controller_config: ControllerConfig | None = None,
                     cost_model: MigrationCostModel | None = None,
                     policy: MigrationPolicy | None = None,
                     epoch_period_ms: float | None = None,
                     home_coordinator: int | None = None
                     ) -> list[DataObject]:
        """Create a *group* of objects placed as one virtual object.

        Section II-A: a placement solution "can be applied to a group of
        data objects by treating accesses to any object of the group as
        accesses to a virtual object".  All members share one replica
        set, one summary stream and one migration decision; transfers
        move the whole group (costed at the summed size).

        Parameters
        ----------
        members:
            Either a mapping ``key -> size_gb`` or a sequence of keys
            (each defaulting to 1 GB).
        """
        if not members:
            raise ValueError("a group needs at least one member")
        if isinstance(members, Mapping):
            sizes = {str(k): float(v) for k, v in members.items()}
        else:
            sizes = {str(k): 1.0 for k in members}
        objects = {
            key: DataObject(key, size, read_size_bytes=read_size_bytes)
            for key, size in sizes.items()
        }
        self._create_unit(group_key, objects, initial_sites, k,
                          controller_config, cost_model, policy,
                          epoch_period_ms, home_coordinator)
        return list(objects.values())

    def _create_unit(self, unit_key: str, members: dict[str, DataObject],
                     initial_sites: Sequence[int] | None, k: int,
                     controller_config: ControllerConfig | None,
                     cost_model: MigrationCostModel | None,
                     policy: MigrationPolicy | None,
                     epoch_period_ms: float | None,
                     home_coordinator: int | None = None) -> _PlacementUnit:
        if unit_key in self._units or unit_key in self._unit_of:
            raise ValueError(f"unit {unit_key!r} already exists")
        for key in members:
            if key in self._unit_of or (key != unit_key and key in self._units):
                raise ValueError(f"object {key!r} already exists")

        if initial_sites is None:
            rng = self.sim.rng("initial-placement")
            picks = rng.choice(len(self.candidates),
                               size=min(k, len(self.candidates)),
                               replace=False)
            initial_sites = [self.candidates[int(p)] for p in picks]
        initial_sites = [int(s) for s in initial_sites]
        for s in initial_sites:
            if s not in self.servers:
                raise ValueError(f"initial site {s} is not a candidate")
        if home_coordinator is not None and home_coordinator not in self.servers:
            raise ValueError(
                f"home coordinator {home_coordinator} is not a candidate")

        total_gb = sum(obj.size_gb for obj in members.values())
        config = controller_config or ControllerConfig(k=len(initial_sites))
        positions = [self._position_of[s] for s in initial_sites]
        dc_coords = self.planar_coords()[list(self.candidates)]
        controller = ReplicationController(
            dc_coords, positions, config,
            cost_model=cost_model or MigrationCostModel(object_size_gb=total_gb),
            policy=policy,
            on_migrate=lambda old, new, _unit=unit_key: self._execute_migration(
                _unit, old, new),
            domains=self.domains,
        )
        unit = _PlacementUnit(unit_key=unit_key, members=members,
                              controller=controller,
                              installed=set(initial_sites),
                              latest={key: 0 for key in members},
                              home=home_coordinator)
        self._units[unit_key] = unit
        for key in members:
            self._unit_of[key] = unit_key
        for site in initial_sites:
            for key in members:
                self.servers[site].install(key, version=0)
        if epoch_period_ms is not None:
            unit.epoch_process = PeriodicProcess(
                self.sim, epoch_period_ms,
                lambda _unit=unit_key: self.run_epoch(_unit), scope=unit_key)
        return unit

    def delete(self, unit_key: str) -> None:
        """Retire an object or group: drop every replica, stop its epochs.

        In-flight requests to the dropped replicas are lost (or time out
        and fail, if client retries are configured) — the same symptom a
        real deletion has.  Accepts the unit key (object key for single
        objects, group key for groups); deleting an individual *member*
        of a group is not supported, as the group is the placement unit.
        """
        unit = self._units.get(unit_key)
        if unit is None:
            if unit_key in self._unit_of:
                raise ValueError(
                    f"{unit_key!r} is a group member; delete the group "
                    f"{self._unit_of[unit_key]!r} instead")
            raise KeyError(f"unknown unit {unit_key!r}")
        self._flush_folds(unit)  # folds predate the deletion
        if unit.epoch_process is not None:
            unit.epoch_process.stop()
        for site in sorted(unit.installed | unit.awaiting):
            for key in unit.members:
                self.servers[site].drop(key)
        for key in unit.members:
            del self._unit_of[key]
        del self._units[unit_key]

    # ------------------------------------------------------------------
    # Catalog queries (accept an object key or a unit/group key)
    # ------------------------------------------------------------------
    def object(self, key: str) -> DataObject:
        """The :class:`DataObject` for member ``key``."""
        unit = self._unit_of_key(key)
        if key not in unit.members:
            raise KeyError(f"{key!r} is a group, not an object")
        return unit.members[key]

    def group_members(self, unit_key: str) -> tuple[str, ...]:
        """Member keys of a unit (a single object is its own member)."""
        return tuple(self._unit_of_key(unit_key).members)

    def unit_keys(self) -> tuple[str, ...]:
        """All placement-unit keys, in creation order."""
        return tuple(self._units)

    def adopt_epoch_process(self, unit_key: str,
                            process: PeriodicProcess) -> None:
        """Register an externally owned epoch clock with a unit.

        A sharded catalog schedules its own (staggered, budget-aware)
        epoch processes; registering them here lets :meth:`delete` stop
        the clock together with the unit.
        """
        unit = self._unit(unit_key)
        if unit.epoch_process is not None:
            raise ValueError(f"unit {unit_key!r} already has an epoch clock")
        unit.epoch_process = process

    def installed_sites(self, key: str) -> tuple[int, ...]:
        """Node ids currently serving reads for ``key``."""
        return tuple(sorted(self._unit_of_key(key).installed))

    def latest_version(self, key: str) -> int:
        """Highest version ever written to member ``key``."""
        return self._unit_of_key(key).latest[key]

    def epoch_reports(self, key: str) -> list[EpochReport]:
        """All placement-epoch reports for the unit owning ``key``."""
        return list(self._unit_of_key(key).epoch_reports)

    def controller(self, key: str) -> ReplicationController:
        """The placement controller of the unit owning ``key``.

        Flushes the unit's deferred summary folds stamped up to now
        first, so its summaries hold every access served so far.
        """
        unit = self._unit_of_key(key)
        self._flush_folds(unit)
        return unit.controller

    def _unit(self, unit_key: str) -> _PlacementUnit:
        unit = self._units.get(unit_key)
        if unit is None:
            raise KeyError(f"unknown unit {unit_key!r}")
        return unit

    def _unit_of_key(self, key: str) -> _PlacementUnit:
        unit_key = self._unit_of.get(key)
        if unit_key is None:
            if key in self._units:  # allow unit/group keys in queries
                return self._units[key]
            raise KeyError(f"unknown object {key!r}")
        return self._units[unit_key]

    def _unit_key_of(self, key: str) -> str:
        return self._unit_of.get(key, key)

    def _next_version(self, key: str) -> int:
        unit = self._unit_of_key(key)
        unit.version += 1
        unit.latest[key] += 1
        return unit.latest[key]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_read(self, client: int, key: str) -> list[int]:
        """Replica server(s) a read should contact (quorum-aware)."""
        sites = self.installed_sites(key)
        if not sites:
            raise QuorumError(f"object {key!r} has no installed replicas")
        quorum = min(self.consistency.read_quorum, len(sites))
        ranked = self._rank_sites(client, sites)
        return ranked[:quorum]

    def route_write(self, client: int, key: str) -> int:
        """The replica server a write is sent to (the closest)."""
        sites = self.installed_sites(key)
        if not sites:
            raise QuorumError(f"object {key!r} has no installed replicas")
        return self._rank_sites(client, sites)[0]

    def _rank_sites(self, client: int, sites: Sequence[int]) -> list[int]:
        return self.strategy.rank(client, sites, self)

    def _distance_keys(self, client: int, sites: Sequence[int]) -> list:
        """Distance key per site, under the configured oracle."""
        if self.selection == "oracle":
            return [self.network.matrix.latency(client, s) for s in sites]
        coords = self.planar_coords()
        return [float(np.linalg.norm(coords[client] - coords[s]))
                for s in sites]

    def _count(self, attr: str, metric: str | None = None) -> None:
        """Bump a store counter and its obs twin (``store.<attr>``)."""
        setattr(self, attr, getattr(self, attr) + 1)
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter(metric or "store." + attr).inc()

    def queue_stats(self) -> dict[str, int]:
        """Aggregate offered/accepted/rejected counts over all servers."""
        offered = accepted = rejected = 0
        for server in self.servers.values():
            queue = server.queue
            offered += queue.offered
            accepted += queue.accepted
            rejected += queue.rejected
        return {"offered": offered, "accepted": accepted,
                "rejected": rejected}

    # ------------------------------------------------------------------
    # Access recording (server-side hook into the controller)
    # ------------------------------------------------------------------
    def _record_server_access(self, server: int, key: str,
                              client_coords: np.ndarray,
                              bytes_exchanged: float,
                              kind: str = "read") -> None:
        """Buffer one served access for its unit's summaries.

        Folding is deferred: the buffer is applied — stably sorted by
        access time, grouped per site and summary stream — right before
        anything observes or mutates the summaries (:meth:`controller`,
        epochs, deletion, rollback, repair,
        :meth:`flush_pending_accesses`).  Deferral
        is *exact*: micro-cluster maintenance depends only on the fold
        order, which the sort reproduces (ties keep buffer insertion
        order, i.e. event order), not on how the stream is cut into
        blocks.
        """
        unit = self._unit_of_key(key)
        unit.fold_buffer.append((self.sim.now, self._position_of[server],
                                 client_coords, bytes_exchanged, kind))

    def flush_pending_accesses(self) -> None:
        """Apply every deferred summary fold, whatever its stamp (the
        run is over or a batched engine stopped)."""
        for unit in self._units.values():
            self._flush_folds(unit, math.inf)

    def _flush_folds(self, unit: _PlacementUnit,
                     until: float | None = None) -> None:
        """Fold the deferred accesses stamped at or before ``until``
        (default: now).  A flush from another unit's event can find bulk
        reads stamped later; they stay buffered, since every later
        append is stamped after now too."""
        buf = unit.fold_buffer
        if not buf:
            return
        until = self.sim.now if until is None else until
        unit.fold_buffer = []
        write_aware = unit.controller.config.write_aware
        # (position, stream) -> [time parts, coords parts, weight parts];
        # only write-aware controllers split streams by kind — otherwise
        # reads and writes fold into the same summary and must stay in
        # one merged time order.
        groups: dict[tuple[int, str], tuple[list, list, list]] = {}
        for when, position, coords, weights, kind in buf:
            stream = kind if write_aware else "read"
            parts = groups.setdefault((position, stream), ([], [], []))
            parts[0].append(np.atleast_1d(np.asarray(when, dtype=float)))
            parts[1].append(np.atleast_2d(np.asarray(coords, dtype=float)))
            parts[2].append(np.atleast_1d(np.asarray(weights, dtype=float)))
        for (position, stream), (tparts, cparts, wparts) in groups.items():
            times = np.concatenate(tparts)
            order = np.argsort(times, kind="stable")
            times = times[order]
            coords = np.vstack(cparts)[order]
            weights = np.concatenate(wparts)[order]
            due = int(np.searchsorted(times, until, side="right"))
            if due < times.size:
                unit.fold_buffer.append((times[due:], position, coords[due:],
                                         weights[due:], stream))
            if not due:
                continue
            try:
                unit.controller.record_batch(position, coords[:due],
                                             weights[:due], kind=stream)
            except KeyError:
                # The replica is being retired (or was just created by a
                # migration the controller already rolled over); its
                # traffic no longer informs placement.  The flush runs
                # before the summary site set changes, so this is the
                # set the access was served against.
                pass

    # ------------------------------------------------------------------
    # Coordinator election (failover protocol; see docs/chaos.md)
    # ------------------------------------------------------------------
    def current_coordinator(self, key: str) -> int:
        """The node id that would coordinate ``key``'s next epoch.

        Deterministic successor ranking: the unit's default coordinator
        (its home, or the store-wide first candidate) while it is
        viable, then the unit's replica holders in sorted order, then
        the remaining candidates.  A candidate is viable when it is up
        and at least one live replica holder can ship summaries to it.
        With every candidate down the default coordinator is returned
        (the epoch then degrades to "no reachable summaries").
        """
        unit = self._unit_of_key(key)
        default = unit.home if unit.home is not None else self.coordinator
        ranking = list(dict.fromkeys(
            [default] + sorted(unit.installed)
            + list(self.candidates)))
        live_holders = [s for s in sorted(unit.installed)
                        if self.network.is_up(s)]
        for site in ranking:
            if not self.network.is_up(site):
                continue
            if site in live_holders or any(
                    self.network.can_reach(h, site) for h in live_holders):
                return site
        return default

    # ------------------------------------------------------------------
    # Placement epochs and migration
    # ------------------------------------------------------------------
    def run_epoch(self, unit_key: str,
                  max_moves: int | None = None) -> EpochReport:
        """Run one placement epoch for a unit (Algorithm 1 + policy).

        The epoch runs at the elected coordinator: only summaries from
        replica sites that can currently reach it are pooled, and only
        candidates it can reach are eligible migration targets — a
        partition degrades the epoch instead of corrupting it.

        ``max_moves`` overrides the controller's ``max_epoch_moves``
        for this one epoch — a sharded catalog passes the remaining
        global migration budget here, ``0`` meaning "no new sites this
        epoch" (shrinks still go through).  ``None`` keeps the
        controller's own configuration.
        """
        unit = self._unit_of_key(unit_key)
        self._flush_folds(unit)  # the epoch pools the summaries next
        registry = obs.get_registry()
        # Refresh candidate coordinates: with live gossip they drift.
        unit.controller.dc_coords = self.planar_coords()[list(self.candidates)]
        coordinator = self.current_coordinator(unit_key)
        _, lease = unit.controller.elect_coordinator(
            [self._position_of[coordinator]])
        reachable = [self._position_of[s] for s in sorted(unit.installed)
                     if self.network.can_reach(s, coordinator)]
        eligible = [p for p, site in enumerate(self.candidates)
                    if self.network.can_reach(coordinator, site)
                    and self.network.can_reach(site, coordinator)]
        with registry.phase("store.epoch"):
            report = unit.controller.run_epoch(
                self.sim.rng(f"epoch-{unit.unit_key}"),
                reachable=reachable, eligible=eligible, lease=lease,
                max_moves=max_moves)
        if registry.enabled:
            registry.counter("store.epochs").inc()
        unit.epoch_reports.append(report)
        # Charge the summary shipping to the network.
        if report.summary_bytes > 0:
            shippers = (report.reachable_sites
                        if report.reachable_sites is not None
                        else report.previous_sites)
            per_site = max(
                report.summary_bytes // max(len(shippers), 1), 1)
            for position in shippers:
                site = self.candidates[position]
                if site != coordinator:
                    self._ship_summary(unit, site, coordinator, per_site)
        return report

    def _ship_summary(self, unit: _PlacementUnit, site: int,
                      coordinator: int, size_bytes: int) -> None:
        def send(unit, site, pending):
            self.servers[site].send(coordinator, "summary",
                                    payload={"unit": unit.unit_key,
                                             "shipment": pending.shipment_id},
                                    size_bytes=pending.size_bytes,
                                    scope=unit.unit_key)

        pending = _PendingShipment(size_bytes=size_bytes,
                                   shipment_id=next(self._shipment_ids))
        send(unit, site, pending)
        if self.retry_policy is None:
            return
        stale = unit.pending_summaries.pop(site, None)
        if stale is not None and stale.timeout_event is not None:
            stale.timeout_event.cancel()  # superseded by this epoch's copy
        unit.pending_summaries[site] = pending
        self._arm_retry(_RetryLoop(
            lambda unit: unit.pending_summaries, "summary_retries", send,
            lambda unit, site: self._count("summaries_lost")), unit, site)

    def _summary_received(self, unit_key: str, site: int,
                          shipment: int | None = None) -> None:
        unit = self._units.get(unit_key)
        if unit is None:
            return
        pending = unit.pending_summaries.get(site)
        if pending is None:
            return
        if shipment is not None and shipment != pending.shipment_id:
            # A delayed copy of an earlier, superseded shipment: the
            # current epoch's summary is still in flight — leaving the
            # pending entry armed keeps its loss observable.
            return
        del unit.pending_summaries[site]
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()

    # ------------------------------------------------------------------
    # The one retry state machine (summary shipments, replica transfers)
    # ------------------------------------------------------------------
    def _arm_retry(self, loop: _RetryLoop, unit: _PlacementUnit,
                   key: int) -> None:
        loop.pending_of(unit)[key].timeout_event = self.sim.schedule(
            self.retry_policy.timeout_ms, self._on_retry_timeout,
            loop, unit.unit_key, key, scope=unit.unit_key)

    def _retryable(self, loop: _RetryLoop, unit_key: str, key: int):
        """``(unit, pending)``; pending is ``None`` once the shipment was
        acknowledged, the unit deleted, or the loop has nothing live."""
        unit = self._units.get(unit_key)
        return unit, (None if unit is None
                      else loop.pending_of(unit).get(key))

    def _on_retry_timeout(self, loop: _RetryLoop, unit_key: str,
                          key: int) -> None:
        unit, pending = self._retryable(loop, unit_key, key)
        if pending is None:
            return
        pending.timeout_event = None
        if pending.attempts >= self.retry_policy.max_attempts:
            del loop.pending_of(unit)[key]
            loop.give_up(unit, key)
            return
        self._count(loop.counter)
        backoff = self.retry_policy.backoff_ms(
            pending.attempts, rng=self.sim.rng("retry-jitter"))
        pending.attempts += 1
        self.sim.schedule(backoff, self._resend, loop, unit_key, key,
                          scope=unit_key)

    def _resend(self, loop: _RetryLoop, unit_key: str, key: int) -> None:
        unit, pending = self._retryable(loop, unit_key, key)
        if pending is None:
            return  # acknowledged or completed while the backoff ran
        loop.resend(unit, key, pending)
        self._arm_retry(loop, unit, key)

    def _execute_migration(self, unit_key: str, old_positions: tuple[int, ...],
                           new_positions: tuple[int, ...]) -> None:
        """Move replicas: transfer to new sites, retire old ones after."""
        unit = self._unit(unit_key)
        new_sites = {self.candidates[p] for p in new_positions}
        unit.target = new_sites
        unit.awaiting = new_sites - unit.installed
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("store.migrations.started").inc()
            registry.counter("store.migration_bytes").inc(
                unit.total_size_bytes * len(unit.awaiting))
            obs.get_tracer().record(
                obs.MIGRATION_START, time=self.sim.now, unit=unit_key,
                sources=sorted(unit.installed), targets=sorted(new_sites),
                transfers=len(unit.awaiting))
        if not unit.awaiting:
            # Pure shrink (or reorder): retire immediately.
            self._finalize_migration(unit_key)
            return
        for target in sorted(unit.awaiting):
            self._send_transfer(unit, target)
            if self.retry_policy is not None:
                unit.pending_transfers[target] = _PendingShipment()
                self._arm_retry(self._transfer_retries, unit, target)

    def _send_transfer(self, unit: _PlacementUnit, target: int) -> None:
        """Ship the unit from the closest live holder to ``target``.

        Sources the target cannot be reached from are skipped when a
        reachable one exists, so a retry after a partial heal picks a
        working path; with none, the closest holder is used anyway and
        the network drops the message (the timeout then fires).
        """
        sources = sorted(unit.installed)
        usable = [s for s in sources if self.network.can_reach(s, target)]
        source = min(usable or sources,
                     key=lambda s: self.network.matrix.latency(s, target))
        self.servers[source].send(
            target, "replicate",
            payload={"versions": unit.current_versions(self.servers[source]),
                     "unit": unit.unit_key, "reason": "migration"},
            size_bytes=unit.total_size_bytes, scope=unit.unit_key)

    def _abandon_transfer(self, unit: _PlacementUnit, target: int) -> None:
        """Budget exhausted: abandon this target.  The finalize step
        rolls the placement back onto surviving sites."""
        unit.abandoned.add(target)
        unit.awaiting.discard(target)
        self._count("migrations_abandoned", "store.migrations.abandoned")
        if not unit.awaiting:
            self._finalize_migration(unit.unit_key)

    def _migration_transfer_done(self, unit_key: str, node_id: int) -> None:
        unit = self._unit(unit_key)
        pending = unit.pending_transfers.pop(node_id, None)
        if pending is not None and pending.timeout_event is not None:
            pending.timeout_event.cancel()
        if node_id in unit.abandoned:
            # A retried copy landed after the attempt budget ran out and
            # the rollback already excluded this site; drop the replica
            # rather than resurrect a half-abandoned migration.
            for key in unit.members:
                self.servers[node_id].drop(key)
            return
        if unit.target is None or node_id not in unit.target:
            # Straggler: a duplicate delivery (original + retry both got
            # through) arriving after the migration finalized, or a copy
            # addressed to a site no current migration targets.  The
            # placement already settled without it — re-finalizing here
            # would corrupt it, so keep the bytes only if the site ended
            # up holding the unit anyway.
            if node_id not in unit.installed:
                for key in unit.members:
                    self.servers[node_id].drop(key)
            return
        unit.awaiting.discard(node_id)
        # New replicas serve reads as soon as they are installed.
        unit.version += 1
        unit.installed.add(node_id)
        if not unit.awaiting:
            self._finalize_migration(unit_key)

    def _finalize_migration(self, unit_key: str) -> None:
        unit = self._unit(unit_key)
        self._flush_folds(unit)  # a rollback re-keys the summaries
        assert unit.target is not None
        final = set(unit.target)
        if unit.abandoned:
            # Roll back: abandoned targets never installed, so retain
            # the closest-numbered old sites instead — the degree of
            # replication is preserved through a failed migration.
            final -= unit.abandoned
            for site in sorted(unit.installed - final):
                if len(final) >= unit.controller.k:
                    break
                final.add(site)
            self.migration_rollbacks += 1
            registry = obs.get_registry()
            if registry.enabled:
                registry.counter("store.migration_rollbacks").inc()
                obs.get_tracer().record(
                    obs.MIGRATION_FINISH, time=self.sim.now, unit=unit_key,
                    sites=sorted(final), rolled_back=True,
                    abandoned=sorted(unit.abandoned))
        for site in sorted(unit.installed - final):
            for key in unit.members:
                self.servers[site].drop(key)
        unit.version += 1
        unit.installed = set(final)
        rolled_back = bool(unit.abandoned)
        unit.target = None
        unit.abandoned = set()
        if rolled_back:
            # The controller adopted the proposal optimistically when the
            # verdict fired; re-align it with what actually happened.
            unit.controller.sync_sites(
                [self._position_of[s] for s in sorted(unit.installed)])
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("store.migrations.finished").inc()
            if not rolled_back:
                obs.get_tracer().record(
                    obs.MIGRATION_FINISH, time=self.sim.now, unit=unit_key,
                    sites=sorted(unit.installed))

    # ------------------------------------------------------------------
    # Availability: failure handling and re-replication
    # ------------------------------------------------------------------
    def _check_availability(self) -> None:
        """Periodic sweep: drop dead replicas, re-adopt recovered ones,
        and re-replicate up to the target degree (auto-repair)."""
        for unit_key in list(self._units):
            self._check_unit_availability(unit_key)

    def _check_unit_availability(self, unit_key: str) -> None:
        unit = self._unit(unit_key)
        self._flush_folds(unit)  # sync_sites below re-keys the summaries
        if unit.target is not None:
            return  # a migration is in flight; let it settle first
        live = {s for s in unit.installed if self.network.is_up(s)}
        lost = unit.installed - live
        target_k = unit.controller.k

        # Recovered servers that still hold the replicas (durable disks)
        # rejoin for free, up to the target degree.
        if len(live) < target_k:
            for site in self.candidates:
                if len(live) >= target_k:
                    break
                if (site not in live and self.network.is_up(site)
                        and self.servers[site].holds_unit(unit)):
                    live.add(site)

        if lost or live != unit.installed:
            if live:
                unit.version += 1
                unit.installed = live
                unit.controller.sync_sites(
                    [self._position_of[s] for s in sorted(live)])
            else:
                # Every replica is down; keep the old set and wait for a
                # recovery — there is nothing to repair *from*.
                return

        if not self.auto_repair or len(unit.installed) >= target_k:
            return

        # Re-replicate from the closest live holder onto the closest
        # live non-holder.
        holders = sorted(unit.installed)
        spares = [s for s in self.candidates
                  if s not in unit.installed and self.network.is_up(s)
                  and s not in unit.awaiting]
        needed = target_k - len(unit.installed) - len(unit.awaiting)
        for _ in range(max(needed, 0)):
            if not spares:
                break
            # Prefer the spare closest to any current holder (cheap,
            # fast transfer); ties broken by id for determinism.
            spare = min(spares, key=lambda s: min(
                self.network.matrix.latency(h, s) for h in holders))
            spares.remove(spare)
            source = min(holders,
                         key=lambda h: self.network.matrix.latency(h, spare))
            unit.awaiting.add(spare)
            self.repairs += 1
            self.servers[source].send(
                spare, "replicate",
                payload={"versions": unit.current_versions(self.servers[source]),
                         "unit": unit_key, "reason": "repair"},
                size_bytes=unit.total_size_bytes, scope=unit_key)

    def _repair_transfer_done(self, unit_key: str, node_id: int) -> None:
        unit = self._unit(unit_key)
        self._flush_folds(unit)  # sync_sites below re-keys the summaries
        unit.awaiting.discard(node_id)
        if not self.network.is_up(node_id):
            return  # it crashed again while the transfer was in flight
        unit.version += 1
        unit.installed.add(node_id)
        unit.controller.sync_sites(
            [self._position_of[s] for s in sorted(unit.installed)])
