"""The replicated store: servers, clients, routing and the unit catalog.

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
Each unit runs its own control loop in :mod:`repro.store.control`; the
store's epoch, coordinator and availability methods delegate to it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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
from repro.store.control import PlacementUnit
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
        unit_key = self.store._unit_of_key(key).unit_key
        for peer in self.store.installed_sites(key):
            if peer != self.node_id:
                self.send(peer, "replicate",
                          payload={"versions": {key: version},
                                   "unit": unit_key, "reason": "update"},
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
        unit = self.store._units.get(message.payload["unit"])
        if unit is None:
            # The unit was deleted while the transfer was in flight;
            # discard the stray replica data.
            for key in versions:
                self.replicas.pop(key, None)
            return
        unit.version += 1
        if reason == "migration":
            unit.migration_landed(self.node_id)
        elif reason == "repair":
            unit.repair_landed(self.node_id)

    def _on_summary(self, message: Message) -> None:
        # Summaries terminate at the coordinator; the controller already
        # consumed their content synchronously — this message exists so
        # the control-plane traffic is charged to the network.  Its
        # arrival doubles as the delivery acknowledgement the retry
        # machinery waits for.
        unit = self.store._units.get(message.payload["unit"])
        if unit is not None:
            unit.summary_received(message.sender, message.payload["shipment"])

    # ------------------------------------------------------------------
    def drop(self, key: str) -> None:
        """Discard a replica."""
        self.store._unit_of_key(key).version += 1
        self.replicas.pop(key, None)

    def holds_unit(self, unit: PlacementUnit) -> bool:
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


class ReplicatedStore:
    """Catalog, routing and placement units for replicated objects.

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
        # Written so that NaN fails every range check.
        if read_timeout_ms is not None and not read_timeout_ms > 0:
            raise ValueError("read timeout must be positive: "
                             f"read_timeout_ms={read_timeout_ms!r}")
        if max_read_attempts < 1:
            raise ValueError("need at least one read attempt")
        if not repair_period_ms > 0:
            raise ValueError("repair period must be positive: "
                             f"repair_period_ms={repair_period_ms!r}")
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
        self._units: dict[str, PlacementUnit] = {}
        self._unit_of: dict[str, str] = {}   # member key -> unit key
        #: Coordinator for summary traffic: the first candidate.
        self.coordinator = self.candidates[0]
        # Stamp spans (including micro-cluster events emitted deep in
        # the clustering layer) with this simulation's clock.
        obs.get_tracer().bind_clock(lambda: self.sim.now)
        if auto_repair:
            PeriodicProcess(sim, repair_period_ms, self.check_availability)

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
                     home_coordinator: int | None = None) -> None:
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

        unit = PlacementUnit(self, unit_key, members, initial_sites,
                             controller_config, cost_model, policy,
                             home_coordinator)
        self._units[unit_key] = unit
        for key in members:
            self._unit_of[key] = unit_key
        for site in initial_sites:  # initial placement, no transfer
            for key in members:
                self.servers[site].replicas[key] = 0
        if epoch_period_ms is not None:
            unit.start_clock(epoch_period_ms,
                             lambda: self.run_epoch(unit_key))

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
        unit.retire()
        for site in sorted(unit.installed | unit.awaiting):
            unit.drop_from(site)
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

    def start_epoch_clock(self, unit_key: str, period_ms: float,
                          tick: Callable[[], object],
                          start_after: float | None = None
                          ) -> PeriodicProcess:
        """Start a unit's one epoch clock (a sharded catalog asks for its
        staggered ones here); :meth:`delete` stops it."""
        return self._unit_of_key(unit_key).start_clock(
            period_ms, tick, start_after)

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
        unit.flush_folds()
        return unit.controller

    def _unit_of_key(self, key: str) -> PlacementUnit:
        unit_key = self._unit_of.get(key)
        if unit_key is None:
            if key in self._units:  # allow unit/group keys in queries
                return self._units[key]
            raise KeyError(f"unknown object {key!r}")
        return self._units[unit_key]

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
        """Buffer one served access for its unit's summaries (folded by
        :meth:`PlacementUnit.flush_folds`)."""
        unit = self._unit_of_key(key)
        unit.fold_buffer.append((self.sim.now, self._position_of[server],
                                 client_coords, bytes_exchanged, kind))

    def flush_pending_accesses(self) -> None:
        """Apply every deferred summary fold, whatever its stamp (the
        run is over or a batched engine stopped)."""
        for unit in self._units.values():
            unit.flush_folds(math.inf)

    # ------------------------------------------------------------------
    # The per-unit control plane (repro.store.control), by key
    # ------------------------------------------------------------------
    def current_coordinator(self, key: str) -> int:
        """The node id that would coordinate ``key``'s next epoch (see
        :meth:`PlacementUnit.coordinator` and docs/chaos.md)."""
        return self._unit_of_key(key).coordinator()

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
        return self._unit_of_key(unit_key).run_epoch(max_moves)

    def check_availability(self) -> None:
        """One availability sweep over every unit (the auto-repair
        monitor runs it every ``repair_period_ms``): drop dead replicas,
        re-adopt recovered ones, re-replicate up to the target degree."""
        for unit in list(self._units.values()):
            unit.check_availability()
