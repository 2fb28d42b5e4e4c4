"""Batched data-plane engine: vectorized client accesses, exact semantics.

The per-event oracle (:mod:`repro.workloads._reference`, tests only)
simulates every access as a chain of heap events:
workload tick -> request send -> request delivery (summary fold) ->
reply send -> reply delivery (log record).  At millions of accesses the
heap churn dominates wall-clock time even though, between control-plane
events, the outcome of each access is a pure function of frozen state.

:class:`BatchedAccessEngine` exploits exactly that.  As the simulator's
*data plane* (:meth:`Simulator.attach_data_plane`) it is asked to
``advance(bound, horizon)``: generate every arrival up to ``bound``, the
next *barrier* (non-inert event) of any scope, and serve it.  Clean read
chains are scheduled **inert** (:mod:`repro.sim.events`): their effects
land only in order-tolerant sinks — the lazily time-sorted
:class:`~repro.store.objects.AccessLog`, each unit's deferred
summary-fold buffer and integer counters — so they end no window.

**Scopes.**  A barrier is global, or scoped to the one placement unit
(the paper's §II-A independently placed "virtual object") whose replica
set, versions and summaries it alone can change: the unit's epoch ticks,
summary shipments, replica transfers and their retry timers.  So each
read gets its own cut-off: ``min(horizon, next global barrier, next
barrier of its unit, first write not yet served)`` — a write a later
window will issue included, looked up ahead in the arrival stream.  A
read that completes before its cut-off is exact in bulk: nothing that
could change its unit's routing, versions or summaries, nor any global
state (liveness, links, loss, coordinates), fires before it completes.
The one time-ordered sink, a unit's fold buffer, is flushed up to *now*
only, so another unit's event never folds accesses stamped after it.
``"net.loss"`` draws are taken by real events only, in heap order.
Without a horizon (:meth:`Simulator.run`) every read is cut at
``bound``, so a partial drain logs nothing past the clock.

**Columns.**  Every window is **one pipeline of four stages**, each an
array program over all of its reads, sorted once into ``client · nkeys +
key`` order (stable in time: the order the log, the fold buffers and the
access-delay histogram see).  It leaves each arrival *bulk*, *hybrid* or
*escalated*:

1. *route* — writes escalate, and so does every read issued at or after
   the window's first write (the write chain bumps versions, so the
   staleness bound must be read live).  Each other read's route is
   looked up per ``(client, unit)`` in the unit's :class:`_UnitTable`
   (kept until the unit's version or the network's fault epoch moves;
   it replaces the per-``(client, key)`` group records of earlier
   versions), and its per-leg stored versions and latest version are
   gathered from per-key rows.  Reads whose legs are not provably clean
   (down nodes, cut or lossy links, missing replicas) escalate.
2. *admit* — each leg is served the instant it arrives, so its reply
   lands at ``(t + d1) + d2`` and the read completes with its last
   reply; reads that finish before their cut-off with no timeout risk
   are bulk, the others hybrid.
3. *serve* — bulk reads land from flat leg columns: one fold-buffer
   entry per ``(unit, position)``, traffic counters and histograms, and
   an access-log record each.  A hybrid read's request sends are
   accounted here; :meth:`StorageClient.materialize_read` turns its
   deliveries and retry timeout into real inert events, which observe
   any barrier for real.  Those two calls are the only per-read Python.
4. *escalate* — each escalated arrival is scheduled as a real
   ``client.read``/``client.write`` event at its tick time,
   byte-identical including ``"net.loss"`` draws in heap order.  Writes
   are global barriers; escalated reads are inert.

Pending-aware selection strategies (every issued read changes the next
ranking) and active server queues (a leg's wait depends on every
admission before it, in heap order) escalate *every* arrival, derived
from ``store.strategy.supports_bulk`` and ``store.queueing.active``,
never from a switch.  All three outcomes are exact.

Residual divergence from the oracle is measure-zero tie-breaking (two
floating-point event times colliding exactly) plus float summation
order inside histogram *sum* fields; the differential test suites pin
everything else bitwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.sim.simulator import Simulator
from repro.store.consistency import QuorumError
from repro.store.kvstore import REQUEST_BYTES, ReplicatedStore
from repro.store.objects import AccessRecord
from repro.workloads.batched import ArrivalBatch, WorkloadArrivals
from repro.workloads.population import ClientPopulation, ZipfObjectPopularity
from repro.workloads.temporal import TemporalPattern

__all__ = ["BatchedAccessEngine", "BatchedAccessWorkload"]


class _Route(NamedTuple):
    """The frozen quorum route of one ``(client, unit)`` pair."""

    targets: tuple[int, ...]
    #: Rows ``d1, d2, target, candidate position``, one column per leg:
    #: request delay (bandwidth included) and reply delay at the unit's
    #: read size.
    legs: np.ndarray


class _UnitTable:
    """The engine's cached view of one placement unit.

    Valid while the store keeps the same unit object (a unit deleted and
    re-created under the same key gets a fresh table) and its
    ``version`` stays put; routes additionally expire with the network's
    fault epoch.  The members' stored versions live in the engine's
    ``(key, candidate position)`` array.  Members of a unit share one
    read size (:meth:`ReplicatedStore.create_group`).
    """

    __slots__ = ("unit", "rows", "member_keys", "read_size", "version",
                 "routes", "epoch")

    def __init__(self, unit, key_index: dict[str, int]) -> None:
        self.unit = unit
        self.member_keys = [key for key in unit.members if key in key_index]
        self.rows = np.array([key_index[key] for key in self.member_keys],
                             dtype=np.intp)
        self.read_size = next(iter(unit.members.values())).read_size_bytes
        self.version: int | None = None
        self.routes: dict[int, _Route | None] = {}
        self.epoch: int | None = None


class BatchedAccessEngine:
    """Vectorized access delivery attached to a simulator data plane.

    Parameters
    ----------
    store:
        The replicated store accesses are issued against.  Attaching
        the engine switches the store to deferred summary folding
        (:meth:`ReplicatedStore.enable_fold_buffering`).
    source:
        An arrival generator — :class:`WorkloadArrivals` for live
        workloads, :class:`~repro.workloads.batched.TraceArrivals` for
        trace replay.  Its ``keys`` tuple defines the key index space.
    """

    #: Cache-miss sentinel (``None`` is a legitimate cached route: it
    #: means "this pair escalates until the unit or fault state moves").
    _MISS = object()

    def __init__(self, store: ReplicatedStore, source) -> None:
        self.store = store
        self.source = source
        self.sim: Simulator = store.sim
        self.operations_issued = 0
        # Pending-aware selection strategies re-rank after every issued
        # read, and an active server queue makes each leg's wait depend
        # on every earlier admission in heap order — neither survives
        # the frozen-window argument, so in those runs the route stage
        # escalates every arrival (exact, not fast).
        queueing = store.queueing
        self._escalate_all = (not store.strategy.supports_bulk
                              or (queueing is not None and queueing.active))
        self._attached = True
        # Live coordinate gossip moves the coordinates reads are routed
        # by without any version counter, so coordinate-routed stores
        # with drifting coords re-derive their routes every window.
        self._cacheable = (store.selection == "oracle"
                           or not hasattr(store._coords, "planar_coords"))
        self._keys = tuple(source.keys)
        self._key_index = {key: i for i, key in enumerate(self._keys)}
        self._tables: dict[str, _UnitTable] = {}
        # Per source key: stored version at each candidate position (-1:
        # no replica there) and latest committed version.
        self._versions = np.full((len(self._keys), len(store.candidates)),
                                 -1, dtype=np.int64)
        self._latest = np.zeros(len(self._keys), dtype=np.int64)
        store.enable_fold_buffering()
        store.sim.attach_data_plane(self)

    def stop(self) -> None:
        """Stop generating arrivals, flush folds, detach."""
        self.source.stop()
        if self._attached:
            self.sim.detach_data_plane(self)
            self._attached = False
        self.store.flush_pending_accesses()

    def flush(self) -> None:
        """Apply deferred summary folds (called by the event loop when a
        run ends, so post-run summary inspection needs no manual step)."""
        self.store.flush_pending_accesses()

    # ------------------------------------------------------------------
    def advance(self, bound: float, horizon: float | None = None) -> None:
        """Process every arrival with ``time <= bound``.

        ``bound`` is the next barrier of any scope; between barriers no
        classification-relevant state changes, which is what makes bulk
        delivery exact.  With a ``horizon`` (``run_until``'s), a read may
        complete past ``bound``, up to its own unit's next barrier or the
        horizon; without one every read is cut at ``bound``.
        """
        registry = obs.get_registry()
        with registry.phase("sim.batched.advance"):
            with registry.phase("sim.batched.arrivals"):
                batch = self.source.generate_until(bound)
            if batch.size:
                self._serve_window(batch, float(bound), horizon, registry)

    def _serve_window(self, batch: ArrivalBatch, bound: float,
                      horizon: float | None, registry) -> None:
        """One window through the pipeline: route, admit, serve, escalate."""
        self.operations_issued += batch.size
        with registry.phase("sim.batched.route"):
            escalate, reads = self._route(batch, bound, horizon)
        with registry.phase("sim.batched.admit"):
            admitted = None if reads is None else self._admit(reads)
        with registry.phase("sim.batched.serve"):
            if reads is not None:
                self._serve(reads, admitted)
        with registry.phase("sim.batched.escalate"):
            self._escalate(batch, escalate)

    def _route(self, batch: ArrivalBatch, bound: float,
               horizon: float | None) -> tuple:
        """Stage 1: who escalates, and the frozen route of everyone else.

        Returns the escalation mask and the routed reads as columns
        (``None`` when no read is left), in ``(client, key)`` order.
        """
        t = batch.times
        if self._escalate_all:
            return np.ones(t.size, dtype=bool), None
        # Writes escalate; so does every read issued at or after the
        # window's first write — its staleness bound and reply versions
        # race the write chain and must be read live, in heap order.
        # Reads issued before the first write are untouched: a write's
        # earliest effect (its request delivery) lands strictly after
        # its issue time, which caps every read's cut-off below.
        is_write = batch.is_write
        escalate = np.array(is_write, dtype=bool, copy=True)
        first_write = math.inf
        if is_write.any():
            first_write = float(t[is_write].min())
            escalate |= t >= first_write
        idx = np.flatnonzero(~escalate)
        if not idx.size:
            return escalate, None
        idx = idx[np.argsort(batch.clients[idx] * len(self._keys)
                             + batch.key_idx[idx], kind="stable")]
        clients = batch.clients[idx]
        key_idx = batch.key_idx[idx]

        # Unit of every key in the window (slot -1: not a readable key).
        window_keys, key_inv = np.unique(key_idx, return_inverse=True)
        unit_keys = [self.store._unit_of.get(self._keys[k])
                     for k in window_keys.tolist()]
        slots = {unit_key: i for i, unit_key in enumerate(
            dict.fromkeys(u for u in unit_keys if u is not None))}
        tables = [self._table(unit_key) for unit_key in slots]
        slot = np.array([slots.get(u, -1) for u in unit_keys],
                        dtype=np.intp)[key_inv]

        # One route per (client, unit) pair, stacked into leg columns.
        stride = len(tables) + 1
        pairs, pair = np.unique(clients * stride + slot + 1,
                                return_inverse=True)
        routes = [None if s == 0 else self._unit_route(c, tables[s - 1])
                  for c, s in (divmod(p, stride) for p in pairs.tolist())]
        width = max((len(r.targets) for r in routes if r is not None),
                    default=1)
        legs = np.zeros((len(routes), 4, width))
        n_legs = np.zeros(len(routes), dtype=np.intp)
        for i, route in enumerate(routes):
            if route is not None:
                n_legs[i] = len(route.targets)
                legs[i, :, :n_legs[i]] = route.legs
        legs = legs[pair]
        n_legs = n_legs[pair]
        valid = np.arange(width) < n_legs[:, None]
        targets = legs[:, 2].astype(np.intp)
        positions = legs[:, 3].astype(np.intp)
        versions = np.where(valid, self._versions[key_idx[:, None], positions],
                            -1)
        # No route, or a target missing the key: the per-event path
        # reproduces forwarding, drops, loss draws and quorum errors.
        clean = (n_legs > 0) & ~((versions < 0) & valid).any(axis=1)
        escalate[idx[~clean]] = True
        if not clean.any():
            return escalate, None

        if horizon is None:
            cut = np.full(len(tables), bound)
        else:
            queue = self.sim.queue
            cut = np.array([min(horizon,
                                queue.scope_barrier_time(table.unit.unit_key))
                            for table in tables])
            if first_write == math.inf:
                # A cut-off past ``bound`` can reach a write that a later
                # window will issue; it bounds these reads too.
                first_write = self.source.next_write_time(float(cut.max()))
        sizes = np.array([table.read_size for table in tables],
                         dtype=np.int64)
        keep = _rows(clean)
        slot = slot[keep]
        reads = _Reads(
            times=t[idx[keep]], clients=clients[keep],
            key_idx=key_idx[keep], slot=slot, valid=valid[keep],
            d1=legs[keep, 0], d2=legs[keep, 1],
            targets=targets[keep], positions=positions[keep],
            versions=versions[keep], latest=self._latest[key_idx[keep]],
            size=sizes[slot], cutoff=np.minimum(cut[slot], first_write),
            pair=pair[keep], routes=routes, tables=tables)
        return escalate, reads

    def _admit(self, reads: "_Reads") -> tuple:
        """Stage 2: when each read completes, and who is late.

        Returns ``(arrivals, replies, completion, late)``.  The route
        stage only lets reads through whose servers answer the instant a
        leg arrives (no active queue), so a leg's reply lands at its
        arrival plus ``d2`` and the read completes with its last reply.
        """
        # Left-associated float sums, exactly as the event chain
        # computes them: arrival = t + d1, completion = (t+d1) + d2.
        arrival = reads.times[:, None] + reads.d1
        reply = arrival + reads.d2
        completion = np.where(reads.valid, reply, -np.inf).max(axis=1)
        late = completion >= reads.cutoff
        timeout = self.store.read_timeout_ms
        if timeout is not None:
            # A completion at or past the timeout means the timeout
            # event (scheduled at issue, hence lower seq) fires first —
            # the retry machinery must run for real.
            late |= completion >= reads.times + timeout
        return arrival, reply, completion, late

    def _serve(self, reads: "_Reads", admitted: tuple) -> None:
        """Stage 3: on-time reads land in the order-tolerant sinks
        (access log, traffic counters, deferred summary folds) from flat
        leg columns; late ones go hybrid — bulk request-send accounting,
        real (inert) deliveries + timeout via the client hook."""
        arrival, reply, completion, late = admitted
        store = self.store
        net = store.network
        keys = self._keys
        registry = obs.get_registry()

        hybrid = np.flatnonzero(late)
        for when, client, k, p in zip(
                reads.times[hybrid].tolist(), reads.clients[hybrid].tolist(),
                reads.key_idx[hybrid].tolist(), reads.pair[hybrid].tolist()):
            route = reads.routes[p]
            store.clients[client].materialize_read(
                keys[k], when, route.targets, route.legs[0].tolist())

        bulk = _rows(~late)
        times = reads.times[bulk]
        clients = reads.clients[bulk]
        completion = completion[bulk]
        delays = completion - times
        versions = reads.versions[bulk]
        targets = reads.targets[bulk]
        # Freshest server: replies arrive in per-leg completion order
        # (stable on leg index); the oracle keeps the first
        # maximum-version reply.
        rank = np.argsort(np.where(reads.valid[bulk], reply[bulk], np.inf),
                          axis=1, kind="stable")
        first_max = np.take_along_axis(versions, rank, 1).argmax(axis=1)
        reads_n = np.arange(times.size)
        servers = targets[reads_n, rank[reads_n, first_max]]
        vmax = versions.max(axis=1)

        # Access log first, while the leg columns below do not exist yet
        # (the window's peak memory); the log re-sorts lazily.
        log = store.log
        tracer = obs.get_tracer() if registry.enabled else None
        stale = vmax < reads.latest[bulk]
        for when, client, server, k, delay, version, is_stale in zip(
                completion.tolist(), clients.tolist(), servers.tolist(),
                reads.key_idx[bulk].tolist(), delays.tolist(), vmax.tolist(),
                stale.tolist()):
            if tracer is not None:
                tracer.record(obs.ACCESS_SERVED, time=when, op="read",
                              client=client, server=server, key=keys[k],
                              delay_ms=delay)
            log.append(AccessRecord(when, client, server, keys[k], delay,
                                    "read", version, is_stale))
        if registry.enabled:
            registry.counter("accesses.served").inc(times.size)
            registry.counter("store.reads").inc(times.size)
            registry.histogram("access.delay_ms").observe_many(delays)

        # Flat legs, read-major: request client -> server, reply back.
        row, col = np.nonzero(reads.valid[bulk])
        leg_arrival = arrival[bulk][row, col]
        leg_client = clients[row]
        leg_server = targets[row, col]
        leg_size = reads.size[bulk][row]
        senders = np.concatenate((np.repeat(reads.clients[hybrid],
                                            reads.valid[hybrid].sum(axis=1)),
                                  leg_client))
        net.account_bulk_sends("read-req", senders,
                               np.full(senders.size, REQUEST_BYTES))
        net.account_bulk_sends("read-rep", leg_server, leg_size)
        net.account_bulk_deliveries(
            np.concatenate((leg_server, leg_client)),
            np.concatenate((np.full(row.size, REQUEST_BYTES), leg_size)),
            np.concatenate((leg_arrival - times[row],
                            reply[bulk][row, col] - leg_arrival)))

        # Deferred summary folds, stamped with the request arrival time
        # (when the event path would fold it): one entry per (unit,
        # position), reads in window order within it.
        n_candidates = len(store.candidates)
        fold_key = (reads.slot[bulk][row] * n_candidates
                    + reads.positions[bulk][row, col])
        order = np.argsort(fold_key, kind="stable")
        fold_key = fold_key[order]
        coords = store.planar_coords()[leg_client[order]]
        stamps = leg_arrival[order]
        starts = np.flatnonzero(np.diff(fold_key, prepend=-1))
        ends = np.append(starts[1:], fold_key.size)
        for start, end in zip(starts.tolist(), ends.tolist()):
            slot, position = divmod(int(fold_key[start]), n_candidates)
            table = reads.tables[slot]
            table.unit.fold_buffer.append(
                (stamps[start:end], position, coords[start:end],
                 np.broadcast_to(float(table.read_size), (end - start,)),
                 "read"))

    def _escalate(self, batch: ArrivalBatch, escalate: np.ndarray) -> None:
        """Stage 4: replay escalated arrivals through the per-event path
        at their tick times.  Writes are barriers (their chains mutate
        versions/placement); escalated reads stay inert."""
        store = self.store
        sim = self.sim
        keys = self._keys
        idx = np.flatnonzero(escalate)
        for when, client_id, k, is_write in zip(
                batch.times[idx].tolist(), batch.clients[idx].tolist(),
                batch.key_idx[idx].tolist(), batch.is_write[idx].tolist()):
            client = store.clients[client_id]
            if is_write:
                sim.schedule_at(when, client.write, keys[k])
            else:
                sim.schedule_at(when, client.read, keys[k], inert=True)

    # ------------------------------------------------------------------
    def _table(self, unit_key: str) -> _UnitTable:
        """The unit's table, its version rows refreshed if it moved."""
        unit = self.store._units[unit_key]
        table = self._tables.get(unit_key)
        if table is None or table.unit is not unit:
            table = self._tables[unit_key] = _UnitTable(unit,
                                                        self._key_index)
        if table.version != unit.version:
            rows, members = table.rows, table.member_keys
            self._versions[rows] = -1
            for site in unit.installed:
                replicas = self.store.servers[site].replicas
                self._versions[rows, self.store._position_of[site]] = [
                    replicas.get(key, -1) for key in members]
            self._latest[rows] = [unit.latest[key] for key in members]
            table.routes.clear()
            table.version = unit.version
        return table

    def _unit_route(self, client: int, table: _UnitTable) -> _Route | None:
        """The ``(client, unit)`` route, cached in the unit's table.

        ``None`` means some leg cannot be proven clean.  Everything here
        depends only on the placement unit, so member keys share a
        single derivation per (client, unit) and table version.
        """
        if not self._cacheable:
            return self._derive_unit_route(client, table)
        epoch = self.store.network.state_epoch
        if table.epoch != epoch:
            table.routes.clear()
            table.epoch = epoch
        route = table.routes.get(client, self._MISS)
        if route is self._MISS:
            route = table.routes[client] = self._derive_unit_route(client,
                                                                   table)
        return route

    def _derive_unit_route(self, client: int,
                           table: _UnitTable) -> _Route | None:
        store = self.store
        net = store.network
        try:
            targets = store.route_read(client, table.unit.unit_key)
        except (QuorumError, KeyError):
            return None
        if not net.is_up(client):
            return None
        bandwidth = net.bandwidth
        d1, d2 = [], []
        for server in targets:
            if (not net.is_up(server)
                    or not net.link_reliable(client, server)
                    or not net.link_reliable(server, client)):
                return None
            delay1 = net.matrix.one_way(client, server)
            delay2 = net.matrix.one_way(server, client)
            if bandwidth is not None:
                delay1 += bandwidth.transfer_ms(
                    net.matrix.latency(client, server), REQUEST_BYTES)
                delay2 += bandwidth.transfer_ms(
                    net.matrix.latency(server, client), table.read_size)
            d1.append(delay1)
            d2.append(delay2)
        return _Route(tuple(targets), np.array([
            d1, d2, targets, [store._position_of[s] for s in targets]],
            dtype=float))


def _rows(mask: np.ndarray):
    """Index of the rows where ``mask`` holds: a slice (views, not
    copies) when it holds everywhere, as it mostly does."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


class _Reads(NamedTuple):
    """The window's routed reads, one row per read; ``(reads, legs)``
    columns are padded to the widest route, ``valid`` marks real legs."""

    times: np.ndarray
    clients: np.ndarray
    key_idx: np.ndarray
    slot: np.ndarray        # index into ``tables``
    valid: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    targets: np.ndarray
    positions: np.ndarray
    versions: np.ndarray    # -1 on padding
    latest: np.ndarray
    size: np.ndarray        # read size
    cutoff: np.ndarray      # a bulk read completes strictly before it
    pair: np.ndarray        # index into ``routes``
    routes: list            # the window's (client, unit) _Routes
    tables: list            # the window's _UnitTables


class BatchedAccessWorkload:
    """The access driver: a Poisson-like request stream into the store.

    Arrivals come from a jittered periodic tick at ``rate_per_second``:
    per tick one client is drawn from the population (modulated by the
    temporal pattern) and issues a read — or a write with probability
    ``write_fraction``.  :class:`WorkloadArrivals` generates them in
    blocks and a :class:`BatchedAccessEngine` serves them, bitwise equal
    to issuing one heap event per access (the test oracle,
    :mod:`repro.workloads._reference`) at a fraction of the event count.

    Parameters
    ----------
    store:
        The replicated store to drive (clients are registered lazily).
    population:
        Who issues requests.
    keys:
        Object keys to exercise; one key gets all requests, several keys
        are drawn from ``popularity`` (default Zipf 0.9).
    rate_per_second:
        Aggregate request rate across all clients.
    write_fraction:
        Share of operations that are writes (0 = paper's read-only mode).
    pattern:
        Temporal modulation of per-client intensity.
    """

    def __init__(self, store: ReplicatedStore, population: ClientPopulation,
                 keys: Sequence[str], rate_per_second: float = 100.0,
                 write_fraction: float = 0.0,
                 pattern: TemporalPattern | None = None,
                 popularity: ZipfObjectPopularity | None = None) -> None:
        self.store = store
        self.population = population
        self.keys = tuple(keys)
        for client in population.clients:
            if client not in store.clients:
                store.add_client(client)
        self.source = WorkloadArrivals(
            store.sim.rng("workload"), population, self.keys,
            rate_per_second=rate_per_second, write_fraction=write_fraction,
            pattern=pattern, popularity=popularity,
            start_time=store.sim.now)
        self.engine = BatchedAccessEngine(store, self.source)

    @property
    def operations_issued(self) -> int:
        return self.engine.operations_issued

    def stop(self) -> None:
        """Stop issuing operations."""
        self.engine.stop()
