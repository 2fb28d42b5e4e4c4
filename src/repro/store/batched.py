"""Batched data-plane engine: vectorized client accesses, exact semantics.

The per-event oracle (:mod:`repro.workloads._reference`, tests only)
simulates every access as a chain of heap events:
workload tick -> request send -> request delivery (summary fold) ->
reply send -> reply delivery (log record).  At millions of accesses the
heap churn dominates wall-clock time even though, between control-plane
events, the outcome of each access is a pure function of frozen state.

:class:`BatchedAccessEngine` exploits exactly that.  It registers with
the simulator as a *data plane* (:meth:`Simulator.attach_data_plane`):
the event loop asks it to ``advance(bound)`` where ``bound`` is the next
*barrier* — the earliest non-inert event, i.e. the earliest instant
anything can mutate routing, versions, liveness, coordinates or loss
configuration.  Clean read chains are scheduled **inert** (see
:mod:`repro.sim.events`): their effects land only in order-tolerant
sinks — the lazily time-sorted :class:`~repro.store.objects.AccessLog`,
the store's deferred summary-fold buffer (flushed in access-time order
before every summary observation), and integer counters — so they fire
*without* ending a bulk window.  That keeps windows control-plane-sized
(epoch periods, chaos events) instead of event-sized, which is what
makes batching pay off.

Every window runs through **one pipeline of four stages**, whatever the
store's configuration, and leaves each arrival with one of **three
outcomes** — *bulk*, *hybrid* or *escalated*:

1. *route* — writes escalate, and so does every read issued at or after
   the window's **first write** (the write chain bumps versions, so the
   staleness bound must be read live).  The other reads are grouped by
   ``(client, key)``: a group whose issue legs are not provably clean
   (down nodes, cut or lossy links, missing replicas) escalates too,
   the rest get one frozen :class:`_GroupInfo` and leg arrivals
   ``t + d1``.
2. *admit* — each leg is served the instant it arrives, so its reply
   lands at ``(t + d1) + d2``.  Reads that complete strictly before the
   window's cutoff and carry no timeout risk are bulk; those that
   outlive the window or may time out are hybrid.
3. *serve* — all effects of a bulk read — traffic counters, delivery
   histograms, summary folds (deferred), access-log records — are
   applied vectorized.  For a hybrid read only send-side accounting is
   bulk; request deliveries and the retry timeout become real (inert)
   heap events via :meth:`StorageClient.materialize_read`, so replies,
   retries and timeouts run through the untouched per-event machinery
   and observe any barrier-time state change for real.
4. *escalate* — each escalated arrival is scheduled as a real
   ``client.read``/``client.write`` event at its tick time —
   byte-identical behaviour including ``"net.loss"`` RNG draws in heap
   order.  Writes are barriers; escalated reads are inert.

Pending-aware selection strategies (every issued read changes the next
ranking) and active server queues (a leg's wait depends on every
admission before it, in heap order) escalate *every* arrival; the engine
derives that from ``store.strategy.supports_bulk`` and
``store.queueing.active``, never from a switch.  All three outcomes are
exact.

The window cutoff is ``min(bound, first write issue time)``: a bulk
read's entire effect chain completes strictly before anything non-bulk
can touch shared state, so state frozen at classification time is the
state every bulk effect would have observed.

Residual divergence from the oracle is measure-zero tie-breaking (two
floating-point event times colliding exactly) plus float summation
order inside histogram *sum* fields; the differential test suite pins
everything else bitwise.
"""

from __future__ import annotations

import itertools
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


class _GroupInfo(NamedTuple):
    """Frozen routing/leg data for one (client, key) pair in a window."""

    client: int
    key: str
    targets: tuple[int, ...]
    d1: np.ndarray        # per-leg client -> server one-way delay
    d2: np.ndarray        # per-leg server -> client one-way delay
    versions: np.ndarray  # per-leg stored version
    vmax: int             # max(versions): the read's returned version
    latest: int           # latest committed version (staleness bound)
    read_size: int
    positions: tuple[int, ...]  # per-leg index into store.candidates
    unit: object                # the owning _PlacementUnit (fold buffer)


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

    #: Cache-miss sentinel (``None`` is a legitimate cached value: it
    #: means "this pair escalates until the fault state changes").
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
        # Cross-window route cache.  A (client, key) group's _GroupInfo
        # is a pure function of (a) replica/version/installed state —
        # versioned by store._state_version — and (b) node/link fault
        # state — versioned by network.state_epoch — plus coordinates.
        # With both counters unchanged since the last window, last
        # window's answers (including the "escalate" Nones a dense fault
        # schedule produces) are still exact, so barriers that did not
        # actually touch state (repair-monitor ticks, summary/replicate
        # deliveries) cost O(1) lookups instead of a full re-derivation
        # per group.  Live coordinate gossip is the one input with no
        # version counter, so coordinate-routed stores with drifting
        # coords opt out.
        self._cacheable = ((store.selection == "oracle"
                            or not hasattr(store._coords, "planar_coords"))
                           and store.strategy.supports_bulk)
        self._info_cache: dict[tuple[int, str], _GroupInfo | None] = {}
        # Unit-level route cache: every member key of a placement unit
        # shares the unit's targets, per-leg delays and positions, so a
        # catalog that folds many keys into one group derives the
        # routing work once per (client, unit) instead of once per
        # (client, key).  Same validity stamp as the info cache.
        self._route_cache: dict[tuple[int, str], tuple | None] = {}
        self._cache_stamp: tuple[int, int] | None = None
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
        ``run_until`` horizon is reached, so post-run summary inspection
        needs no manual step)."""
        self.store.flush_pending_accesses()

    # ------------------------------------------------------------------
    def advance(self, bound: float) -> None:
        """Process every arrival with ``time <= bound``.

        Called by the simulator with the next barrier time; between
        barriers no classification-relevant state changes, which is
        what makes bulk delivery exact.
        """
        registry = obs.get_registry()
        with registry.phase("sim.batched.advance"):
            with registry.phase("sim.batched.arrivals"):
                batch = self.source.generate_until(bound)
            if batch.size:
                self._serve_window(batch, float(bound), registry)

    def _serve_window(self, batch: ArrivalBatch, bound: float,
                      registry) -> None:
        """One window through the pipeline: route, admit, serve, escalate."""
        self.operations_issued += batch.size
        timeout = self.store.read_timeout_ms
        with registry.phase("sim.batched.route"):
            escalate, cutoff, groups = self._route(batch, bound)
        with registry.phase("sim.batched.admit"):
            admitted = self._admit(groups, cutoff, timeout)
        with registry.phase("sim.batched.serve"):
            self._serve(groups, admitted)
        with registry.phase("sim.batched.escalate"):
            self._escalate(batch, escalate)

    def _route(self, batch: ArrivalBatch, bound: float) -> tuple:
        """Stage 1: who escalates, and the frozen route of everyone else.

        Returns the escalation mask, the window cutoff and ``(info,
        issue times, leg arrivals)`` per (client, key) group with
        candidates.
        """
        t = batch.times
        if self._escalate_all:
            return np.ones(t.size, dtype=bool), bound, []
        # Writes escalate; so does every read issued at or after the
        # window's first write — its staleness bound and reply versions
        # race the write chain and must be read live, in heap order.
        # Reads issued before the first write are untouched: a write's
        # earliest effect (its request delivery) lands strictly after
        # its issue time, which caps the window cutoff below.
        is_write = batch.is_write
        escalate = np.array(is_write, dtype=bool, copy=True)
        cutoff = bound
        if is_write.any():
            first_write = float(t[is_write].min())
            cutoff = min(bound, first_write)
            escalate |= t >= first_write

        # Group accesses by (client, key): route and leg delays are
        # constant per pair within the window.
        keys = self.source.keys
        nkeys = len(keys)
        uniq, inverse, counts = np.unique(
            batch.clients * nkeys + batch.key_idx,
            return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        groups: list[tuple] = []
        for g, gval in enumerate(uniq.tolist()):
            idx = order[offsets[g]:offsets[g + 1]]
            ridx = idx[~escalate[idx]]
            if ridx.size == 0:
                continue
            info = self._group_info(int(gval) // nkeys, keys[gval % nkeys])
            if info is None:
                escalate[ridx] = True
                continue
            tg = t[ridx]
            # Left-associated float sums, exactly as the event chain
            # computes them: arrival = t + d1, completion = (t+d1) + d2.
            groups.append((info, tg, tg[:, None] + info.d1[None, :]))
        return escalate, cutoff, groups

    def _admit(self, groups: list[tuple], cutoff: float,
               timeout: float | None) -> list[tuple]:
        """Stage 2: when each read completes, and who is late.

        Returns ``(replies, completion, late)`` per group.  The route
        stage only lets reads through whose servers answer the instant a
        leg arrives (no active queue), so a leg's reply lands at its
        arrival plus ``d2`` and the read completes with its last reply.
        """
        admitted = []
        for info, tg, arr in groups:
            reply = arr + info.d2[None, :]
            comp = reply.max(axis=1)
            late = comp >= cutoff
            if timeout is not None:
                # A completion at or past the timeout means the timeout
                # event (scheduled at issue, hence lower seq) fires
                # first — the retry machinery must run for real.
                late |= comp >= tg + timeout
            admitted.append((reply, comp, late))
        return admitted

    def _serve(self, groups: list[tuple], admitted: list[tuple]) -> None:
        """Stage 3: on-time reads land vectorized in the order-tolerant
        sinks (deferred summary folds, traffic counters, access log);
        late ones go hybrid — bulk request-send accounting, real (inert)
        deliveries + timeout via the client hook."""
        if not groups:
            return
        store = self.store
        net = store.network
        registry = obs.get_registry()
        tracer = obs.get_tracer() if registry.enabled else None
        log = store.log
        planar = store.planar_coords()
        # Traffic legs as parallel-array rows, concatenated at the end.
        requests: list[tuple] = []    # (senders, sizes)
        replies: list[tuple] = []     # (senders, sizes)
        deliveries: list[tuple] = []  # (recipients, sizes, delays)
        delay_blocks: list[np.ndarray] = []

        for (info, tg, arr), (reply, comp, late) in zip(groups, admitted):
            if late.any():
                # Hybrid: the request sends are accounted here, the rest
                # of the chain runs as real events.
                late_times = tg[late]
                legs = len(info.targets) * late_times.size
                requests.append((np.full(legs, info.client),
                                 np.full(legs, REQUEST_BYTES)))
                client = store.clients[info.client]
                leg_delays = info.d1.tolist()
                for issued_at in late_times.tolist():
                    client.materialize_read(info.key, issued_at,
                                            info.targets, leg_delays)
            keep = ~late
            if not keep.any():
                continue
            tg, arr, reply, comp = tg[keep], arr[keep], reply[keep], comp[keep]
            delays = comp - tg
            m = tg.size
            delay_blocks.append(delays)

            # Freshest server: replies arrive in per-leg completion
            # order (stable on leg index); the oracle keeps the first
            # maximum-version reply.
            if len(info.targets) == 1:
                servers = itertools.repeat(info.targets[0], m)
            else:
                rank = np.argsort(reply, axis=1, kind="stable")
                first_max = info.versions[rank].argmax(axis=1)
                legs = rank[np.arange(m), first_max]
                servers = np.asarray(info.targets)[legs].tolist()
            coords_row = planar[info.client]
            client_ids = np.broadcast_to(info.client, (m,))
            req_bytes = np.broadcast_to(REQUEST_BYTES, (m,))
            rep_bytes = np.broadcast_to(info.read_size, (m,))
            weights = np.broadcast_to(float(info.read_size), (m,))
            coords_block = np.broadcast_to(coords_row, (m, coords_row.size))
            fold_buffer = info.unit.fold_buffer
            for j, server in enumerate(info.targets):
                arr_j = arr[:, j]
                # Deferred summary fold, stamped with the request
                # arrival time (when the event path would fold it).
                fold_buffer.append((arr_j, info.positions[j],
                                    coords_block, weights, "read"))
                server_ids = np.broadcast_to(server, (m,))
                # request leg: client -> server
                requests.append((client_ids, req_bytes))
                deliveries.append((server_ids, req_bytes, arr_j - tg))
                # reply leg: server -> client, departing on arrival.
                replies.append((server_ids, rep_bytes))
                deliveries.append((client_ids, rep_bytes,
                                   reply[:, j] - arr_j))

            # Access log: within a group completion times are monotone
            # in issue time, so appends stay sorted; across groups the
            # log re-sorts lazily.
            key = info.key
            client_id = info.client
            version = info.vmax
            is_stale = info.vmax < info.latest
            for when, dly, server in zip(comp.tolist(), delays.tolist(),
                                         servers):
                if tracer is not None:
                    tracer.record(obs.ACCESS_SERVED, time=when, op="read",
                                  client=client_id, server=server, key=key,
                                  delay_ms=dly)
                log.append(AccessRecord(
                    time=when, client=client_id, server=server,
                    key=key, delay_ms=dly, kind="read",
                    version=version, stale=is_stale))

        # ---- bulk traffic accounting (integer-valued, hence exact).
        def columns(rows):
            return map(np.concatenate, zip(*rows))

        net.account_bulk_sends("read-req", *columns(requests))
        if replies:
            net.account_bulk_sends("read-rep", *columns(replies))
            net.account_bulk_deliveries(*columns(deliveries))
            if registry.enabled:
                delays = np.concatenate(delay_blocks)
                registry.counter("accesses.served").inc(delays.size)
                registry.counter("store.reads").inc(delays.size)
                registry.histogram("access.delay_ms").observe_many(delays)

    def _escalate(self, batch: ArrivalBatch, escalate: np.ndarray) -> None:
        """Stage 4: replay escalated arrivals through the per-event path
        at their tick times.  Writes are barriers (their chains mutate
        versions/placement); escalated reads stay inert."""
        store = self.store
        sim = self.sim
        keys = self.source.keys
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
    def _group_info(self, client: int, key: str) -> _GroupInfo | None:
        """Routing and leg data for one (client, key), or ``None``.

        ``None`` means the access cannot be proven clean — it escalates
        to the per-event path, which then reproduces forwarding, drops,
        loss draws and quorum errors byte-for-byte.
        """
        if not self._cacheable:
            return self._derive_group_info(client, key)
        stamp = (self.store._state_version, self.store.network.state_epoch)
        if stamp != self._cache_stamp:
            self._info_cache.clear()
            self._route_cache.clear()
            self._cache_stamp = stamp
        cached = self._info_cache.get((client, key), self._MISS)
        if cached is not self._MISS:
            return cached
        info = self._derive_group_info(client, key)
        self._info_cache[(client, key)] = info
        return info

    def _derive_group_info(self, client: int, key: str) -> _GroupInfo | None:
        store = self.store
        try:
            unit = store._unit_of_key(key)
        except KeyError:
            return None
        obj = unit.members.get(key)
        if obj is None:
            return None  # a group key is not itself readable
        route = self._unit_route(client, unit)
        if route is None:
            return None
        targets, d1, d2_base, rtt_back, positions = route
        versions = np.empty(len(targets), dtype=int)
        for j, server in enumerate(targets):
            replicas = store.servers[server].replicas
            if key not in replicas:
                return None
            versions[j] = replicas[key]
        bandwidth = store.network.bandwidth
        if bandwidth is not None:
            # The reply leg's serialization time is the only per-key
            # part of the delays (it scales with the member's payload).
            d2 = d2_base + np.array([
                bandwidth.transfer_ms(rtt, obj.read_size_bytes)
                for rtt in rtt_back])
        else:
            d2 = d2_base
        return _GroupInfo(
            client=client, key=key, targets=targets, d1=d1, d2=d2,
            versions=versions, vmax=int(versions.max()),
            latest=unit.latest[key],
            read_size=obj.read_size_bytes,
            positions=positions, unit=unit)

    def _unit_route(self, client: int, unit) -> tuple | None:
        """The unit-level half of :meth:`_derive_group_info`, cached.

        Returns ``(targets, d1, d2_base, rtt_back, positions)`` — the
        quorum route, per-leg request delays (bandwidth included), reply
        propagation delays *without* the per-key serialization term, the
        reply-leg RTTs that term needs, and candidate positions — or
        ``None`` when any leg cannot be proven clean.  Everything here
        depends only on the placement unit, so member keys of one group
        share a single derivation per (client, unit) and stamp.
        """
        if self._cacheable:
            cached = self._route_cache.get((client, unit.unit_key),
                                           self._MISS)
            if cached is not self._MISS:
                return cached
        route = self._derive_unit_route(client, unit)
        if self._cacheable:
            self._route_cache[(client, unit.unit_key)] = route
        return route

    def _derive_unit_route(self, client: int, unit) -> tuple | None:
        store = self.store
        net = store.network
        try:
            targets = store.route_read(client, unit.unit_key)
        except (QuorumError, KeyError):
            return None
        if not net.is_up(client):
            return None
        d1 = np.empty(len(targets))
        d2 = np.empty(len(targets))
        rtt_back = np.empty(len(targets))
        for j, server in enumerate(targets):
            if (not net.is_up(server)
                    or not net.link_reliable(client, server)
                    or not net.link_reliable(server, client)):
                return None
            delay1 = net.matrix.one_way(client, server)
            if net.bandwidth is not None:
                delay1 += net.bandwidth.transfer_ms(
                    net.matrix.latency(client, server), REQUEST_BYTES)
            d1[j] = delay1
            d2[j] = net.matrix.one_way(server, client)
            rtt_back[j] = net.matrix.latency(server, client)
        return (tuple(targets), d1, d2, rtt_back,
                tuple(store._position_of[s] for s in targets))


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
