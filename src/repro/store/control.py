"""One placement unit and the control loop that places it.

The paper places every object, or group of objects (Section II-A's
"virtual object"), with its own loop: an epoch at the elected
coordinator, summaries shipped to it, clustering, then a migration if
the gain pays for the transfer.  A :class:`PlacementUnit` is one such
unit with that loop: its epoch clock and epochs, summary shipping and
acknowledgements, one retry state machine (each :class:`_Shipment`
carries its own resend and give-up), migration with finalize and
rollback, and the availability sweep with repair.  Everything the loop
schedules or sends carries the unit's *scope* (:mod:`repro.sim.events`);
this module is the only code that stamps one, through the ``_schedule``
/ ``_send`` pair and the epoch clock ``start_clock``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.core.controller import (
    ControllerConfig,
    EpochReport,
    ReplicationController,
)
from repro.core.migration import MigrationCostModel, MigrationPolicy
from repro.sim.events import Event
from repro.sim.process import PeriodicProcess
from repro.store.objects import DataObject

if TYPE_CHECKING:  # pragma: no cover - import cycle, annotations only
    from repro.store.kvstore import ReplicatedStore

__all__ = ["PlacementUnit"]


@dataclass(eq=False)
class _Shipment:
    """One unacknowledged summary shipment or replica transfer, live
    while it is ``pending[site]`` (its unit's map of its kind)."""

    pending: dict
    site: int              # the shipping site, or a transfer's target
    counter: str           # store counter bumped per retry
    resend: Callable[[], None]
    give_up: Callable[[], None]
    attempts: int = 1
    timeout_event: Event | None = None
    #: Matches a summary's acknowledgement: a delayed copy from a
    #: superseded epoch must not ack a later one.
    shipment_id: int = 0


class PlacementUnit:
    """One independently placed replica set — an object or a group —
    and its control plane."""

    def __init__(self, store: "ReplicatedStore", unit_key: str,
                 members: dict[str, DataObject], sites: Sequence[int],
                 controller_config: ControllerConfig | None,
                 cost_model: MigrationCostModel | None,
                 policy: MigrationPolicy | None,
                 home: int | None) -> None:
        self.store = store
        self.sim = store.sim
        self.unit_key = unit_key
        self.members = members
        total_gb = sum(obj.size_gb for obj in members.values())
        self.total_size_bytes = sum(obj.size_bytes for obj in members.values())
        self.controller = ReplicationController(
            store.planar_coords()[list(store.candidates)],
            [store._position_of[s] for s in sites],
            controller_config or ControllerConfig(k=len(sites)),
            cost_model=cost_model or MigrationCostModel(object_size_gb=total_gb),
            policy=policy, on_migrate=self._migrate, domains=store.domains)
        self.installed: set[int] = set(sites)  # node ids serving reads
        self.target: set[int] | None = None  # sites of an in-flight migration
        self.awaiting: set[int] = set()  # pending migration/repair transfers
        self.latest: dict[str, int] = {key: 0 for key in members}
        self.epoch_reports: list[EpochReport] = []
        #: Per-unit default coordinator (a sharded catalog homes each
        #: shard's units on that shard's coordinator); ``None`` falls back
        #: to the store-wide default (the first candidate).
        self.home = home
        #: Live shipments by site (only populated under a RetryPolicy).
        self.pending_transfers: dict[int, _Shipment] = {}
        self.pending_summaries: dict[int, _Shipment] = {}
        self.abandoned: set[int] = set()
        #: Deferred summary folds ``(time(s), position, coords, weight(s),
        #: kind)``: scalars for one access, arrays for a bulk window;
        #: flushed before any summary observation or mutation.
        self.fold_buffer: list = []
        #: Bumped whenever a member's replica on any server, the installed
        #: set or a member's latest version changes: with
        #: ``network.state_epoch``, what tells the batched engine its
        #: cached routes and versions for this unit still hold.
        self.version = 0
        self._clock: PeriodicProcess | None = None

    # ------------------------------------------------------------------
    # The scope stamps: every event and message of the loop
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, callback: Callable, *args) -> Event:
        return self.sim.schedule(delay, callback, *args, scope=self.unit_key)

    def _send(self, source: int, recipient: int, kind: str, payload: dict,
              size_bytes: int) -> None:
        self.store.servers[source].send(recipient, kind, payload=payload,
                                        size_bytes=size_bytes,
                                        scope=self.unit_key)

    def start_clock(self, period_ms: float, tick: Callable[[], object],
                    start_after: float | None = None) -> PeriodicProcess:
        """Start the unit's one epoch clock: ``tick()`` every period,
        first after ``start_after`` (default one period).  A second
        clock is refused."""
        if self._clock is not None:
            raise ValueError(
                f"unit {self.unit_key!r} already has an epoch clock")
        self._clock = PeriodicProcess(self.sim, period_ms, tick,
                                      start_after=start_after,
                                      scope=self.unit_key)
        return self._clock

    def retire(self) -> None:
        """Stop the loop before deletion: fold what was served, stop the
        clock, forget shipments (their timers then fire as no-ops)."""
        self.flush_folds()
        if self._clock is not None:
            self._clock.stop()
        self.pending_transfers.clear()
        self.pending_summaries.clear()

    def flush_folds(self, until: float | None = None) -> None:
        """Fold the deferred accesses stamped at or before ``until``
        (default: now), stably sorted by access time per site and summary
        stream.  It runs right before anything observes or mutates the
        summaries, and deferral is *exact*: micro-cluster maintenance
        depends only on the fold order, which the sort reproduces (ties
        keep buffer order, i.e. event order), not on how the stream is
        cut into blocks.  A flush from another unit's event can find bulk
        reads stamped later; they stay buffered, since every later
        append is stamped after now too."""
        buf = self.fold_buffer
        if not buf:
            return
        until = self.sim.now if until is None else until
        self.fold_buffer = []
        write_aware = self.controller.config.write_aware
        # (position, stream) -> its entries in buffer order: a bulk
        # entry's ``(times, coords, weights)`` arrays, or a list of
        # consecutive one-access entries, converted once per run.  Only
        # write-aware controllers split streams by kind — otherwise
        # reads and writes fold into the same summary and must stay in
        # one merged time order.
        groups: dict[tuple[int, str], list] = {}
        for when, position, coords, weights, kind in buf:
            stream = kind if write_aware else "read"
            parts = groups.setdefault((position, stream), [])
            if isinstance(when, np.ndarray):
                parts.append((when, coords, weights))
            elif parts and isinstance(parts[-1], list):
                parts[-1].append((when, coords, weights))
            else:
                parts.append([(when, coords, weights)])
        for (position, stream), parts in groups.items():
            tparts, cparts, wparts = [], [], []
            for part in parts:
                if isinstance(part, list):
                    when, coords, weights = zip(*part)
                    part = (when, np.array(coords, dtype=float).reshape(
                        len(part), -1), weights)
                tparts.append(np.asarray(part[0], dtype=float))
                cparts.append(np.asarray(part[1], dtype=float))
                wparts.append(np.asarray(part[2], dtype=float))
            times = np.concatenate(tparts)
            order = np.argsort(times, kind="stable")
            times = times[order]
            coords = np.vstack(cparts)[order]
            weights = np.concatenate(wparts)[order]
            due = int(np.searchsorted(times, until, side="right"))
            if due < times.size:
                self.fold_buffer.append((times[due:], position, coords[due:],
                                         weights[due:], stream))
            if not due:
                continue
            try:
                self.controller.record_batch(position, coords[:due],
                                             weights[:due], kind=stream)
            except KeyError:
                # The replica is being retired (or was just created by a
                # migration the controller already rolled over); its
                # traffic no longer informs placement.  The flush runs
                # before the summary site set changes, so this is the
                # set the access was served against.
                pass

    def _resync(self) -> None:
        """Re-key the controller onto the installed set."""
        self.controller.sync_sites(
            [self.store._position_of[s] for s in sorted(self.installed)])

    # ------------------------------------------------------------------
    # Coordinator election and the epoch
    # ------------------------------------------------------------------
    def coordinator(self) -> int:
        """The node id that would coordinate the next epoch: the first
        viable one of the unit's home (default: the store's first
        candidate), its holders in sorted order, then the remaining
        candidates — viable meaning up and reachable from a live holder
        (docs/chaos.md).  With none viable, the home (the epoch then
        degrades to "no reachable summaries")."""
        store, network = self.store, self.store.network
        default = self.home if self.home is not None else store.coordinator
        holders = sorted(self.installed)
        ranking = list(dict.fromkeys(
            [default] + holders + list(store.candidates)))
        live_holders = [s for s in holders if network.is_up(s)]
        for site in ranking:
            if not network.is_up(site):
                continue
            if site in live_holders or any(
                    network.can_reach(h, site) for h in live_holders):
                return site
        return default

    def run_epoch(self, max_moves: int | None = None) -> EpochReport:
        """One placement epoch (see :meth:`ReplicatedStore.run_epoch`)."""
        store, network = self.store, self.store.network
        self.flush_folds()  # the epoch pools the summaries next
        registry = obs.get_registry()
        # Refresh candidate coordinates: with live gossip they drift.
        self.controller.dc_coords = store.planar_coords()[
            list(store.candidates)]
        coordinator = self.coordinator()
        _, lease = self.controller.elect_coordinator(
            [store._position_of[coordinator]])
        reachable = [store._position_of[s] for s in sorted(self.installed)
                     if network.can_reach(s, coordinator)]
        eligible = [p for p, site in enumerate(store.candidates)
                    if network.can_reach(coordinator, site)
                    and network.can_reach(site, coordinator)]
        with registry.phase("store.epoch"):
            report = self.controller.run_epoch(
                self.sim.rng(f"epoch-{self.unit_key}"),
                reachable=reachable, eligible=eligible, lease=lease,
                max_moves=max_moves)
        if registry.enabled:
            registry.counter("store.epochs").inc()
        self.epoch_reports.append(report)
        # Charge the summary shipping to the network.
        if report.summary_bytes > 0:
            shippers = (report.reachable_sites
                        if report.reachable_sites is not None
                        else report.previous_sites)
            per_site = max(
                report.summary_bytes // max(len(shippers), 1), 1)
            for position in shippers:
                site = store.candidates[position]
                if site != coordinator:
                    self._ship_summary(site, coordinator, per_site)
        return report

    def _ship_summary(self, site: int, coordinator: int,
                      size_bytes: int) -> None:
        shipment_id = next(self.store._shipment_ids)

        def send() -> None:
            self._send(site, coordinator, "summary",
                       {"unit": self.unit_key, "shipment": shipment_id},
                       size_bytes)

        send()
        if self.store.retry_policy is None:
            return
        self._forget(self.pending_summaries, site)  # superseded by this copy
        self._track(_Shipment(
            self.pending_summaries, site, "summary_retries", send,
            lambda: self.store._count("summaries_lost"),
            shipment_id=shipment_id))

    def summary_received(self, site: int, shipment: int) -> None:
        """The coordinator got ``site``'s summary: acknowledge it — unless
        it is a delayed copy of a superseded shipment, while the current
        one is still in flight (its loss must stay observable)."""
        pending = self.pending_summaries.get(site)
        if pending is not None and shipment == pending.shipment_id:
            self._forget(self.pending_summaries, site)

    # ------------------------------------------------------------------
    # The one retry state machine (summary shipments, replica transfers)
    # ------------------------------------------------------------------
    def _track(self, shipment: _Shipment) -> None:
        """(Re-)arm ``shipment``'s timeout and keep it live."""
        shipment.pending[shipment.site] = shipment
        shipment.timeout_event = self._schedule(
            self.store.retry_policy.timeout_ms, self._on_timeout, shipment)

    @staticmethod
    def _forget(pending: dict, site: int) -> None:
        """Take ``site``'s shipment out of ``pending`` and cancel its timer."""
        shipment = pending.pop(site, None)
        if shipment is not None and shipment.timeout_event is not None:
            shipment.timeout_event.cancel()

    def _live(self, shipment: _Shipment) -> bool:
        """Unacknowledged and, for a transfer, its migration unsettled."""
        return (shipment.pending.get(shipment.site) is shipment
                and (shipment.pending is not self.pending_transfers
                     or self.target is not None))

    def _on_timeout(self, shipment: _Shipment) -> None:
        if not self._live(shipment):
            return
        shipment.timeout_event = None
        policy = self.store.retry_policy
        if shipment.attempts >= policy.max_attempts:
            del shipment.pending[shipment.site]
            shipment.give_up()
            return
        self.store._count(shipment.counter)
        backoff = policy.backoff_ms(shipment.attempts,
                                    rng=self.sim.rng("retry-jitter"))
        shipment.attempts += 1
        self._schedule(backoff, self._resend, shipment)

    def _resend(self, shipment: _Shipment) -> None:
        if not self._live(shipment):
            return  # acknowledged or completed while the backoff ran
        shipment.resend()
        self._track(shipment)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _send_transfer(self, target: int, reason: str) -> None:
        """Ship the unit from the closest holder that can reach ``target``.

        The one sender of migration and repair transfers.  Sources the
        target cannot be reached from are skipped when a reachable one
        exists, so a retry after a partial heal picks a working path;
        with none, the closest holder is used anyway and the network
        drops the message (the timeout then fires).
        """
        network = self.store.network
        sources = sorted(self.installed)
        usable = [s for s in sources if network.can_reach(s, target)]
        source = min(usable or sources,
                     key=lambda s: network.matrix.latency(s, target))
        replicas = self.store.servers[source].replicas
        self._send(source, target, "replicate",
                   {"versions": {key: replicas.get(key, 0)
                                 for key in self.members},
                    "unit": self.unit_key, "reason": reason},
                   self.total_size_bytes)

    def _migrate(self, old_positions: tuple[int, ...],
                 new_positions: tuple[int, ...]) -> None:
        """The controller's verdict: transfer to new sites, retire old
        ones after."""
        store = self.store
        new_sites = {store.candidates[p] for p in new_positions}
        self.target = new_sites
        self.awaiting = new_sites - self.installed
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("store.migrations.started").inc()
            registry.counter("store.migration_bytes").inc(
                self.total_size_bytes * len(self.awaiting))
            obs.get_tracer().record(
                obs.MIGRATION_START, time=self.sim.now, unit=self.unit_key,
                sources=sorted(self.installed), targets=sorted(new_sites),
                transfers=len(self.awaiting))
        if not self.awaiting:
            # Pure shrink (or reorder): retire immediately.
            self._finalize_migration()
            return
        for target in sorted(self.awaiting):
            self._send_transfer(target, "migration")
            if store.retry_policy is not None:
                self._track(_Shipment(
                    self.pending_transfers, target, "migration_retries",
                    lambda t=target: self._send_transfer(t, "migration"),
                    lambda t=target: self._abandon_transfer(t)))

    def _abandon_transfer(self, target: int) -> None:
        """Budget exhausted: abandon this target.  The finalize step
        rolls the placement back onto surviving sites."""
        self.abandoned.add(target)
        self.awaiting.discard(target)
        self.store._count("migrations_abandoned",
                          "store.migrations.abandoned")
        if not self.awaiting:
            self._finalize_migration()

    def migration_landed(self, node_id: int) -> None:
        """A migration transfer installed the unit on ``node_id``."""
        self._forget(self.pending_transfers, node_id)
        if node_id in self.abandoned:
            # A retried copy landed after the attempt budget ran out and
            # the rollback already excluded this site; drop the replica
            # rather than resurrect a half-abandoned migration.
            self.drop_from(node_id)
            return
        if self.target is None or node_id not in self.target:
            # Straggler: a duplicate delivery (original + retry both got
            # through) arriving after the migration finalized, or a copy
            # addressed to a site no current migration targets.  The
            # placement already settled without it — re-finalizing here
            # would corrupt it, so keep the bytes only if the site ended
            # up holding the unit anyway.
            if node_id not in self.installed:
                self.drop_from(node_id)
            return
        self.awaiting.discard(node_id)
        # New replicas serve reads as soon as they are installed.
        self.version += 1
        self.installed.add(node_id)
        if not self.awaiting:
            self._finalize_migration()

    def drop_from(self, site: int) -> None:
        """Drop every member's replica on ``site``."""
        replicas = self.store.servers[site].replicas
        for key in self.members:
            replicas.pop(key, None)
        self.version += 1

    def _finalize_migration(self) -> None:
        self.flush_folds()  # a rollback re-keys the summaries
        final, abandoned = set(self.target), self.abandoned
        if abandoned:
            # Roll back: abandoned targets never installed, so retain
            # the closest-numbered old sites instead — the degree of
            # replication is preserved through a failed migration.
            final -= abandoned
            for site in sorted(self.installed - final):
                if len(final) >= self.controller.k:
                    break
                final.add(site)
            self.store._count("migration_rollbacks")
        for site in sorted(self.installed - final):
            self.drop_from(site)
        self.version += 1
        self.installed = final
        self.target = None
        self.abandoned = set()
        if abandoned:
            # The controller adopted the proposal optimistically when the
            # verdict fired; re-align it with what actually happened.
            self._resync()
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("store.migrations.finished").inc()
            rollback = ({"rolled_back": True, "abandoned": sorted(abandoned)}
                        if abandoned else {})
            obs.get_tracer().record(
                obs.MIGRATION_FINISH, time=self.sim.now, unit=self.unit_key,
                sites=sorted(final), **rollback)

    # ------------------------------------------------------------------
    # Availability: failure handling and re-replication
    # ------------------------------------------------------------------
    def check_availability(self) -> None:
        """Drop dead replicas, re-adopt recovered ones, and re-replicate
        up to the target degree (auto-repair)."""
        store, network = self.store, self.store.network
        self.flush_folds()  # the resync below re-keys the summaries
        if self.target is not None:
            return  # a migration is in flight; let it settle first
        live = {s for s in self.installed if network.is_up(s)}
        target_k = self.controller.k
        # Recovered servers that still hold the replicas (durable disks)
        # rejoin for free, up to the target degree.
        for site in store.candidates:
            if len(live) >= target_k:
                break
            if (site not in live and network.is_up(site)
                    and store.servers[site].holds_unit(self)):
                live.add(site)
        if not live:
            return  # every replica is down: nothing to repair *from* yet
        if live != self.installed:
            self.version += 1
            self.installed = live
            self._resync()

        # Release repairs whose spare is down: the network drops
        # deliveries to a down node, so they can never land.
        self.awaiting = {s for s in self.awaiting if network.is_up(s)}
        if not store.auto_repair or len(self.installed) >= target_k:
            return
        # Re-replicate onto live non-holders that a holder can reach,
        # closest first (ties by candidate order), each sent from the
        # closest holder that reaches it.
        holders = sorted(self.installed)
        distance = {}
        for spare in store.candidates:
            reach = [network.matrix.latency(h, spare) for h in holders
                     if network.can_reach(h, spare)]
            if reach and spare not in self.installed | self.awaiting:
                distance[spare] = min(reach)
        needed = target_k - len(self.installed) - len(self.awaiting)
        for spare in sorted(distance, key=distance.get)[:max(needed, 0)]:
            self.awaiting.add(spare)
            store.repairs += 1
            self._send_transfer(spare, "repair")

    def repair_landed(self, node_id: int) -> None:
        """A repair transfer installed the unit on ``node_id``."""
        self.flush_folds()  # the resync below re-keys the summaries
        self.awaiting.discard(node_id)
        self.version += 1
        self.installed.add(node_id)
        self._resync()
