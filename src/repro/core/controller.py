"""The replica placement control loop (Section III-C).

A :class:`ReplicationController` owns, for each current replica site, a
:class:`~repro.core.summarizer.ReplicaAccessSummary`.  The storage layer
reports every client access to it; periodically (the paper suggests
daily or weekly epochs) :meth:`run_epoch` gathers the summaries, runs
Algorithm 1 to propose new sites, prices the move, and migrates only if
the :class:`~repro.core.migration.MigrationPolicy` approves.  The
controller can also adapt the degree of replication *k* to demand.

The controller is deliberately simulator-agnostic: it neither schedules
events nor sends messages.  :class:`~repro.store.kvstore.ReplicatedStore`
wires it to the simulator, charges the summary shipping to the network
and calls :meth:`run_epoch` from a periodic process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.clustering.stream import MicroClusters
from repro.coords.space import EuclideanSpace
from repro.core.costs import CostTally
from repro.core.macro import DelayEstimator, place_replicas
from repro.core.migration import MigrationCostModel, MigrationPolicy, MigrationVerdict
from repro.core.readwrite import RWCostEstimator, place_replicas_rw
from repro.core.summarizer import ReplicaAccessSummary
from repro.net.domains import FailureDomains
from repro.placement.availability import (
    AvailabilityObjective,
    bound_transfers,
    refine_for_availability,
)

__all__ = ["ControllerConfig", "EpochReport", "ReplicationController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the control loop.

    Attributes
    ----------
    k:
        Initial degree of replication.
    max_micro_clusters:
        Per-replica micro-cluster budget *m*.
    radius_floor:
        Micro-cluster absorption floor (coordinate units = ms).
    use_bytes_weight:
        Weight macro-clustering by bytes instead of access counts.
    adaptive_k / k_min / k_max:
        Enable demand-driven adjustment of *k* within ``[k_min, k_max]``.
    demand_high / demand_low:
        Accesses per epoch above/below which *k* grows/shrinks by one.
    write_aware:
        Summarize writes separately and place with
        :func:`~repro.core.readwrite.place_replicas_rw`, pricing update
        fan-out between replicas.  ``False`` (default) reproduces the
        paper's read-mostly model, folding all accesses into one stream.
    availability_lambda:
        Weight λ (milliseconds per unit of pairwise co-failure risk) of
        the availability term added to the placement objective when the
        controller was built with a
        :class:`~repro.net.domains.FailureDomains` annotation.  ``0.0``
        (the default) reproduces the paper's latency-only decisions
        bit-for-bit — no refinement runs, no objective term is added.
    max_epoch_moves:
        Optional cap on the number of *new* replica sites one epoch may
        adopt, bounding the per-epoch migration burst a swing toward
        safer domains could otherwise demand.  ``None`` leaves bursts
        unbounded (the paper's behaviour).
    """

    k: int = 3
    max_micro_clusters: int = 100
    radius_floor: float = 5.0
    use_bytes_weight: bool = False
    adaptive_k: bool = False
    k_min: int = 1
    k_max: int = 7
    demand_high: int = 10_000
    demand_low: int = 100
    write_aware: bool = False
    availability_lambda: float = 0.0
    max_epoch_moves: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.max_micro_clusters < 1:
            raise ValueError("micro-cluster budget must be positive")
        if self.adaptive_k:
            if not 1 <= self.k_min <= self.k <= self.k_max:
                raise ValueError("need k_min <= k <= k_max with k_min >= 1")
            if self.demand_low >= self.demand_high:
                raise ValueError("demand_low must be below demand_high")
        if not self.availability_lambda >= 0:
            raise ValueError("availability lambda must be non-negative: "
                             f"availability_lambda={self.availability_lambda!r}")
        if self.max_epoch_moves is not None and self.max_epoch_moves < 1:
            raise ValueError("max_epoch_moves must be at least 1")


@dataclass(frozen=True)
class EpochReport:
    """What one placement epoch observed and decided.

    The trailing fields describe fault-tolerance state (docs/chaos.md):
    ``coordinator`` is the elected coordinator position and ``lease``
    its term; ``reachable_sites`` is the subset of replica sites whose
    summaries the coordinator could pool (``None`` = no restriction);
    ``degraded`` flags an epoch that ran without full visibility;
    ``stale_summaries_dropped`` counts replica sites whose pending
    summaries were discarded because the site was unreachable when the
    epoch ran; ``rejected`` marks a stale-lease epoch that was fenced
    off without running (its ``epoch`` repeats the last completed
    epoch's number, since the counter never advanced).
    """

    epoch: int
    k: int
    accesses: int
    previous_sites: tuple[int, ...]
    proposed_sites: tuple[int, ...]
    verdict: MigrationVerdict
    current_predicted_delay: float
    proposed_predicted_delay: float
    summary_bytes: int
    coordinator: int | None = None
    lease: int = 0
    reachable_sites: tuple[int, ...] | None = None
    degraded: bool = False
    stale_summaries_dropped: int = 0
    rejected: bool = False

    @property
    def migrated(self) -> bool:
        """Whether the proposed placement was adopted."""
        return self.verdict.migrate


class ReplicationController:
    """Runs the paper's gradual-migration loop for one data object.

    Parameters
    ----------
    dc_coords:
        ``(n_dc, d)`` *planar* coordinates of all candidate data centers
        (see :meth:`clustering_coords` for stripping height components).
    initial_sites:
        Candidate indices currently holding replicas; their count sets
        the initial ``k`` unless more than ``config.k`` are given: the
        list is then truncated to its first ``config.k`` entries.  A
        shorter list is not padded; the first adopted proposal has ``k``.
    config:
        :class:`ControllerConfig`.
    cost_model / policy:
        Migration pricing and go/no-go thresholds.
    on_migrate:
        Optional callback ``(old_sites, new_sites)`` fired after a
        migration is adopted — the storage layer moves the data there.
    domains:
        Optional :class:`~repro.net.domains.FailureDomains` annotation
        over the candidate positions.  Required for
        ``config.availability_lambda > 0`` (the λ-objective needs a
        co-failure model); ignored at λ = 0.
    """

    def __init__(self, dc_coords: np.ndarray,
                 initial_sites: Sequence[int],
                 config: ControllerConfig | None = None,
                 cost_model: MigrationCostModel | None = None,
                 policy: MigrationPolicy | None = None,
                 on_migrate: Callable[[tuple[int, ...], tuple[int, ...]], None]
                 | None = None,
                 domains: FailureDomains | None = None) -> None:
        self.dc_coords = np.atleast_2d(np.asarray(dc_coords, dtype=float))
        self.config = config or ControllerConfig()
        self.domains = domains
        if domains is not None and domains.n != self.dc_coords.shape[0]:
            raise ValueError(
                f"domains annotate {domains.n} positions but there are "
                f"{self.dc_coords.shape[0]} candidates")
        if self.config.availability_lambda > 0 and domains is None:
            raise ValueError(
                "availability_lambda > 0 needs a FailureDomains annotation")
        self.cost_model = cost_model or MigrationCostModel()
        self.policy = policy or MigrationPolicy()
        self.on_migrate = on_migrate
        self.tally = CostTally()
        self.k = self.config.k
        self.epoch = 0
        #: Elected coordinator (a site position) and its lease term.
        #: ``None`` until the first election; legacy callers that never
        #: elect keep running exactly as before.
        self.coordinator: int | None = None
        self.lease = 0
        self.failovers = 0

        sites = list(dict.fromkeys(int(s) for s in initial_sites))
        if not sites:
            raise ValueError("at least one initial replica site required")
        for s in sites:
            if not 0 <= s < self.dc_coords.shape[0]:
                raise ValueError(f"initial site {s} is not a candidate")
        self.sites: tuple[int, ...] = tuple(sites[:self.k])
        self._summaries: dict[int, ReplicaAccessSummary] = {}
        self._write_summaries: dict[int, ReplicaAccessSummary] = {}
        for s in self.sites:
            self._summaries[s] = self._new_summary()
            self._write_summaries[s] = self._new_summary()

    def sync_sites(self, sites: Sequence[int]) -> None:
        """Adopt an externally changed replica set (repair, recovery).

        The storage layer may add or remove replicas outside the epoch
        loop — e.g. re-replicating after a site failure.  Summaries of
        retained sites are kept; new sites start fresh ones.
        """
        new_sites = tuple(dict.fromkeys(int(s) for s in sites))
        if not new_sites:
            raise ValueError("a replica set cannot be empty")
        for s in new_sites:
            if not 0 <= s < self.dc_coords.shape[0]:
                raise ValueError(f"site {s} is not a candidate")
        self._summaries = {
            s: self._summaries.get(s) or self._new_summary()
            for s in new_sites
        }
        self._write_summaries = {
            s: self._write_summaries.get(s) or self._new_summary()
            for s in new_sites
        }
        self.sites = new_sites

    # ------------------------------------------------------------------
    # Access recording
    # ------------------------------------------------------------------
    def record_batch(self, site: int, client_coords: np.ndarray,
                     bytes_exchanged: np.ndarray | None = None,
                     kind: str = "read") -> None:
        """Report a block of accesses to the replica at ``site``.

        Rows of ``client_coords`` must already be in fold order;
        ``bytes_exchanged`` holds one weight per row (``None``: one unit
        each).  ``kind`` is ``"read"`` or ``"write"``.  Writes feed a
        separate summary stream only in write-aware mode; otherwise
        every access informs the single read-placement stream, as in
        the paper.  A site without a replica raises :class:`KeyError`
        *before* anything is folded, so a retired site's block is
        dropped whole.
        """
        if kind not in ("read", "write"):
            raise ValueError("kind must be 'read' or 'write'")
        if site not in self._summaries:
            raise KeyError(f"site {site} does not hold a replica")
        if kind == "write" and self.config.write_aware:
            self._write_summaries[site].record_batch(client_coords,
                                                     bytes_exchanged)
        else:
            self._summaries[site].record_batch(client_coords,
                                               bytes_exchanged)

    @staticmethod
    def clustering_coords(coords: np.ndarray, space: EuclideanSpace) -> np.ndarray:
        """Planar part of raw coordinates, for clustering and placement.

        Height components model per-node access delay, not position, so
        clustering uses only the planar embedding.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return coords[:, :space.dim] if space.use_height else coords

    # ------------------------------------------------------------------
    # Coordinator failover
    # ------------------------------------------------------------------
    def elect_coordinator(self, ranking: Sequence[int]) -> tuple[int, int]:
        """Adopt the first position of ``ranking`` as coordinator.

        ``ranking`` is the caller's deterministic successor order over
        live positions — typically the default coordinator first, then
        the live replica holders in sorted order (the storage layer
        builds it from its failure detector).  When the winner differs
        from the incumbent, the lease term advances, which fences any
        epoch still presented under the old term (see :meth:`run_epoch`'s
        ``lease`` parameter).  Returns ``(coordinator, lease)``.
        """
        candidates = [int(p) for p in ranking]
        if not candidates:
            raise ValueError("cannot elect from an empty ranking")
        winner = candidates[0]
        if winner != self.coordinator:
            if self.coordinator is not None:
                self.failovers += 1
                registry = obs.get_registry()
                if registry.enabled:
                    registry.counter("controller.failovers").inc()
            self.coordinator = winner
            self.lease += 1
        return self.coordinator, self.lease

    # ------------------------------------------------------------------
    # The epoch
    # ------------------------------------------------------------------
    def run_epoch(self, rng: np.random.Generator | None = None, *,
                  reachable: Sequence[int] | None = None,
                  eligible: Sequence[int] | None = None,
                  lease: int | None = None,
                  max_moves: int | None = None) -> EpochReport:
        """Collect summaries, run Algorithm 1, migrate if justified.

        Parameters
        ----------
        rng:
            Randomness for the clustering step.
        reachable:
            Site positions the coordinator can currently reach.  Only
            their summaries are pooled; summaries of unreachable sites
            are *discarded* (never shipped late into a future epoch —
            the "silently using stale summaries" failure mode).
            ``None`` (the default) means full visibility.
        eligible:
            Candidate positions that may receive replicas this epoch
            (e.g. the data centers reachable from the coordinator).
            When fewer than ``k`` candidates are eligible, the epoch
            completes without migrating rather than shedding replicas
            because of a partition.  ``None`` means all candidates.
        lease:
            The coordinator lease term this epoch runs under.  A term
            older than the controller's current lease identifies a
            stale coordinator re-entering after a failover; its epoch
            is rejected without touching any state.
        max_moves:
            One-epoch override of ``config.max_epoch_moves`` — a
            sharded catalog passes what is left of a *global* migration
            budget here.  ``0`` (an exhausted budget) forbids adopting
            any new site this epoch while still allowing shrinks, which
            transfer nothing.  ``None`` (the default) defers to the
            static configuration.
        """
        registry = obs.get_registry()
        if lease is not None and lease < self.lease:
            if registry.enabled:
                registry.counter("controller.stale_epochs_rejected").inc()
            verdict = MigrationVerdict(
                False, 0.0, 0.0, 0.0,
                f"stale coordinator lease {lease} rejected "
                f"(current {self.lease})")
            return EpochReport(self.epoch, self.k, 0, self.sites, self.sites,
                               verdict, 0.0, 0.0, 0,
                               coordinator=self.coordinator, lease=self.lease,
                               rejected=True)

        rng = rng or np.random.default_rng(self.epoch)
        self.epoch += 1
        self.tally.epochs += 1

        reachable_sites: tuple[int, ...] | None = None
        stale_dropped = 0
        if reachable is not None:
            reachable_set = {int(s) for s in reachable} & set(self.sites)
            reachable_sites = tuple(s for s in self.sites
                                    if s in reachable_set)
            for site in self.sites:
                if site in reachable_set:
                    continue
                # Unreachable this epoch: its summary covers a window the
                # coordinator never saw end-to-end — discard rather than
                # let it leak, stale, into a later epoch.  Counted once
                # per site, even when both a read and a write stream held
                # data.
                had_data = False
                for summaries in (self._summaries, self._write_summaries):
                    summary = summaries[site]
                    if summary.accesses > 0:
                        had_data = True
                    summary.reset()
                if had_data:
                    stale_dropped += 1
            if registry.enabled and stale_dropped:
                registry.counter(
                    "controller.stale_summaries_dropped").inc(stale_dropped)
            pooled_from = reachable_set
        else:
            pooled_from = set(self.sites)

        accesses = sum(s.accesses for site, s in self._summaries.items()
                       if site in pooled_from)
        accesses += sum(s.accesses
                        for site, s in self._write_summaries.items()
                        if site in pooled_from)
        pooled = MicroClusters.concat(
            [s.clusters for site, s in self._summaries.items()
             if site in pooled_from])
        pooled_writes = MicroClusters.concat(
            [s.clusters for site, s in self._write_summaries.items()
             if site in pooled_from])
        summary_bytes = pooled.wire_size_bytes + pooled_writes.wire_size_bytes
        self.tally.summary_bytes += summary_bytes
        if not self.config.write_aware:
            # Paper mode: writes (if any were recorded) already live in
            # the read stream; nothing extra to pool.
            pooled_writes = MicroClusters.empty()

        if self.config.adaptive_k:
            self._adapt_k(accesses)

        eligible_idx: np.ndarray | None = None
        if eligible is not None:
            eligible_idx = np.array(sorted({int(p) for p in eligible}),
                                    dtype=int)
            if eligible_idx.size and (
                    eligible_idx.min() < 0
                    or eligible_idx.max() >= self.dc_coords.shape[0]):
                raise ValueError("eligible positions outside candidates")
        degraded = ((reachable_sites is not None
                     and set(reachable_sites) != set(self.sites))
                    or (eligible_idx is not None
                        and eligible_idx.size < self.dc_coords.shape[0]))
        if registry.enabled and degraded:
            registry.counter("controller.epochs_degraded").inc()

        previous_sites = self.sites
        extra = dict(coordinator=self.coordinator,
                     lease=self.lease if lease is None else lease,
                     reachable_sites=reachable_sites, degraded=degraded,
                     stale_summaries_dropped=stale_dropped)
        if not len(pooled) and not len(pooled_writes):
            # Nobody (reachable) accessed the object this epoch.
            reason = ("no reachable summaries this epoch"
                      if reachable_sites is not None and not reachable_sites
                      else "no accesses observed")
            verdict = MigrationVerdict(False, 0.0, 0.0, 0.0, reason)
            report = EpochReport(self.epoch, self.k, 0, previous_sites,
                                 previous_sites, verdict, 0.0, 0.0, 0,
                                 **extra)
            self._roll_summaries(migrated=False)
            return report

        if eligible_idx is not None and eligible_idx.size < self.k:
            # A partition has hidden too many candidates: degrade to a
            # no-op epoch instead of shedding replicas we still own.
            verdict = MigrationVerdict(
                False, 0.0, 0.0, 0.0,
                f"only {eligible_idx.size} reachable candidates for k={self.k}")
            report = EpochReport(self.epoch, self.k, accesses, previous_sites,
                                 previous_sites, verdict, 0.0, 0.0,
                                 summary_bytes, **extra)
            self._roll_summaries(migrated=False)
            return report

        placement_coords = (self.dc_coords if eligible_idx is None
                            else self.dc_coords[eligible_idx])
        lam = (self.config.availability_lambda if self.domains is not None
               else 0.0)
        cap = (self.config.max_epoch_moves if max_moves is None
               else max(int(max_moves), 0))
        with registry.phase("controller.clustering"):
            # One estimator per epoch: every placement this epoch weighs
            # — incumbent, proposal, each refinement and trim trial — is
            # priced from its one (micro-cluster × candidate) matrix.
            if self.config.write_aware:
                estimator = RWCostEstimator(pooled, pooled_writes,
                                            self.dc_coords)
                proposed_sites = place_replicas_rw(
                    pooled, pooled_writes, self.k, placement_coords,
                    rng).data_centers
            else:
                estimator = DelayEstimator(pooled, self.dc_coords)
                proposed_sites = place_replicas(
                    pooled, self.k, placement_coords, rng,
                    self.config.use_bytes_weight).data_centers
            if eligible_idx is not None:
                # Map positions within the eligible subset back to
                # candidate positions — a migration can never target a
                # partitioned-away data center, by construction.
                proposed_sites = tuple(int(eligible_idx[p])
                                       for p in proposed_sites)
            # Delay plus λ·risk; at λ = 0 the delay alone, so the paper's
            # pure-latency comparison runs untouched.
            objective = AvailabilityObjective(estimator.delay, self.domains,
                                              lam)
            if lam > 0.0:
                proposed_sites = tuple(refine_for_availability(
                    proposed_sites, estimator.delay, self.domains, lam,
                    eligible=(None if eligible_idx is None
                              else eligible_idx.tolist())))
            if cap is not None:
                if cap < 1:
                    # Exhausted budget: no new sites may be adopted at
                    # all.  ``bound_transfers`` cannot express a zero cap,
                    # so the proposal collapses to the current placement
                    # unless it is a pure shrink/reorder (which transfers
                    # nothing).
                    if set(proposed_sites) - set(previous_sites):
                        proposed_sites = previous_sites
                else:
                    proposed_sites = tuple(bound_transfers(
                        previous_sites, proposed_sites, cap, objective))
            current_delay = estimator.delay(previous_sites)
            proposed_delay = estimator.delay(proposed_sites)
        if len(proposed_sites) < len(previous_sites):
            # Shedding replicas can never *reduce* delay, so the latency
            # threshold would block it forever.  A shrink is a cost
            # decision (demand fell below the watermark): adopt the
            # proposal outright — dropping replicas is free.
            verdict = MigrationVerdict(
                True,
                current_delay - proposed_delay,
                0.0,
                self.cost_model.cost_of_move(previous_sites,
                                             proposed_sites),
                "degree of replication reduced to match demand",
            )
        else:
            # Under the λ-objective the policy must weigh the *combined*
            # costs, or a move that pays a little latency for a lot of
            # safety would always be vetoed.
            verdict = self.policy.decide(objective(previous_sites),
                                         objective(proposed_sites),
                                         self.cost_model, previous_sites,
                                         proposed_sites)
        if verdict.migrate:
            self.sites = proposed_sites
            self.tally.migrations += 1
            self.tally.migration_dollars += verdict.cost_dollars
            if self.on_migrate is not None:
                self.on_migrate(previous_sites, self.sites)

        report = EpochReport(
            epoch=self.epoch,
            k=self.k,
            accesses=accesses,
            previous_sites=previous_sites,
            proposed_sites=proposed_sites,
            verdict=verdict,
            current_predicted_delay=current_delay,
            proposed_predicted_delay=proposed_delay,
            summary_bytes=summary_bytes,
            **extra,
        )
        self._roll_summaries(migrated=verdict.migrate)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_summary(self) -> ReplicaAccessSummary:
        return ReplicaAccessSummary(self.config.max_micro_clusters,
                                    self.config.radius_floor)

    def _roll_summaries(self, migrated: bool) -> None:
        """Refresh per-site summaries after an epoch.

        On migration every new site starts a fresh summary; otherwise
        each summary resets (the paper's new observation window).
        """
        if migrated:
            self._summaries = {s: self._new_summary() for s in self.sites}
            self._write_summaries = {s: self._new_summary()
                                     for s in self.sites}
            return
        for summaries in (self._summaries, self._write_summaries):
            for summary in summaries.values():
                summary.reset()

    def _adapt_k(self, accesses: int) -> None:
        if accesses >= self.config.demand_high and self.k < self.config.k_max:
            self.k += 1
            self.tally.notes.append(
                f"epoch {self.epoch}: demand {accesses} high, k -> {self.k}"
            )
        elif accesses <= self.config.demand_low and self.k > self.config.k_min:
            self.k -= 1
            self.tally.notes.append(
                f"epoch {self.epoch}: demand {accesses} low, k -> {self.k}"
            )
