"""Online clustering placement — the paper's contribution (Section III).

The strategy reproduces how the deployed system behaves, compressed into
a batch call so it can be compared head-to-head with the alternatives:

1. replicas start at random candidate sites (there is no information
   yet, matching the paper's gradual-migration story);
2. an access stream runs: every client accesses its closest current
   replica, and that replica folds the client's coordinates into its
   :class:`~repro.core.summarizer.ReplicaAccessSummary` (at most *m*
   micro-clusters per replica);
3. the coordinator pools the summaries and runs Algorithm 1
   (:func:`~repro.core.macro.place_replicas`) to propose new sites;
4. steps 2–3 repeat for ``migration_rounds`` rounds, modelling the
   periodic epochs by which replicas gradually migrate.

Only ``k·m`` micro-clusters ever travel to the coordinator per round —
the bandwidth accounting is exposed through :attr:`last_summary_bytes`
and feeds the Table II benchmark.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.macro import place_replicas
from repro.core.summarizer import ReplicaAccessSummary
from repro.kernels import wkmeans as _wk
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = ["OnlineClusteringPlacement"]


class OnlineClusteringPlacement(PlacementStrategy):
    """The paper's online micro-cluster placement algorithm.

    Parameters
    ----------
    micro_clusters:
        Per-replica budget *m* (the paper finds m ≈ 4 already near-
        optimal; its cost examples use 100).
    migration_rounds:
        Placement epochs to run; each epoch observes a fresh access
        stream against the current sites then migrates.
    accesses_per_client:
        Accesses each client issues per epoch.
    radius_floor:
        Micro-cluster absorption floor (ms), see
        :class:`~repro.clustering.stream.OnlineClusterer`.
    selection:
        How clients choose which replica to access while summaries are
        being built: ``"coords"`` (predict with network coordinates, the
        deployable behaviour) or ``"true"`` (oracle lowest-latency).
    summary_loss:
        Probability that a replica's summary is lost on its way to the
        coordinator each round (a lossy wide-area control channel, the
        batch analogue of the chaos harness's flaky links).  A lost
        summary's micro-clusters simply do not inform that round's
        placement; its bytes are still charged — the transmission
        happened, the delivery did not.  ``0.0`` is the paper's
        fault-free behaviour.
    """

    name = "online clustering"

    def __init__(self, micro_clusters: int = 10, migration_rounds: int = 2,
                 accesses_per_client: int = 3, radius_floor: float = 5.0,
                 selection: str = "coords",
                 summary_loss: float = 0.0) -> None:
        if micro_clusters < 1:
            raise ValueError("micro-cluster budget must be positive")
        if migration_rounds < 1:
            raise ValueError("need at least one migration round")
        if accesses_per_client < 1:
            raise ValueError("clients must access at least once")
        if selection not in ("coords", "true"):
            raise ValueError("selection must be 'coords' or 'true'")
        if not 0.0 <= summary_loss < 1.0:
            raise ValueError("summary loss must lie in [0, 1)")
        self.micro_clusters = micro_clusters
        self.migration_rounds = migration_rounds
        self.accesses_per_client = accesses_per_client
        self.radius_floor = radius_floor
        self.selection = selection
        self.summary_loss = summary_loss
        #: Control-plane bytes shipped during the most recent place().
        self.last_summary_bytes = 0
        #: Summaries dropped by the lossy channel in the last place().
        self.last_summaries_lost = 0

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        registry = obs.get_registry()
        with registry.phase("placement.online.place"):
            sites = self._place(problem, rng)
        if registry.enabled:
            registry.counter("placement.online.rounds").inc(
                self.migration_rounds)
            registry.counter("placement.online.summary_bytes").inc(
                self.last_summary_bytes)
            if self.last_summaries_lost:
                registry.counter("placement.online.summaries_lost").inc(
                    self.last_summaries_lost)
        return sites

    def _place(self, problem: PlacementProblem,
               rng: np.random.Generator) -> tuple[int, ...]:
        coords = problem.require_coords()
        candidate_coords = problem.candidate_coords()
        client_coords = problem.client_coords()
        k = problem.effective_k

        # Epoch 0: random initial sites (positions into candidates).
        positions = list(rng.choice(len(problem.candidates), size=k,
                                    replace=False))
        self.last_summary_bytes = 0
        self.last_summaries_lost = 0

        for _ in range(self.migration_rounds):
            summaries = {pos: ReplicaAccessSummary(self.micro_clusters,
                                                   self.radius_floor)
                         for pos in positions}
            choice = self._client_choices(problem, positions)
            # Batched equivalent of recording each client's accesses one
            # by one: per replica, its clients in row order, each row
            # repeated accesses_per_client times — the same absorption
            # sequence, run through the block kernel.
            for pos in positions:
                rows = np.nonzero(choice == pos)[0]
                if rows.size:
                    block = np.repeat(client_coords[rows],
                                      self.accesses_per_client, axis=0)
                    summaries[pos].record_batch(block)

            pooled = []
            for summary in summaries.values():
                self.last_summary_bytes += summary.wire_size_bytes()
                if (self.summary_loss > 0.0
                        and rng.random() < self.summary_loss):
                    self.last_summaries_lost += 1
                    continue
                pooled.extend(summary.snapshot())
            if not pooled:
                # Every summary was lost: nothing to learn this round,
                # keep the current placement rather than moving blind.
                continue
            decision = place_replicas(pooled, k, candidate_coords, rng,
                                      dc_heights=problem.candidate_heights())
            positions = list(decision.data_centers)

        sites = [problem.candidates[p] for p in positions]
        return self._check(problem, sites)

    def _client_choices(self, problem: PlacementProblem,
                        positions: list[int]) -> np.ndarray:
        """Which current replica (by position list index) each client uses."""
        site_nodes = [problem.candidates[p] for p in positions]
        if self.selection == "true":
            block = problem.matrix.rows(problem.clients, site_nodes)
            return np.asarray(positions)[np.argmin(block, axis=1)]
        client_coords = problem.client_coords()
        coords = problem.require_coords()
        site_coords = coords[site_nodes]
        site_heights = (np.zeros(len(site_nodes)) if problem.heights is None
                        else problem.heights[site_nodes])
        dists = _wk.cross_distances(client_coords, site_coords,
                                    b_heights=site_heights)
        return np.asarray(positions)[np.argmin(dists, axis=1)]
