"""Availability-aware replica placement over hierarchical failure domains.

The paper's strategies (Section IV) minimize predicted mean access
latency and nothing else, so on a world where the closest candidates
share a rack they will happily stack every replica into one blast
radius.  Following Mills et al. (and the Availability Aware Continuous
Replica Placement Problem line of work), this module re-scores a
latency-only placement under the combined objective

    objective(sites) = predicted_mean_delay(sites)
                       + λ · cofailure_risk(sites)

where :meth:`repro.net.domains.FailureDomains.cofailure_risk` is the
mean pairwise co-failure probability of the placement and λ (in
milliseconds per unit of risk) prices how much extra latency one is
willing to pay to move a replica pair out of a shared failure domain.
λ = 0 is a hard contract, not a tendency: the refinement is skipped
entirely and the latency-only decision is returned bit-for-bit.

The combined objective is one callable, :class:`AvailabilityObjective`,
and the search over it is the package's one swap search
(:func:`repro.core.search.swap_descent`, with its tolerance and round
limit).  Three entry points, one per layer:

* :func:`refine_for_availability` — that search on the combined
  objective, in the caller's position frame (used by the epoch
  controller);
* :class:`AvailabilityAwarePlacement` — a strategy wrapper for the
  offline evaluation path (:mod:`repro.placement`);
* :func:`bound_transfers` — caps the number of *new* sites a proposed
  placement may introduce over the incumbent, trading the least
  objective value for the smallest migration burst (used by the
  controller's ``max_epoch_moves`` knob).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.search import swap_descent
from repro.net.domains import FailureDomains
from repro.placement.base import PlacementProblem, PlacementStrategy

__all__ = [
    "AvailabilityAwarePlacement",
    "AvailabilityObjective",
    "bound_transfers",
    "refine_for_availability",
]


@dataclass(frozen=True)
class AvailabilityObjective:
    """``delay_of(sites) + λ · cofailure_risk(sites)`` as one callable.

    With ``lam`` = 0 the value is ``delay_of(sites)`` alone — no term is
    added, so ``domains`` may then be ``None``.
    """

    delay_of: Callable[[Sequence[int]], float]
    domains: FailureDomains | None
    lam: float

    def __call__(self, sites: Sequence[int]) -> float:
        value = self.delay_of(sites)
        if self.lam > 0.0:
            value += self.lam * self.domains.cofailure_risk(sites)
        return value


def refine_for_availability(
        sites: Sequence[int],
        delay_of: Callable[[list[int]], float],
        domains: FailureDomains,
        lam: float,
        *,
        eligible: Sequence[int] | None = None) -> list[int]:
    """Greedy single-swap descent on ``delay + λ·risk``.

    Parameters
    ----------
    sites:
        Starting placement, as positions in ``domains``'s frame (for the
        controller that is the candidate-position frame).
    delay_of:
        Callable returning the predicted mean delay of a position list —
        the *same* estimator that produced the latency-only proposal, so
        λ prices risk against exactly the quantity the migration policy
        reasons about.
    eligible:
        Optional iterable of positions that may host a replica (down or
        fenced sites excluded).  Defaults to every position.

    With ``lam <= 0`` the input is returned unchanged (λ=0 bit-identity
    contract).  Otherwise :func:`~repro.core.search.swap_descent` tries
    to swap every chosen site for every unused eligible position, in
    ascending position order, on the combined objective.
    """
    chosen = [int(s) for s in sites]
    if lam <= 0.0 or not chosen:
        return chosen
    if len(set(chosen)) != len(chosen):
        raise ValueError("placement sites must be distinct")
    if eligible is None:
        pool = range(domains.n)
    else:
        pool = sorted({int(p) for p in eligible})
    for p in (*chosen, *pool):
        if not 0 <= p < domains.n:
            raise ValueError(f"position {p} outside {domains.n} domains")
    return swap_descent(chosen, pool,
                        AvailabilityObjective(delay_of, domains, lam))[0]


def bound_transfers(
        previous: Sequence[int],
        proposed: Sequence[int],
        limit: int | None,
        objective: Callable[[list[int]], float]) -> list[int]:
    """Cap how many *new* sites ``proposed`` introduces over ``previous``.

    Every site in the proposal that is not already installed costs one
    full object transfer when adopted (:meth:`MigrationCostModel
    .transfers_of_move`), so a placement that swings far toward safer
    domains can demand an unbounded migration burst in a single epoch.
    While the proposal exceeds ``limit`` new sites, the (new site,
    previously-installed site) substitution with the smallest combined-
    objective value is applied — ties broken by lowest site pair, so the
    trim is deterministic.  Growth proposals whose extra sites cannot be
    matched by droppable incumbents (``proposed`` larger than
    ``previous``) are left to exceed the cap by the growth amount.
    """
    result = [int(p) for p in proposed]
    if limit is None:
        return result
    if limit < 1:
        raise ValueError("transfer limit must be at least 1")
    prev = [int(p) for p in previous]
    while True:
        added = sorted(set(result) - set(prev))
        if len(added) <= limit:
            return result
        droppable = sorted(set(prev) - set(result))
        if not droppable:
            return result
        best: tuple[float, int, int] | None = None
        for new_site in added:
            slot = result.index(new_site)
            for keep_site in droppable:
                trial = list(result)
                trial[slot] = keep_site
                key = (objective(trial), new_site, keep_site)
                if best is None or key < best:
                    best = key
        _, new_site, keep_site = best
        result[result.index(new_site)] = keep_site


class AvailabilityAwarePlacement(PlacementStrategy):
    """Wrap any latency-only strategy with the λ-availability refinement.

    The base strategy proposes sites; with λ > 0 the proposal is refined
    by :func:`refine_for_availability` against the true-RTT mean delay
    (the same yardstick
    :func:`~repro.placement.base.average_access_delay` reports), using a
    :class:`FailureDomains` annotation over the problem's candidate
    positions.  With λ = 0 the base strategy's answer is returned
    untouched — bit-for-bit the latency-only decision.
    """

    def __init__(self, base: PlacementStrategy, domains: FailureDomains,
                 availability_lambda: float) -> None:
        if not availability_lambda >= 0:
            raise ValueError("availability_lambda must be non-negative, "
                             f"got {availability_lambda!r}")
        self.base = base
        self.domains = domains
        self.availability_lambda = float(availability_lambda)
        self.name = (f"availability({base.name}, "
                     f"lam={self.availability_lambda:g})")

    def place(self, problem: PlacementProblem,
              rng: np.random.Generator) -> tuple[int, ...]:
        sites = self.base.place(problem, rng)
        if self.availability_lambda == 0.0:
            return sites
        if self.domains.n != len(problem.candidates):
            raise ValueError(
                f"domains annotate {self.domains.n} positions but the "
                f"problem has {len(problem.candidates)} candidates")
        position_of = {node: pos
                       for pos, node in enumerate(problem.candidates)}

        # Trials are hypothetical placements, not served accesses: they
        # are scored from the RTT block itself, never through
        # ``average_access_delay``, which books every call as traffic.
        block = problem.matrix.rows(problem.clients, problem.candidates)

        def delay_of(positions: list[int]) -> float:
            return float(block[:, positions].min(axis=1).mean())

        refined = refine_for_availability(
            [position_of[s] for s in sites], delay_of, self.domains,
            self.availability_lambda)
        return self._check(
            problem, tuple(problem.candidates[p] for p in refined))
