"""Migration cost/benefit policy (Section III-C).

The paper migrates replicas only when "the gain in the quality of
service (e.g., reduction in latency) compared to the migration cost is
higher than a certain threshold", citing Amazon's $0.1/GB transfer
pricing.  :class:`MigrationCostModel` prices a proposed move;
:class:`MigrationPolicy` turns predicted delays plus that price into a
go/no-go verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["MigrationCostModel", "MigrationPolicy", "MigrationVerdict",
           "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry with exponential backoff + jitter for transfers.

    Applied by the store to migration transfers and micro-cluster
    summary shipping: an unacknowledged transfer is retried after an
    exponentially growing backoff, and abandoned (rolled back) once the
    attempt budget is exhausted.  Jitter is drawn from a simulator RNG
    stream, so runs remain bit-deterministic.

    Parameters
    ----------
    timeout_ms:
        How long to wait for a transfer acknowledgement before the
        attempt is considered failed.
    max_attempts:
        Total attempts (first try included) before giving up.
    base_backoff_ms / backoff_factor / max_backoff_ms:
        Attempt *i* (1-based) waits ``base * factor**(i-1)`` ms after
        its timeout, capped at ``max_backoff_ms``.
    jitter:
        Relative jitter: the backoff is scaled by a uniform draw from
        ``[1 - jitter, 1 + jitter]``.
    """

    timeout_ms: float = 5_000.0
    max_attempts: int = 4
    base_backoff_ms: float = 500.0
    backoff_factor: float = 2.0
    max_backoff_ms: float = 30_000.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0 < self.timeout_ms < math.inf:
            raise ValueError("timeout must be positive and finite: "
                             f"timeout_ms={self.timeout_ms!r}")
        if not self.max_attempts >= 1:
            raise ValueError("need at least one attempt: "
                             f"max_attempts={self.max_attempts!r}")
        for name in ("base_backoff_ms", "max_backoff_ms"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"backoff must be non-negative: "
                                 f"{name}={getattr(self, name)!r}")
        if not self.backoff_factor >= 1.0:
            raise ValueError("backoff factor must be >= 1: "
                             f"backoff_factor={self.backoff_factor!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")

    def backoff_ms(self, attempt: int,
                   rng: np.random.Generator | None = None) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        delay = min(self.base_backoff_ms * self.backoff_factor ** (attempt - 1),
                    self.max_backoff_ms)
        if self.jitter > 0 and rng is not None:
            delay *= float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
        return delay


@dataclass(frozen=True)
class MigrationCostModel:
    """Prices replica movement.

    Parameters
    ----------
    dollars_per_gb:
        Wide-area transfer price (the paper quotes $0.1/GB on EC2).
    object_size_gb:
        Size of the replicated object (or object group).
    """

    dollars_per_gb: float = 0.10
    object_size_gb: float = 1.0

    #: Examples
    #: --------
    #: >>> model = MigrationCostModel(dollars_per_gb=0.10, object_size_gb=5.0)
    #: >>> model.cost_of_move((1, 2), (2, 3))       # one new site, 5 GB
    #: 0.5

    def __post_init__(self) -> None:
        if self.dollars_per_gb < 0:
            raise ValueError("price must be non-negative")
        if self.object_size_gb <= 0:
            raise ValueError("object size must be positive")

    def cost_of_move(self, current: Sequence[int], proposed: Sequence[int]) -> float:
        """Dollar cost of migrating from ``current`` to ``proposed`` sites.

        Each replica created at a site not already holding one is a full
        object transfer; dropped replicas are free.
        """
        return (self.transfers_of_move(current, proposed)
                * self.dollars_per_gb * self.object_size_gb)

    def transfers_of_move(self, current: Sequence[int],
                          proposed: Sequence[int]) -> int:
        """Number of full object transfers the move requires.

        The per-epoch burst metric behind the controller's
        ``max_epoch_moves`` cap: every proposed site not already holding
        a replica must be seeded with one object-sized transfer.
        """
        return len(set(proposed) - set(current))


@dataclass(frozen=True)
class MigrationVerdict:
    """Outcome of a migration decision, kept for reporting."""

    migrate: bool
    gain_ms: float
    relative_gain: float
    cost_dollars: float
    reason: str


class MigrationPolicy:
    """Decides whether a proposed placement is worth migrating to.

    Parameters
    ----------
    min_relative_gain:
        Required relative reduction in predicted mean delay, e.g. ``0.05``
        demands a 5 % improvement.  This is the paper's "threshold"; it
        suppresses oscillation between near-equivalent placements.
    min_absolute_gain_ms:
        Additional absolute floor (milliseconds) so tiny delays don't
        trigger moves on noise.
    max_cost_dollars:
        Optional hard budget per migration; ``None`` disables it.
    """

    def __init__(self, min_relative_gain: float = 0.05,
                 min_absolute_gain_ms: float = 1.0,
                 max_cost_dollars: float | None = None) -> None:
        # Written so that NaN fails every check.
        if not min_relative_gain >= 0:
            raise ValueError("relative gain threshold must be non-negative: "
                             f"min_relative_gain={min_relative_gain!r}")
        if not min_absolute_gain_ms >= 0:
            raise ValueError("absolute gain threshold must be non-negative: "
                             f"min_absolute_gain_ms={min_absolute_gain_ms!r}")
        if max_cost_dollars is not None and not max_cost_dollars >= 0:
            raise ValueError("cost budget must be non-negative: "
                             f"max_cost_dollars={max_cost_dollars!r}")
        self.min_relative_gain = min_relative_gain
        self.min_absolute_gain_ms = min_absolute_gain_ms
        self.max_cost_dollars = max_cost_dollars

    def decide(self, current_delay_ms: float, proposed_delay_ms: float,
               cost_model: MigrationCostModel,
               current_sites: Sequence[int],
               proposed_sites: Sequence[int]) -> MigrationVerdict:
        """Compare predicted delays and price; return the verdict."""
        if current_delay_ms < 0 or proposed_delay_ms < 0:
            raise ValueError("delays must be non-negative")
        gain = current_delay_ms - proposed_delay_ms
        relative = gain / current_delay_ms if current_delay_ms > 0 else 0.0
        cost = cost_model.cost_of_move(current_sites, proposed_sites)

        if set(proposed_sites) == set(current_sites):
            return MigrationVerdict(False, gain, relative, 0.0,
                                    "placement unchanged")
        if gain < self.min_absolute_gain_ms:
            return MigrationVerdict(False, gain, relative, cost,
                                    "absolute gain below threshold")
        if relative < self.min_relative_gain:
            return MigrationVerdict(False, gain, relative, cost,
                                    "relative gain below threshold")
        if self.max_cost_dollars is not None and cost > self.max_cost_dollars:
            return MigrationVerdict(False, gain, relative, cost,
                                    "migration cost over budget")
        return MigrationVerdict(True, gain, relative, cost, "gain justifies move")
