"""The one placement search: first-improvement single-swap descent.

Every placement search in the package — Algorithm 1's refinement
(:func:`repro.core.macro.place_replicas`), the write-aware and
λ-availability objectives, the ``kmedian`` and ``coded`` baselines — is
the same local search over a different score.  The search lives here
once; a caller supplies its own scoring arithmetic and, if "better" is
more than "smaller", its own acceptance rule.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["MAX_ROUNDS", "TOLERANCE", "improves", "swap_descent"]

Score = TypeVar("Score")

#: A swap must beat the incumbent by more than float noise.
TOLERANCE = 1e-12

#: Sweeps over every (slot, candidate) pair before the search gives up
#: on converging; it almost always stops after two or three.
MAX_ROUNDS = 8


def improves(value: float, best: float) -> bool:
    """Whether ``value`` undercuts ``best`` by more than the tolerance."""
    return value < best - TOLERANCE


def swap_descent(sites: Sequence[int], pool: Iterable[int],
                 score: Callable[[list[int]], Score], *,
                 max_rounds: int = MAX_ROUNDS,
                 better: Callable[[Score, Score], bool] = improves
                 ) -> tuple[list[int], Score]:
    """Swap one site at a time for an unused pool member while it helps.

    Each round visits the slots of ``sites`` in order and, per slot, the
    ``pool`` in order; a trial that ``better(trial_score, incumbent_score)``
    accepts is adopted at once (first improvement) and the scan carries
    on from the new incumbent.  The search stops after a round without
    an accepted swap, or after ``max_rounds``.  Returns the final sites
    and their score.

    >>> cost = [4.0, 1.0, 3.0, 0.5]
    >>> swap_descent([0, 2], range(4), lambda s: sum(cost[p] for p in s))
    ([3, 1], 1.5)
    """
    chosen = list(sites)
    pool = list(pool)
    best = score(chosen)
    in_use = set(chosen)
    for _ in range(max_rounds):
        improved = False
        for slot in range(len(chosen)):
            for candidate in pool:
                if candidate in in_use:
                    continue
                trial = chosen.copy()
                trial[slot] = candidate
                value = score(trial)
                if better(value, best):
                    chosen, best = trial, value
                    in_use = set(chosen)
                    improved = True
        if not improved:
            break
    return chosen, best
