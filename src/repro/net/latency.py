"""Round-trip-time matrix abstraction.

A :class:`LatencyMatrix` wraps a symmetric ``(n, n)`` array of round-trip
times in milliseconds, with a zero diagonal.  It is the single source of
network truth for the simulator, the coordinate systems (which try to
embed it) and the evaluation of placements (which always measures true
RTTs, as the paper does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["LatencyMatrix"]


@dataclass(frozen=True)
class LatencyMatrix:
    """Symmetric matrix of round-trip times between ``n`` nodes.

    Parameters
    ----------
    rtt:
        ``(n, n)`` array of round-trip times in milliseconds.  Must be
        symmetric with a zero diagonal and non-negative entries; ``inf``
        (an unreachable pair) is accepted, NaN is not.
    names:
        Optional node names; defaults to ``node-0 .. node-{n-1}``.
    """

    rtt: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        rtt = np.asarray(self.rtt, dtype=float)
        if rtt.ndim != 2 or rtt.shape[0] != rtt.shape[1]:
            raise ValueError(f"RTT matrix must be square, got shape {rtt.shape}")
        if rtt.shape[0] == 0:
            raise ValueError("RTT matrix must contain at least one node")
        if np.isnan(rtt).any():
            raise ValueError("RTT matrix must not contain NaN")
        if np.any(rtt < 0):
            raise ValueError("RTT matrix must be non-negative")
        if np.any(np.diag(rtt) != 0):
            raise ValueError("RTT matrix must have a zero diagonal")
        if not np.allclose(rtt, rtt.T, rtol=1e-9, atol=1e-9):
            raise ValueError("RTT matrix must be symmetric")
        object.__setattr__(self, "rtt", rtt)
        names = self.names or tuple(f"node-{i}" for i in range(rtt.shape[0]))
        if len(names) != rtt.shape[0]:
            raise ValueError(
                f"{len(names)} names supplied for {rtt.shape[0]} nodes"
            )
        object.__setattr__(self, "names", tuple(names))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.rtt.shape[0]

    def __len__(self) -> int:
        return self.n

    def latency(self, a: int, b: int) -> float:
        """Round-trip time between nodes ``a`` and ``b`` in milliseconds."""
        return float(self.rtt[a, b])

    def one_way(self, a: int, b: int) -> float:
        """One-way delay estimate: half the round-trip time."""
        return float(self.rtt[a, b]) / 2.0

    def submatrix(self, indices: Sequence[int]) -> "LatencyMatrix":
        """Restrict the matrix to ``indices`` (order preserved)."""
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            raise ValueError("cannot build an empty submatrix")
        return LatencyMatrix(
            self.rtt[np.ix_(idx, idx)],
            tuple(self.names[i] for i in idx),
        )

    def rows(self, sources: Sequence[int], targets: Sequence[int]) -> np.ndarray:
        """RTTs from each of ``sources`` to each of ``targets``.

        Returns an ``(len(sources), len(targets))`` array; this is the
        kernel the placement evaluators use.
        """
        src = np.asarray(list(sources), dtype=int)
        dst = np.asarray(list(targets), dtype=int)
        return self.rtt[np.ix_(src, dst)]

    # ------------------------------------------------------------------
    # Statistics used in the evaluation and docs
    # ------------------------------------------------------------------
    def pair_values(self) -> np.ndarray:
        """All off-diagonal RTTs (upper triangle) as a flat array."""
        iu = np.triu_indices(self.n, k=1)
        return self.rtt[iu]

    def median(self) -> float:
        """Median pairwise RTT in milliseconds."""
        return float(np.median(self.pair_values()))

    def percentile(self, q: float) -> float:
        """``q``-th percentile of pairwise RTTs."""
        return float(np.percentile(self.pair_values(), q))

    def triangle_violation_fraction(self, sample: int | None = None,
                                    rng: np.random.Generator | None = None) -> float:
        """Fraction of node triples violating the triangle inequality.

        Real internet RTT matrices violate the triangle inequality for a
        noticeable fraction of triples; this statistic lets tests confirm
        the synthetic matrix does too.  With ``sample`` set, that many
        random triples are checked instead of all ``O(n^3)``.
        """
        n = self.n
        if n < 3:
            return 0.0
        if sample is None:
            triples = (
                (i, j, k)
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            )
            total = n * (n - 1) * (n - 2) // 6
            violations = sum(1 for i, j, k in triples if self._violates(i, j, k))
            return violations / total
        rng = rng or np.random.default_rng(0)
        violations = 0
        for _ in range(sample):
            i, j, k = rng.choice(n, size=3, replace=False)
            if self._violates(int(i), int(j), int(k)):
                violations += 1
        return violations / sample

    def _violates(self, i: int, j: int, k: int) -> bool:
        a, b, c = self.rtt[i, j], self.rtt[j, k], self.rtt[i, k]
        return a > b + c or b > a + c or c > a + b

    def describe(self, tiv_sample: int = 3000) -> str:
        """A one-paragraph statistical summary of the matrix.

        Useful in logs and example scripts to sanity-check a generated
        or loaded matrix at a glance.
        """
        values = self.pair_values()
        rng = np.random.default_rng(0)
        tiv = self.triangle_violation_fraction(
            sample=min(tiv_sample, max(self.n ** 2, 10)), rng=rng)
        return (
            f"{self.n} nodes, {values.size} pairs; RTT ms: "
            f"min {values.min():.1f} / p25 {np.percentile(values, 25):.1f} / "
            f"median {np.median(values):.1f} / p75 {np.percentile(values, 75):.1f} / "
            f"p95 {np.percentile(values, 95):.1f} / max {values.max():.1f}; "
            f"triangle-inequality violations ~{tiv:.1%} of sampled triples"
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_condensed(values: Iterable[float], names: Sequence[str] | None = None
                       ) -> "LatencyMatrix":
        """Build from a condensed upper-triangle vector (scipy convention).

        Examples
        --------
        >>> m = LatencyMatrix.from_condensed([10.0, 50.0, 40.0])
        >>> m.latency(0, 2)
        50.0
        >>> m.median()
        40.0
        """
        vec = np.asarray(list(values), dtype=float)
        m = vec.size
        n = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
        if n * (n - 1) // 2 != m:
            raise ValueError(f"{m} values do not form a condensed matrix")
        rtt = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        rtt[iu] = vec
        rtt += rtt.T
        return LatencyMatrix(rtt, tuple(names) if names else ())
