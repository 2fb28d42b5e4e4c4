"""Client populations and object popularity models."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.topology import GeoTopology

__all__ = ["ClientPopulation", "ZipfObjectPopularity"]

#: Weights one chunk of a modulated :meth:`ClientPopulation.sample_block`
#: holds at once (rows × clients): each CDF temporary stays at half a
#: megabyte however long the block.
_CHUNK_ELEMENTS = 1 << 16


class ClientPopulation:
    """Which client nodes issue requests, and how intensely.

    A population is a set of client node ids with non-negative base
    weights; sampling draws a client proportionally to weight (times any
    temporal modulation the workload applies).

    Use the constructors:

    * :meth:`uniform` — equal weight for every client (the paper's
      evaluation setting);
    * :meth:`region_weighted` — weight clients by their geographic
      region, e.g. to model a service popular in Europe;
    * the plain constructor for explicit weights.
    """

    def __init__(self, clients: Sequence[int],
                 weights: Sequence[float] | None = None) -> None:
        self.clients = tuple(int(c) for c in clients)
        if not self.clients:
            raise ValueError("population needs at least one client")
        if len(set(self.clients)) != len(self.clients):
            raise ValueError("client ids must be distinct")
        if weights is None:
            self.weights = np.ones(len(self.clients))
        else:
            self.weights = np.asarray(list(weights), dtype=float)
            if self.weights.shape != (len(self.clients),):
                raise ValueError("one weight per client required")
            if not np.isfinite(self.weights).all():
                raise ValueError("weights must be finite")
            if np.any(self.weights < 0) or self.weights.sum() <= 0:
                raise ValueError("weights must be non-negative, sum positive")

    def __len__(self) -> int:
        return len(self.clients)

    @staticmethod
    def uniform(clients: Sequence[int]) -> "ClientPopulation":
        """Every client equally likely — the paper's setting."""
        return ClientPopulation(clients)

    @staticmethod
    def region_weighted(clients: Sequence[int], topology: GeoTopology,
                        region_weights: dict[str, float],
                        default_weight: float = 1.0) -> "ClientPopulation":
        """Weight each client by its region's weight.

        Parameters
        ----------
        region_weights:
            Map region name -> relative intensity; unlisted regions get
            ``default_weight``.
        """
        if default_weight < 0:
            raise ValueError("default weight must be non-negative")
        weights = [
            float(region_weights.get(topology.region_name(c), default_weight))
            for c in clients
        ]
        return ClientPopulation(clients, weights)

    @staticmethod
    def hotspot(clients: Sequence[int], matrix, anchor: int,
                exponent: float = 2.0) -> "ClientPopulation":
        """Weight clients by proximity to an anchor node.

        Client ``c`` gets weight ``(1 / (rtt(c, anchor) + 1)) **
        exponent`` — the chaos harness's hotspot packing, promoted to a
        named constructor: traffic concentrates around ``anchor``, and
        larger exponents concentrate it harder (the workload that
        saturates the anchor's nearest replica and separates queue-aware
        selection strategies from ``nearest`` on tail latency).
        """
        if not exponent >= 0:
            raise ValueError("hotspot exponent must be non-negative")
        weights = [(1.0 / (float(matrix.latency(c, anchor)) + 1.0))
                   ** exponent for c in clients]
        return ClientPopulation(clients, weights)

    def sample(self, rng: np.random.Generator,
               modulation: np.ndarray | None = None) -> int:
        """Draw one client id (optionally modulated per client)."""
        weights = self.weights
        if modulation is not None:
            modulation = np.asarray(modulation, dtype=float)
            if modulation.shape != weights.shape:
                raise ValueError("one modulation factor per client required")
            weights = weights * modulation
        total = weights.sum()
        if total <= 0:
            # Fully suppressed population: fall back to base weights.
            weights, total = self.weights, self.weights.sum()
        return self.clients[int(rng.choice(len(self.clients), p=weights / total))]

    def sample_block(self, uniforms: np.ndarray,
                     modulation: np.ndarray | None = None) -> np.ndarray:
        """Vectorized :meth:`sample` over pre-drawn unit uniforms.

        ``uniforms`` holds one ``rng.random()`` draw per access;
        ``modulation`` is an optional ``(len(uniforms), len(self))``
        matrix of per-access per-client multipliers.  Row ``i`` of the
        result is the client id :meth:`sample` would return from the
        same uniform draw and modulation row — including the
        re-normalized CDF inversion ``Generator.choice`` performs and
        the fall-back to base weights when a row is fully suppressed —
        so the batched engine consumes the RNG stream identically.
        """
        u = np.asarray(uniforms, dtype=float)
        n = len(self.clients)
        if modulation is None:
            # Every row shares one CDF; ``searchsorted(side="right")``
            # on it returns the same count as ``(cdf <= u).sum()``.
            cdf = (self.weights / self.weights.sum()).cumsum()
            cdf /= cdf[-1]
            idx = np.searchsorted(cdf, u, side="right")
        else:
            modulation = np.asarray(modulation, dtype=float)
            if modulation.shape != (u.size, n):
                raise ValueError("one modulation factor per access "
                                 "and client required")
            # Rows are independent draws, so chunks of rows give the
            # same bits as the whole block at once.
            idx = np.empty(u.size, dtype=np.intp)
            step = max(1, _CHUNK_ELEMENTS // n)
            for lo in range(0, u.size, step):
                rows = slice(lo, lo + step)
                weights = self.weights * modulation[rows]
                totals = weights.sum(axis=1)
                suppressed = totals <= 0
                if suppressed.any():
                    weights[suppressed] = self.weights
                    totals[suppressed] = self.weights.sum()
                # Generator.choice(n, p=p) draws one unit uniform and
                # inverts the re-normalized CDF with searchsorted(...,
                # side="right"); (cdf <= u).sum() is the same count,
                # batched.
                cdf = (weights / totals[:, None]).cumsum(axis=1)
                cdf /= cdf[:, -1:]
                idx[rows] = (cdf <= u[rows, None]).sum(axis=1)
        return np.asarray(self.clients, dtype=int)[idx]

    def index_of(self, client: int) -> int:
        """Position of ``client`` in :attr:`clients`."""
        return self.clients.index(client)


class ZipfObjectPopularity:
    """Zipf-distributed object selection for multi-object workloads.

    Object ``i`` (0-based rank) is drawn with probability proportional
    to ``1 / (i + 1) ** exponent`` — the classic web-popularity skew.
    """

    def __init__(self, keys: Sequence[str], exponent: float = 0.9) -> None:
        self.keys = tuple(keys)
        if not self.keys:
            raise ValueError("at least one object key required")
        if not exponent >= 0:
            raise ValueError("exponent must be non-negative")
        ranks = np.arange(1, len(self.keys) + 1, dtype=float)
        probs = ranks ** (-exponent)
        self.probs = probs / probs.sum()
        self.exponent = exponent
        # The CDF Generator.choice(p=self.probs) inverts, built once.
        self._cdf = self.probs.cumsum()
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> str:
        """Draw one object key."""
        return self.keys[int(rng.choice(len(self.keys), p=self.probs))]

    def sample_block(self, uniforms: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sample` over pre-drawn unit uniforms.

        Entry ``i`` is the index into :attr:`keys` that :meth:`sample`
        would pick from the same ``rng.random()`` draw (see
        :meth:`ClientPopulation.sample_block` for the CDF equivalence).
        One binary search per draw: O(B log K) time and no ``(B, K)``
        temporary.

        >>> popularity = ZipfObjectPopularity(["a", "b", "c"], exponent=1.0)
        >>> rng = np.random.default_rng(7)
        >>> picks = popularity.sample_block(np.random.default_rng(7).random(4))
        >>> picks.tolist() == [popularity.keys.index(popularity.sample(rng))
        ...                    for _ in range(4)]
        True
        """
        return np.searchsorted(self._cdf, np.asarray(uniforms, dtype=float),
                               side="right")

    def probability_of(self, key: str) -> float:
        """Selection probability of ``key``."""
        return float(self.probs[self.keys.index(key)])
