"""Batch embedding of an RTT matrix with a chosen coordinate system.

The simulator runs coordinate updates as live gossip; this module offers
the equivalent batch driver used by experiments and tests: run ``rounds``
rounds in which every node measures a random peer and updates, then
return the final coordinates.  The rounds run in
:func:`repro.kernels.embed.embed_rounds`, a wavefront-batched kernel that
is bitwise equal to updating one :class:`~repro.coords.vivaldi.VivaldiNode`
/ :class:`~repro.coords.rnp.RNPNode` object per node in index order (the
``use_backend("python")`` oracle does exactly that).  It also provides
classical MDS as an idealized (centralized, offline) embedding for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.coords.gnp import gnp_embed
from repro.coords.space import EuclideanSpace
from repro.kernels.embed import embed_rounds
from repro.net.latency import LatencyMatrix

__all__ = ["EmbeddingResult", "embed_matrix", "classical_mds"]

SystemName = Literal["vivaldi", "rnp", "gnp", "mds"]


@dataclass(frozen=True)
class EmbeddingResult:
    """Coordinates produced by :func:`embed_matrix`.

    Attributes
    ----------
    coords:
        ``(n, vector_size)`` coordinate array, row per node.
    space:
        The space the coordinates live in.
    system:
        Which algorithm produced them.
    stability_ms_per_round:
        Mean per-node coordinate displacement per gossip round over the
        second half of the run (``None`` for the batch systems).  This
        is RNP's second published metric: on a converged system nodes
        should *stop moving* even though noisy measurements keep
        arriving, because jumpy coordinates invalidate every cached
        prediction in the system.
    """

    coords: np.ndarray
    space: EuclideanSpace
    system: str
    stability_ms_per_round: float | None = None

    def predicted_matrix(self) -> np.ndarray:
        """All pairwise predicted RTTs."""
        return self.space.pairwise_distances(self.coords)

    def coord_of(self, node: int) -> np.ndarray:
        """Coordinate vector of ``node``."""
        return self.coords[node]


def embed_matrix(matrix: LatencyMatrix, system: SystemName = "rnp",
                 space: EuclideanSpace | None = None, rounds: int = 60,
                 rng: np.random.Generator | None = None,
                 outlier_fraction: float = 0.0,
                 outlier_multiplier: float = 10.0,
                 **system_kwargs) -> EmbeddingResult:
    """Embed all nodes of ``matrix`` and return their coordinates.

    Parameters
    ----------
    matrix:
        Ground-truth RTTs.
    system:
        ``"vivaldi"``, ``"rnp"``, ``"gnp"`` or ``"mds"``.
    space:
        Coordinate space; defaults to 3-D Euclidean with height for the
        decentralized systems (Vivaldi's recommended configuration) and
        without height for GNP/MDS.
    rounds:
        Gossip rounds for the decentralized systems (non-negative).
        Each round lets every node measure one uniformly random peer, so
        the matrix needs at least two nodes, and every RTT a round
        samples must be positive.
    rng:
        Randomness (peer choice, initial coordinates, optimizer seeds).
    outlier_fraction:
        Probability that an individual *measurement* (not a pair) is an
        outlier, multiplied by ``outlier_multiplier``.  Models the
        transient congestion spikes of overloaded PlanetLab hosts — the
        instability RNP was designed to survive.  Only applies to the
        decentralized systems (GNP/MDS consume the clean matrix; they
        are offline references).  Accuracy is always scored against the
        *clean* matrix.
    system_kwargs:
        Extra keyword arguments for the node constructor (e.g. RNP's
        ``window``).
    """
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier fraction must lie in [0, 1)")
    if outlier_multiplier < 1.0:
        raise ValueError("outliers only inflate measurements")
    rng = rng or np.random.default_rng(0)

    if system == "mds":
        space = space or EuclideanSpace(dim=3, use_height=False)
        if space.use_height:
            raise ValueError("MDS embedding does not produce heights")
        coords = classical_mds(matrix.rtt, dim=space.dim)
        return EmbeddingResult(coords, space, "mds")

    if system == "gnp":
        space = space or EuclideanSpace(dim=3, use_height=False)
        coords = gnp_embed(matrix.rtt, space, rng=rng, **system_kwargs)
        return EmbeddingResult(coords, space, "gnp")

    space = space or EuclideanSpace(dim=3, use_height=True)
    coords, _errors, stability = embed_rounds(
        matrix.rtt, system, space, rounds, rng, outlier_fraction,
        outlier_multiplier, **system_kwargs)
    return EmbeddingResult(coords, space, system, stability)


def classical_mds(rtt: np.ndarray, dim: int = 3) -> np.ndarray:
    """Classical (Torgerson) multidimensional scaling of an RTT matrix.

    A centralized, offline embedding that serves as an accuracy
    reference: it is the best rank-``dim`` Euclidean fit to the doubly
    centered squared-distance matrix.
    """
    rtt = np.asarray(rtt, dtype=float)
    n = rtt.shape[0]
    if dim >= n:
        raise ValueError("dim must be smaller than the number of nodes")
    sq = rtt ** 2
    centering = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * centering @ sq @ centering
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:dim]
    vals = np.clip(eigvals[order], 0.0, None)
    return eigvecs[:, order] * np.sqrt(vals)[None, :]
