"""Coordinate spaces for network embeddings.

Coordinates are plain ``numpy`` vectors.  In a *height-vector* space
(Dabek et al., SIGCOMM 2004, §5.4) the last component is a non-negative
"height" modelling access-link delay: the distance between two points is
the Euclidean distance of their planar parts **plus both heights**.

Bulk distance matrices route through :mod:`repro.kernels.wkmeans`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import wkmeans as _wk

__all__ = ["EuclideanSpace"]


class EuclideanSpace:
    """A ``dim``-dimensional Euclidean space, optionally with heights.

    Parameters
    ----------
    dim:
        Dimensionality of the planar part of the space.  The paper's
        evaluation (and Vivaldi's) typically uses 2–5 dimensions.
    use_height:
        Append a height component; coordinate vectors then have
        ``dim + 1`` entries and the distance adds both heights.
    """

    def __init__(self, dim: int = 3, use_height: bool = False) -> None:
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = dim
        self.use_height = use_height

    @property
    def vector_size(self) -> int:
        """Length of a raw coordinate vector in this space."""
        return self.dim + (1 if self.use_height else 0)

    # ------------------------------------------------------------------
    # Points
    # ------------------------------------------------------------------
    def origin(self) -> np.ndarray:
        """The zero coordinate."""
        return np.zeros(self.vector_size)

    def random_point(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """A random point, used to break symmetry at startup."""
        point = rng.normal(0.0, scale, size=self.vector_size)
        if self.use_height:
            point[-1] = abs(point[-1])
        return point

    def validate(self, point: np.ndarray) -> np.ndarray:
        """Check the shape (and height sign) of ``point``; returns it."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.vector_size,):
            raise ValueError(
                f"expected vector of size {self.vector_size}, got {point.shape}"
            )
        if self.use_height and point[-1] < 0:
            raise ValueError("height component must be non-negative")
        return point

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Predicted RTT between coordinates ``a`` and ``b``."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.use_height:
            planar = float(np.linalg.norm(a[:-1] - b[:-1]))
            return planar + float(a[-1]) + float(b[-1])
        return float(np.linalg.norm(a - b))

    def pairwise_distances(self, points: np.ndarray) -> np.ndarray:
        """All pairwise predicted RTTs for an ``(n, vector_size)`` array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.use_height:
            return _wk.pairwise_distances(points[:, :-1],
                                          heights=points[:, -1])
        return _wk.pairwise_distances(points)

    def cross_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Predicted RTTs between each row of ``a`` and each row of ``b``."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if self.use_height:
            return _wk.cross_distances(a[:, :-1], b[:, :-1],
                                       a_heights=a[:, -1],
                                       b_heights=b[:, -1])
        return _wk.cross_distances(a, b)

    def unit_direction(self, from_point: np.ndarray, to_point: np.ndarray,
                       rng: np.random.Generator | None = None) -> np.ndarray:
        """Unit force direction pushing ``from_point`` away from ``to_point``.

        For height spaces the height component of the direction is ``+1``
        (a spring always pushes a node *up* when it must move away, per
        the Vivaldi height-vector rules).  When the two points coincide a
        random direction is returned so springs can separate them.
        """
        from_point = np.asarray(from_point, dtype=float)
        to_point = np.asarray(to_point, dtype=float)
        if self.use_height:
            planar = from_point[:-1] - to_point[:-1]
            norm = np.linalg.norm(planar)
            if norm < 1e-12:
                rng = rng or np.random.default_rng(0)
                planar = rng.normal(size=self.dim)
                norm = np.linalg.norm(planar)
            direction = np.empty(self.vector_size)
            direction[:-1] = planar / norm
            direction[-1] = 1.0
            return direction
        direction = from_point - to_point
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            rng = rng or np.random.default_rng(0)
            direction = rng.normal(size=self.vector_size)
            norm = np.linalg.norm(direction)
        return direction / norm

    def clamp(self, point: np.ndarray) -> np.ndarray:
        """Project a raw vector back into the space (heights stay >= 0)."""
        point = np.asarray(point, dtype=float).copy()
        if self.use_height and point[-1] < 0:
            point[-1] = 0.0
        return point

    def __repr__(self) -> str:
        suffix = "+h" if self.use_height else ""
        return f"EuclideanSpace(dim={self.dim}{suffix})"
