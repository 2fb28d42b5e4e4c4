"""GNP: Global Network Positioning (Ng & Zhang, INFOCOM 2002).

GNP is the landmark-based predecessor of decentralized systems like
Vivaldi: a small set of landmark nodes first embeds itself by minimizing
pairwise embedding error, then every other node solves for its own
coordinate against the fixed landmark coordinates.  It is included both
as a baseline coordinate system and because the paper's related-work
section contrasts RNP with it.

``scipy.optimize`` is imported inside the two fits that use it: at
module level it costs every ``import repro`` (each CLI call, each runner
worker) about 0.45 s for Nelder-Mead steps only a GNP embed takes.
"""

from __future__ import annotations

import numpy as np

from repro.coords.space import EuclideanSpace

__all__ = ["embed_landmarks", "place_with_landmarks", "gnp_embed"]


def _relative_sq_error(pred: np.ndarray, actual: np.ndarray) -> float:
    """GNP's objective: sum of squared *relative* errors."""
    actual = np.maximum(actual, 1e-9)
    rel = (pred - actual) / actual
    return float(np.sum(rel * rel))


def embed_landmarks(landmark_rtts: np.ndarray, space: EuclideanSpace,
                    rng: np.random.Generator | None = None,
                    restarts: int = 4) -> np.ndarray:
    """Embed the landmark set by joint error minimization.

    Parameters
    ----------
    landmark_rtts:
        ``(L, L)`` symmetric RTT matrix between the landmarks.
    space:
        Target coordinate space (heights are not used for landmarks; GNP
        predates the height-vector model).
    restarts:
        Number of random restarts; the best embedding wins.

    Returns
    -------
    ``(L, vector_size)`` landmark coordinates.
    """
    from scipy import optimize

    landmark_rtts = np.asarray(landmark_rtts, dtype=float)
    n = landmark_rtts.shape[0]
    if landmark_rtts.shape != (n, n):
        raise ValueError("landmark RTT matrix must be square")
    if n < space.dim + 1:
        raise ValueError(
            f"need at least dim+1={space.dim + 1} landmarks, got {n}"
        )
    rng = rng or np.random.default_rng(0)
    iu = np.triu_indices(n, k=1)
    actual = landmark_rtts[iu]
    scale = float(np.median(actual)) or 1.0

    def objective(flat: np.ndarray) -> float:
        points = flat.reshape(n, space.vector_size)
        pred = space.pairwise_distances(points)[iu]
        return _relative_sq_error(pred, actual)

    best_points = None
    best_value = np.inf
    for _ in range(restarts):
        x0 = rng.normal(0.0, scale / 2.0, size=n * space.vector_size)
        result = optimize.minimize(objective, x0, method="Nelder-Mead",
                                   options={"maxiter": 4000, "fatol": 1e-6})
        if result.fun < best_value:
            best_value = result.fun
            best_points = result.x.reshape(n, space.vector_size)
    assert best_points is not None
    if space.use_height:
        best_points[:, -1] = np.abs(best_points[:, -1])
    return best_points


def place_with_landmarks(landmark_coords: np.ndarray, rtts_to_landmarks: np.ndarray,
                         space: EuclideanSpace,
                         rng: np.random.Generator | None = None,
                         restarts: int = 3) -> np.ndarray:
    """Solve one ordinary node's coordinate against fixed landmarks."""
    from scipy import optimize

    landmark_coords = np.asarray(landmark_coords, dtype=float)
    rtts = np.asarray(rtts_to_landmarks, dtype=float)
    if landmark_coords.shape[0] != rtts.shape[0]:
        raise ValueError("one RTT per landmark required")
    rng = rng or np.random.default_rng(0)
    scale = float(np.median(rtts)) or 1.0

    def objective(x: np.ndarray) -> float:
        pred = space.cross_distances(x[None, :], landmark_coords)[0]
        return _relative_sq_error(pred, rtts)

    best = None
    best_value = np.inf
    seeds = [landmark_coords.mean(axis=0)]
    seeds += [rng.normal(0.0, scale / 2.0, size=space.vector_size)
              for _ in range(restarts - 1)]
    for x0 in seeds:
        result = optimize.minimize(objective, x0, method="Nelder-Mead",
                                   options={"maxiter": 2000, "fatol": 1e-6})
        if result.fun < best_value:
            best_value = result.fun
            best = result.x
    assert best is not None
    return space.clamp(best)


def gnp_embed(rtt: np.ndarray, space: EuclideanSpace, n_landmarks: int = 15,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """Embed a full RTT matrix GNP-style.

    ``n_landmarks`` nodes are chosen at random as landmarks, embedded
    jointly, and every remaining node is placed against them.

    Returns ``(n, vector_size)`` coordinates for all nodes.
    """
    rtt = np.asarray(rtt, dtype=float)
    n = rtt.shape[0]
    rng = rng or np.random.default_rng(0)
    n_landmarks = min(n_landmarks, n)
    landmarks = rng.choice(n, size=n_landmarks, replace=False)
    landmark_coords = embed_landmarks(rtt[np.ix_(landmarks, landmarks)], space, rng)

    coords = np.zeros((n, space.vector_size))
    coords[landmarks] = landmark_coords
    others = np.setdiff1d(np.arange(n), landmarks)
    for node in others:
        coords[node] = place_with_landmarks(
            landmark_coords, rtt[node, landmarks], space, rng
        )
    return coords
