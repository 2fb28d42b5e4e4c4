"""RNP: Retrospective Network Positioning.

The paper assigns coordinates with RNP (Ping, McConnell & Hwang,
GridPeer 2010), the authors' refinement of Vivaldi.  RNP's key idea is to
be *retrospective*: instead of consuming each measurement once and
discarding it, a node retains a window of recent measurements and
periodically re-solves its own coordinates against all of them, weighting
each sample by how trustworthy it is.  This yields lower prediction error
(typically < 10 ms) and far more stable coordinates than memoryless
Vivaldi, especially on noisy platforms such as PlanetLab.

The original paper is not freely available, so this implementation
follows that published description (see DESIGN.md §2): it keeps Vivaldi's
incremental update as the fast path, records ``(remote coords, rtt,
remote confidence)`` samples in a sliding window, and every
``refit_interval`` updates performs a weighted non-linear least-squares
refit of its own coordinate over the window.  Sample weights combine the
remote node's confidence at measurement time with an exponential recency
decay.  The benchmark ``benchmarks/test_coords_accuracy.py`` verifies the
contract the placement algorithm relies on: RNP error below Vivaldi's and
a sub-10 ms median on the synthetic PlanetLab matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.coords.space import EuclideanSpace
from repro.coords.vivaldi import VivaldiNode
from repro.kernels import fold_norms

__all__ = ["RNPNode"]


@dataclass(frozen=True)
class _Sample:
    """One retained measurement."""

    remote_coords: np.ndarray
    rtt: float
    remote_error: float
    seq: int


class RNPNode:
    """One node running Retrospective Network Positioning.

    Parameters
    ----------
    space:
        Shared coordinate space.
    window:
        Number of most recent measurements retained for refits.
    refit_interval:
        A retrospective refit runs every this-many updates.
    refit_steps:
        Gradient-descent steps per refit (the problem is tiny: one point
        against ``window`` anchors, so a handful of steps suffices).
    recency_half_life:
        Sample weight halves every this-many sequence numbers.
    cc / ce / rng:
        Passed through to the underlying Vivaldi fast path.
    """

    def __init__(self, space: EuclideanSpace, window: int = 64,
                 refit_interval: int = 8, refit_steps: int = 12,
                 recency_half_life: float = 64.0,
                 cc: float = 0.25, ce: float = 0.25,
                 rng: np.random.Generator | None = None) -> None:
        if window < 2:
            raise ValueError("window must hold at least two samples")
        if refit_interval < 1:
            raise ValueError("refit interval must be positive")
        if recency_half_life <= 0:
            raise ValueError("recency half life must be positive")
        self.space = space
        self.window = window
        self.refit_interval = refit_interval
        self.refit_steps = refit_steps
        self.recency_half_life = recency_half_life
        self._vivaldi = VivaldiNode(space, cc=cc, ce=ce, rng=rng)
        self._samples: deque[_Sample] = deque(maxlen=window)
        self._seq = 0
        #: Measurements judged transient outliers (recorded but not fed
        #: to the incremental spring update).
        self.outliers_suspected = 0

    # ------------------------------------------------------------------
    # Vivaldi-compatible surface
    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """Current coordinate estimate."""
        return self._vivaldi.coords

    @property
    def error(self) -> float:
        """Current confidence estimate (Vivaldi-style relative error)."""
        return self._vivaldi.error

    @property
    def updates(self) -> int:
        """Number of measurements consumed."""
        return self._seq

    def predicted_rtt(self, remote_coords: np.ndarray) -> float:
        """Predict the RTT to a node at ``remote_coords``."""
        return self.space.distance(self.coords, remote_coords)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, remote_coords: np.ndarray, remote_error: float, rtt: float) -> None:
        """Incorporate one measurement; refit retrospectively on schedule.

        This is where RNP "consumes information differently according to
        the reliability of the information": once enough history exists,
        a measurement wildly *above* the current prediction (transient
        congestion — queueing only ever inflates RTT) is retained for
        the retrospective refit, where robust weighting discounts it,
        but is not allowed to yank the coordinate via the memoryless
        spring update the way it would in plain Vivaldi.
        """
        if rtt <= 0:
            raise ValueError("RTT must be positive")
        remote_coords = np.asarray(remote_coords, dtype=float).copy()
        self._seq += 1
        self._samples.append(
            _Sample(remote_coords, float(rtt), float(remote_error), self._seq)
        )
        predicted = self.predicted_rtt(remote_coords)
        suspicious = (
            len(self._samples) >= 8
            and self._vivaldi.error < 0.4      # only once well converged
            and predicted > 1e-6
            and rtt > max(3.0 * predicted, predicted + 150.0)
        )
        if suspicious:
            self.outliers_suspected += 1
        else:
            # Fast path: the usual spring nudge keeps coordinates live
            # between refits.
            self._vivaldi.update(remote_coords, remote_error, rtt)
        if self._seq % self.refit_interval == 0 and len(self._samples) >= 4:
            self._refit()

    def _sample_weights(self) -> np.ndarray:
        """Confidence * recency weight per retained sample."""
        seqs = np.array([s.seq for s in self._samples], dtype=float)
        errors = np.array([s.remote_error for s in self._samples], dtype=float)
        age = self._seq - seqs
        recency = np.power(0.5, age / self.recency_half_life)
        confidence = 1.0 / (1.0 + errors)
        return recency * confidence

    def _refit(self) -> None:
        """Weighted least-squares refit of this node's coordinate.

        Minimizes ``sum_i w_i (dist(x, a_i) - rtt_i)^2`` over x, where the
        anchors ``a_i`` are the remote coordinates observed at measurement
        time.  A few damped gradient steps from the current coordinate
        are enough; the step is rejected if it does not reduce the loss,
        which preserves coordinate stability (RNP's second goal).
        """
        anchors = np.stack([s.remote_coords for s in self._samples])
        rtts = np.array([s.rtt for s in self._samples])
        base_weights = self._sample_weights()
        base_weights = base_weights / base_weights.sum()

        x = self.coords.copy()
        weights = base_weights
        # IRLS: after a first fit, one-sidedly discount the samples the
        # fit cannot explain from *below* — a measured RTT far above the
        # fitted distance is transient congestion (queueing only ever
        # inflates), so it should not shape the coordinate.
        for irls_round in range(2):
            loss = self._loss(x, anchors, rtts, weights)
            step = 0.5
            for _ in range(self.refit_steps):
                grad = self._grad(x, anchors, rtts, weights)
                gnorm = np.linalg.norm(grad)
                if gnorm < 1e-9:
                    break
                candidate = self.space.clamp(x - step * grad)
                candidate_loss = self._loss(candidate, anchors, rtts, weights)
                if candidate_loss < loss:
                    x, loss = candidate, candidate_loss
                    step *= 1.2
                else:
                    step *= 0.5
                    if step < 1e-4:
                        break
            if irls_round == 0:
                pred = self._predictions(x, anchors)
                inflation = (rtts - pred) / np.maximum(pred, 1e-9)
                trimmed = base_weights * np.where(inflation > 1.0, 0.02, 1.0)
                total = trimmed.sum()
                if total < 0.25:  # almost everything trimmed: fit is lost,
                    break         # keep the untrimmed solution instead
                weights = trimmed / total

        # Accept the refit only if it does not worsen the robustly
        # weighted fit of the *reliable* samples.
        old_loss = self._loss(self.coords, anchors, rtts, weights)
        new_loss = self._loss(x, anchors, rtts, weights)
        if new_loss <= old_loss:
            self._vivaldi.coords = x
        else:
            x = self.coords

        # Refresh the confidence estimate from the achieved fit quality.
        fitted = self._predictions(x, anchors)
        rel = np.abs(fitted - rtts) / np.maximum(rtts, 1e-9)
        fit_error = float(np.sum(weights * rel))
        self._vivaldi.error = min(self._vivaldi.error, max(fit_error, 1e-3))

    # -- least squares helpers ----------------------------------------
    def _predictions(self, x: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        return self.space.cross_distances(x[None, :], anchors)[0]

    def _loss(self, x: np.ndarray, anchors: np.ndarray, rtts: np.ndarray,
              weights: np.ndarray) -> float:
        resid = self._predictions(x, anchors) - rtts
        return float(np.sum(weights * resid * resid))

    def _grad(self, x: np.ndarray, anchors: np.ndarray, rtts: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
        pred = self._predictions(x, anchors)
        resid = pred - rtts
        grad = np.zeros_like(x)
        if self.space.use_height:
            planar_diff = x[None, :-1] - anchors[:, :-1]
            norms = np.maximum(fold_norms(planar_diff), 1e-9)
            coeff = 2.0 * weights * resid
            grad[:-1] = (coeff[:, None] * planar_diff / norms[:, None]).sum(axis=0)
            grad[-1] = coeff.sum()
        else:
            diff = x[None, :] - anchors
            norms = np.maximum(fold_norms(diff), 1e-9)
            coeff = 2.0 * weights * resid
            grad = (coeff[:, None] * diff / norms[:, None]).sum(axis=0)
        return grad
