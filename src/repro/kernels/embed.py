"""Wavefront-batched gossip rounds for the Vivaldi/RNP batch embedding.

:func:`repro.coords.embedding.embed_matrix` runs ``rounds`` gossip
rounds in which node ``0, 1, …, n-1`` in turn measures one random peer
and updates itself.  The order is Gauss–Seidel — a node sees its
lower-numbered peers *after* they moved this round and its
higher-numbered peers *before* — so the rounds cannot simply be applied
to all nodes at once.  They can be applied in **waves**
(:func:`wave_schedule`): every node of a wave reads only state that
earlier waves (or the previous round) left behind, so one
gather-before-scatter step per wave over a struct-of-arrays state
reproduces the per-node loop exactly, in ~5 batched steps per round
instead of ``n`` node updates.

Bitwise equality with the per-node classes
(:class:`~repro.coords.vivaldi.VivaldiNode`,
:class:`~repro.coords.rnp.RNPNode`) is the contract, so every reduction
keeps the primitive the classes use:

* the norm of *one* vector (``space.distance``, ``unit_direction``, the
  refit's gradient norm) is ``sqrt(x.dot(x))`` — BLAS ``ddot``, fused
  multiply-add.  Stacked, that is the ``(B, 1, d) @ (B, d, 1)`` matmul,
  which ends in the same ``ddot``; ``(x * x).sum``, ``add.reduce`` and
  ``einsum`` round differently in the last bit.
* the refit's anchor distances are ``norm(axis=-1)`` of a difference
  stack and its losses pairwise row sums, exactly as in
  :func:`repro.kernels.wkmeans.cross_distances` and ``RNPNode._loss``;
  they batch along a leading axis unchanged.

Random draws are consumed draw for draw: initial points per node, one
``peers`` draw per round, the per-measurement outlier draws as one
``rng.random(n)``.  The one order-dependent case is a coincident pair,
whose random direction the per-node loop draws *between* two nodes'
outlier draws; such a round is rewound and replayed as one-node waves in
index order through the same step function.

The per-node loop itself is
:func:`repro.kernels._reference.embed_rounds`, the oracle of
``tests/unit/test_embed_kernel.py``.  The node classes stay the
reference and the implementation live gossip (``repro.sim.gossip``) runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["embed_rounds", "wave_schedule"]


def wave_schedule(peers: np.ndarray) -> list[np.ndarray]:
    """Partition one round's nodes into waves that may update together.

    Node ``i`` measures ``peers[i]``.  In index order it reads a
    later-numbered peer before that peer moved (wave 0) and an
    earlier-numbered one after (one wave above the peer's).  Each wave
    lists its nodes in index order; every node is in exactly one.

    Examples
    --------
    Two rounds of four nodes — a ring measured forwards, then backwards
    (a chain through every node, so nothing batches):

    >>> import numpy as np
    >>> for peers in ([1, 2, 3, 0], [3, 0, 1, 2]):
    ...     print([wave.tolist() for wave in wave_schedule(np.array(peers))])
    [[0, 1, 2], [3]]
    [[0], [1], [2], [3]]
    """
    wave: list[int] = []
    for i, j in enumerate(peers.tolist()):
        wave.append(wave[j] + 1 if j < i else 0)
    order = np.argsort(wave, kind="stable")
    return np.split(order, np.cumsum(np.bincount(wave))[:-1])


def _vivaldi_params(cc: float = 0.25, ce: float = 0.25) -> dict:
    """``VivaldiNode``'s constructor checks, without drawing a start point."""
    if not 0 < cc <= 1 or not 0 < ce <= 1:
        raise ValueError("cc and ce must lie in (0, 1]")
    return {"cc": cc, "ce": ce}


def _rnp_params(window: int = 64, refit_interval: int = 8,
                refit_steps: int = 12, recency_half_life: float = 64.0,
                **spring) -> dict:
    """``RNPNode``'s constructor checks, in its order."""
    if window < 2:
        raise ValueError("window must hold at least two samples")
    if refit_interval < 1:
        raise ValueError("refit interval must be positive")
    if recency_half_life <= 0:
        raise ValueError("recency half life must be positive")
    return {"window": window, "refit_interval": refit_interval,
            "refit_steps": refit_steps,
            "recency_half_life": recency_half_life,
            **_vivaldi_params(**spring)}


_PARAMS = {"vivaldi": _vivaldi_params, "rnp": _rnp_params}


def embed_rounds(rtt: np.ndarray, system: str, space, rounds: int,
                 rng: np.random.Generator, outlier_fraction: float = 0.0,
                 outlier_multiplier: float = 10.0, **node_params,
                 ) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Run ``rounds`` gossip rounds of ``system`` over the RTT matrix.

    Parameters
    ----------
    rtt:
        ``(n, n)`` ground-truth RTTs; only the sampled pairs are read,
        and a sampled RTT must be positive.
    system:
        ``"vivaldi"`` or ``"rnp"``.
    space:
        The :class:`~repro.coords.space.EuclideanSpace` to embed into.
    rounds:
        Gossip rounds; in each, every node measures one uniformly random
        other node.
    rng:
        Initial points, peer choice, outlier draws, coincidence ties.
    outlier_fraction / outlier_multiplier:
        Each measurement is multiplied by ``outlier_multiplier`` with
        probability ``outlier_fraction``.
    node_params:
        The node constructor's keywords (``cc``, ``ce`` and, for RNP,
        ``window``, ``refit_interval``, ``refit_steps``,
        ``recency_half_life``).

    Returns
    -------
    ``(coords, errors, stability)``: the ``(n, vector_size)`` final
    coordinates, each node's confidence estimate, and the mean per-node
    displacement per round over the second half of the run (``None``
    when fewer than two rounds fall in it).
    """
    rtt = np.asarray(rtt, dtype=float)
    n = rtt.shape[0]
    if system not in _PARAMS:
        raise ValueError(f"unknown coordinate system {system!r}")
    params = _PARAMS[system](**node_params)
    if n < 2:
        raise ValueError(
            f"gossip needs at least two nodes to measure a peer, got {n}")
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")

    points = np.stack([space.random_point(rng, scale=1e-3)
                       for _ in range(n)])
    swarm = _Swarm(points, space.use_height, rounds, **params)
    everyone = np.arange(n)

    def measure(nodes: np.ndarray, peers: np.ndarray) -> np.ndarray:
        """This round's measured RTT of each of ``nodes``, spikes included."""
        sample = rtt[nodes, peers[nodes]]
        if outlier_fraction > 0:
            spiked = rng.random(nodes.size) < outlier_fraction
            sample = np.where(spiked, sample * outlier_multiplier, sample)
        return sample

    warmup = rounds // 2
    displacements: list[float] = []
    previous: np.ndarray | None = None
    for round_index in range(rounds):
        # Every node measures one random distinct peer per round: an
        # offset draw over the n - 1 others skips the node itself.
        peers = rng.integers(0, n - 1, size=n)
        peers = peers + (peers >= everyone)

        checkpoint = (swarm.coords.copy(), swarm.errors.copy(),
                      rng.bit_generator.state)
        samples = measure(everyone, peers)
        if not all(swarm.step(round_index, wave, peers[wave], samples[wave])
                   for wave in wave_schedule(peers)):
            # A coincident pair: its random direction is drawn between
            # two nodes' outlier draws, so draw order follows node order.
            # Rewind the round and replay it one node at a time.
            swarm.coords, swarm.errors, rng.bit_generator.state = checkpoint
            for node in everyone.reshape(n, 1):
                swarm.step(round_index, node, peers[node],
                           measure(node, peers), tie_rng=rng)
        if round_index >= warmup:
            snapshot = swarm.coords.copy()
            if previous is not None:
                # Displacement of one node: planar movement plus height
                # change (the height-space distance formula would add
                # both heights even for a motionless node).
                diff = snapshot - previous
                if space.use_height:
                    moves = (np.linalg.norm(diff[:, :-1], axis=1)
                             + np.abs(diff[:, -1]))
                else:
                    moves = np.linalg.norm(diff, axis=1)
                displacements.append(float(moves.mean()))
            previous = snapshot

    stability = float(np.mean(displacements)) if displacements else None
    return swarm.coords, swarm.errors, stability


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Row norms of ``(B, d)`` as ``sqrt(x.dot(x))`` — see the module doc."""
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])


class _Swarm:
    """Struct-of-arrays state of ``n`` Vivaldi or RNP nodes.

    With ``window`` (RNP) every node also keeps its last ``window``
    measurements.  The batch driver gives every node one measurement per
    round, so all sliding windows fill the same slots of one
    ``(n, window, …)`` ring, round ``r`` in slot ``r % window``.
    """

    def __init__(self, points: np.ndarray, use_height: bool, rounds: int,
                 cc: float, ce: float, window: int | None = None,
                 refit_interval: int = 0, refit_steps: int = 0,
                 recency_half_life: float = 0.0) -> None:
        n, size = points.shape
        self.coords = points
        self.errors = np.ones(n)
        self.use_height = use_height
        self.planar = slice(None, -1) if use_height else slice(None)
        self.cc, self.ce = cc, ce
        self.window = window
        self.refit_interval = refit_interval
        self.refit_steps = refit_steps
        self.recency_half_life = recency_half_life
        if window is not None:
            slots = min(window, rounds)
            self.anchors = np.empty((n, slots, size))
            self.rtts = np.empty((n, slots))
            self.remote_errors = np.empty((n, slots))

    def step(self, round_index: int, nodes: np.ndarray, peers: np.ndarray,
             rtt: np.ndarray,
             tie_rng: np.random.Generator | None = None) -> bool:
        """``nodes`` each consume one measurement ``rtt`` to ``peers``.

        Reads every peer before writing any node (the wave contract).
        A coincident pair needs a random direction: drawn from
        ``tie_rng`` when given (valid for a one-node wave), otherwise
        the step writes nothing and returns ``False``.
        """
        if np.any(rtt <= 0):
            raise ValueError("RTT must be positive")
        x, error = self.coords[nodes], self.errors[nodes]
        remote, remote_error = self.coords[peers], self.errors[peers]
        diff = x[:, self.planar] - remote[:, self.planar]
        norm = _norms(diff)
        predicted = norm
        if self.use_height:
            predicted = norm + x[:, -1] + remote[:, -1]

        # RNP's outlier gate: once well converged, a measurement wildly
        # above the prediction is kept for the refit but not sprung on.
        held = 0 if self.window is None else min(round_index + 1, self.window)
        if held >= 8:
            spring = ~((error < 0.4) & (predicted > 1e-6)
                       & (rtt > np.maximum(3.0 * predicted,
                                           predicted + 150.0)))
        else:
            spring = np.ones(nodes.size, dtype=bool)

        tied = spring & (norm < 1e-12)
        if tied.any():
            if tie_rng is None:
                return False
            for row in np.flatnonzero(tied):
                diff[row] = tie_rng.normal(size=diff.shape[1])
            norm = _norms(diff)

        denom = error + remote_error
        w = np.divide(error, denom, out=np.full_like(error, 0.5),
                      where=denom > 0)
        sample_error = np.abs(predicted - rtt) / rtt
        new_error = np.minimum(
            sample_error * self.ce * w + error * (1.0 - self.ce * w), 2.0)
        push = self.cc * w * (rtt - predicted)
        moved = x.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            # (a gated row may coincide with its peer; it is masked below)
            moved[:, self.planar] += push[:, None] * (diff / norm[:, None])
        if self.use_height:
            moved[:, -1] += push
            moved[moved[:, -1] < 0, -1] = 0.0
        self.coords[nodes] = np.where(spring[:, None], moved, x)
        self.errors[nodes] = np.where(spring, new_error, error)

        if held:
            slots = self.rtts.shape[1]
            slot = round_index % slots
            self.anchors[nodes, slot] = remote
            self.rtts[nodes, slot] = rtt
            self.remote_errors[nodes, slot] = remote_error
            if (round_index + 1) % self.refit_interval == 0 and held >= 4:
                self._refit(nodes, np.arange(round_index + 1 - held,
                                             round_index + 1) % slots)
        return True

    def _refit(self, nodes: np.ndarray, span: np.ndarray) -> None:
        """``RNPNode._refit`` for a wave: weighted least squares per node.

        ``span`` lists the ring slots of the retained samples, oldest
        first.  The damped-gradient IRLS runs for all of ``nodes`` in
        lockstep; per-node masks stand in for the scalar loop's accept /
        reject / ``break`` decisions.
        """
        held = (nodes[:, None], span)
        anchors = self.anchors[held]                          # (B, w, size)
        rtts = self.rtts[held]                                # (B, w)
        anchor_planar = anchors[:, :, self.planar]
        age = np.arange(span.size - 1, -1, -1, dtype=float)
        recency = np.power(0.5, age / self.recency_half_life)
        base = recency * (1.0 / (1.0 + self.remote_errors[held]))
        base = base / base.sum(axis=-1, keepdims=True)

        def fit(x):
            """Offsets to, distances to and predicted RTTs of the anchors."""
            offsets = x[:, None, self.planar] - anchor_planar
            dist = np.linalg.norm(offsets, axis=-1)
            if self.use_height:
                return offsets, dist, dist + x[:, -1:] + anchors[:, :, -1]
            return offsets, dist, dist

        def loss_of(pred, weights):
            resid = pred - rtts
            return np.sum(weights * resid * resid, axis=-1)

        start = self.coords[nodes]
        x, (offsets, dist, pred) = start, fit(start)
        start_pred = pred
        weights = base
        fitting = np.ones(nodes.size, dtype=bool)
        # IRLS: after a first fit, one-sidedly discount the samples the
        # fit cannot explain from *below* (see RNPNode._refit).
        for irls_round in range(2):
            loss = loss_of(pred, weights)
            step = np.full(nodes.size, 0.5)
            active = fitting.copy()
            for _ in range(self.refit_steps):
                coeff = 2.0 * weights * (pred - rtts)
                grad = np.empty_like(x)
                grad[:, self.planar] = (
                    coeff[:, :, None] * offsets
                    / np.maximum(dist, 1e-9)[:, :, None]).sum(axis=1)
                if self.use_height:
                    grad[:, -1] = coeff.sum(axis=-1)
                active &= ~(_norms(grad) < 1e-9)
                if not active.any():
                    break
                candidate = x - step[:, None] * grad
                if self.use_height:
                    candidate[candidate[:, -1] < 0, -1] = 0.0
                trial_offsets, trial_dist, trial_pred = fit(candidate)
                trial_loss = loss_of(trial_pred, weights)
                accept = active & (trial_loss < loss)
                reject = active & ~accept
                took = accept[:, None]
                x = np.where(took, candidate, x)
                offsets = np.where(took[:, :, None], trial_offsets, offsets)
                dist = np.where(took, trial_dist, dist)
                pred = np.where(took, trial_pred, pred)
                loss = np.where(accept, trial_loss, loss)
                step = np.where(accept, step * 1.2,
                                np.where(reject, step * 0.5, step))
                active &= ~(reject & (step < 1e-4))
            if irls_round == 0:
                inflation = (rtts - pred) / np.maximum(pred, 1e-9)
                trimmed = base * np.where(inflation > 1.0, 0.02, 1.0)
                total = trimmed.sum(axis=-1)
                # almost everything trimmed: the fit is lost, keep the
                # untrimmed solution instead
                fitting = ~(total < 0.25)
                weights = np.where(fitting[:, None],
                                   trimmed / total[:, None], base)

        # Accept the refit only if it does not worsen the robustly
        # weighted fit of the *reliable* samples.
        keep = loss <= loss_of(start_pred, weights)
        self.coords[nodes] = np.where(keep[:, None], x, start)
        fitted = np.where(keep[:, None], pred, start_pred)
        rel = np.abs(fitted - rtts) / np.maximum(rtts, 1e-9)
        fit_error = np.sum(weights * rel, axis=-1)
        self.errors[nodes] = np.minimum(self.errors[nodes],
                                        np.maximum(fit_error, 1e-3))
