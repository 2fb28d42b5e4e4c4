"""The wavefront embedding kernel against the per-node loop, bit for bit.

:func:`repro.kernels.embed.embed_rounds` must equal
:func:`repro.kernels._reference.embed_rounds` (one ``VivaldiNode`` /
``RNPNode`` object per node, updated in index order) in every output
*and* in the random-generator state it leaves behind — the committed
goldens of ``benchmarks/e2e`` hang off these coordinates.  Both sides are
called directly with the production kernels in place, so the only
difference is batching.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coords import EuclideanSpace, RNPNode, VivaldiNode, embed_matrix
from repro.kernels import _reference as ref
from repro.kernels import embed
from repro.net import (LatencyMatrix, PlanetLabParams,
                       synthetic_planetlab_matrix)

from tests.data.kernel_twins import PATHS, kernel_path, scalar_twins

SYSTEMS = ("vivaldi", "rnp")
#: Shrunk window / refit cadence, so that 40 rounds wrap the window and
#: refit ten times.
SMALL_WINDOW = {"window": 16, "refit_interval": 4, "refit_steps": 3}


def world(n, seed=2):
    return synthetic_planetlab_matrix(PlanetLabParams(n=n), seed=seed)[0]


def run(fn, matrix, system, space, rounds, seed=5, **kwargs):
    """``fn``'s outputs plus the generator state it leaves, as bytes."""
    rng = np.random.default_rng(seed)
    coords, errors, stability = fn(matrix.rtt, system, space, rounds, rng,
                                   **kwargs)
    return {"coords": coords.tobytes(), "errors": errors.tobytes(),
            "stability": stability, "rng": rng.bit_generator.state}


def assert_kernel_equals_loop(
        matrix, system, rounds,
        make_space=lambda: EuclideanSpace(dim=3, use_height=True), **kwargs):
    got = run(embed.embed_rounds, matrix, system, make_space(), rounds,
              **kwargs)
    want = run(ref.embed_rounds, matrix, system, make_space(), rounds,
               **kwargs)
    for field in want:
        assert got[field] == want[field], (field, system, rounds, kwargs)


# ----------------------------------------------------------------------
# Kernel == per-node loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3, 40])
@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("use_height", [True, False], ids=["height", "flat"])
@pytest.mark.parametrize("system", SYSTEMS)
def test_kernel_equals_per_node_loop(system, use_height, dim, n):
    matrix = world(n)
    # 7/8/9 straddle the first refit, 70 wraps the 64-sample window.
    grid = itertools.product(
        (0, 1, 7, 8, 9, 40, 70), (0.0, 0.2),
        ({}, SMALL_WINDOW) if system == "rnp" else ({},))
    for rounds, outlier_fraction, node_params in grid:
        assert_kernel_equals_loop(
            matrix, system, rounds,
            make_space=lambda: EuclideanSpace(dim=dim, use_height=use_height),
            outlier_fraction=outlier_fraction, **node_params)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rounds", [40, 100])
@pytest.mark.parametrize("system", SYSTEMS)
def test_kernel_equals_per_node_loop_at_paper_scale(system, rounds, seed):
    assert_kernel_equals_loop(world(226, seed), system, rounds, seed=seed + 1)


class HandBuiltStart(EuclideanSpace):
    """A space whose nodes start at the given rows instead of random ones."""

    def __init__(self, rows, **kwargs):
        super().__init__(**kwargs)
        self._rows = iter(rows)

    def random_point(self, rng, scale=1.0):
        return np.array(next(self._rows), dtype=float)


@pytest.mark.parametrize("outlier_fraction", [0.0, 0.5])
@pytest.mark.parametrize("use_height", [True, False], ids=["height", "flat"])
@pytest.mark.parametrize("system", SYSTEMS)
def test_coincident_rows_replay_the_round_in_node_order(
        system, use_height, outlier_fraction, monkeypatch):
    """Two nodes on one point need ``rng.normal`` for a direction, drawn
    between the outlier draws of their neighbours: the kernel must rewind
    and replay such a round sequentially, generator state included."""
    replayed = []
    step = embed._Swarm.step

    def spy(self, *args, tie_rng=None):
        replayed.append(tie_rng is not None)
        return step(self, *args, tie_rng=tie_rng)

    monkeypatch.setattr(embed._Swarm, "step", spy)
    size = 3 if use_height else 2
    twin = [0.5, -0.25, 0.125][:size]
    for n, rows in ((2, [twin, twin]), (6, [twin] * 6)):
        replayed.clear()
        assert_kernel_equals_loop(
            world(n), system, 12,
            make_space=lambda: HandBuiltStart(rows, dim=2,
                                              use_height=use_height),
            outlier_fraction=outlier_fraction)
        assert any(replayed), "no round was replayed"
        assert not all(replayed), "every round was replayed"


# ----------------------------------------------------------------------
# The wave schedule
# ----------------------------------------------------------------------
@st.composite
def peer_choices(draw):
    """One round's peers: every node picks any node but itself."""
    n = draw(st.integers(min_value=2, max_value=60))
    offsets = np.array(draw(st.lists(st.integers(0, n - 2),
                                     min_size=n, max_size=n)))
    return offsets + (offsets >= np.arange(n))


@settings(max_examples=200, deadline=None)
@given(peer_choices())
def test_wave_schedule_orders_every_read_after_the_write_it_needs(peers):
    waves = embed.wave_schedule(peers)
    assert sorted(np.concatenate(waves).tolist()) == list(range(peers.size))
    wave_of = np.empty(peers.size, dtype=int)
    for number, wave in enumerate(waves):
        assert wave.size and np.all(np.diff(wave) > 0)
        wave_of[wave] = number
    later_peer = peers > np.arange(peers.size)
    # reads a node that has not moved yet: batches with the first wave
    assert np.array_equal(wave_of == 0, later_peer)
    # reads a node that already moved: strictly after that node's wave
    assert np.all(wave_of[~later_peer] > wave_of[peers[~later_peer]])


# ----------------------------------------------------------------------
# The scalar twin is still the node classes
# ----------------------------------------------------------------------
def node_loop(matrix, system, rounds, rng, outlier_fraction):
    """``embed_matrix`` as it was before the kernel: node objects in turn."""
    space = EuclideanSpace(dim=3, use_height=True)
    node_cls = {"vivaldi": VivaldiNode, "rnp": RNPNode}[system]
    nodes = [node_cls(space, rng=rng) for _ in range(matrix.n)]
    for _ in range(rounds):
        peers = rng.integers(0, matrix.n - 1, size=matrix.n)
        peers = peers + (peers >= np.arange(matrix.n))
        for i, j in enumerate(peers.tolist()):
            sample = matrix.latency(i, j)
            if outlier_fraction > 0 and rng.random() < outlier_fraction:
                sample *= 10.0
            nodes[i].update(nodes[j].coords, nodes[j].error, sample)
    return np.stack([node.coords for node in nodes])


@pytest.mark.parametrize("system", SYSTEMS)
def test_python_backend_runs_the_node_classes(system):
    matrix = world(12, seed=1)
    with scalar_twins():
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = embed_matrix(matrix, system=system, rounds=20, rng=got_rng,
                           outlier_fraction=0.1)
        want = node_loop(matrix, system, 20, want_rng, 0.1)
    assert got.coords.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ----------------------------------------------------------------------
# Input hardening: same error on the kernel and its twin
# ----------------------------------------------------------------------
@pytest.fixture(params=PATHS)
def backend(request):
    with kernel_path(request.param):
        yield request.param


class TestInputErrors:
    def test_one_node_has_no_peer(self, backend):
        with pytest.raises(ValueError, match="at least two nodes"):
            embed_matrix(LatencyMatrix(np.zeros((1, 1))), system="rnp")

    def test_negative_rounds(self, backend):
        with pytest.raises(ValueError, match="rounds must be non-negative"):
            embed_matrix(world(5), system="vivaldi", rounds=-1)

    @pytest.mark.parametrize("system, node_params, message", [
        ("vivaldi", {"cc": 0.0}, "cc and ce"),
        ("rnp", {"ce": 1.5}, "cc and ce"),
        ("rnp", {"window": 1}, "window must hold"),
        ("rnp", {"refit_interval": 0}, "refit interval"),
        ("rnp", {"recency_half_life": 0.0}, "recency half life"),
    ])
    def test_node_parameters(self, backend, system, node_params, message):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            embed_matrix(world(5), system=system, rng=rng, **node_params)
        # rejected before anything is drawn, not by a throwaway node
        assert rng.bit_generator.state == before

    def test_vivaldi_takes_no_window(self, backend):
        with pytest.raises(TypeError, match="window"):
            embed_matrix(world(5), system="vivaldi", window=16)

    def test_only_sampled_rtts_must_be_positive(self, backend):
        """A zero RTT matters when it is measured, not when it exists."""
        rtt = world(4).rtt.copy()
        rtt[0, 1] = rtt[1, 0] = 0.0
        matrix = LatencyMatrix(rtt)
        outcomes = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            rng.normal(size=(4, 4))                 # the four start points
            peers = rng.integers(0, 3, size=4)
            peers = peers + (peers >= np.arange(4))
            measured = bool(peers[0] == 1 or peers[1] == 0)
            outcomes.add(measured)
            kwargs = {"system": "rnp", "rounds": 1,
                      "rng": np.random.default_rng(seed)}
            if measured:
                with pytest.raises(ValueError, match="RTT must be positive"):
                    embed_matrix(matrix, **kwargs)
            else:
                embed_matrix(matrix, **kwargs)
        assert outcomes == {True, False}
