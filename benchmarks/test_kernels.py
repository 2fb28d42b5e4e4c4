"""Numpy-vs-scalar kernel benchmarks at the paper's evaluation scale.

Times every hot-path kernel on the full 226-node setting (k = 8
replicas, m = 16 micro-clusters — the upper end of the paper's sweeps)
on the production kernels, then the same calls with the scalar twins of
``repro.kernels._reference`` swapped in (``tests/data/kernel_twins.py``),
records the numbers in ``BENCH_kernels.json`` next to this module, and
enforces the speedup floors:

* weighted k-means and the two coordinate-distance kernels are
  embarrassingly data-parallel and must each beat the scalar oracle
  >= 3x, as must the full offline placement pipeline built from them;
* micro-cluster stream absorption is *inherently sequential* (every
  absorb/spawn/merge decision sees the clusters as the previous point
  left them), so the loop over points stays in Python in both.
  The production kernel wins on the work inside one step.  At m = 16
  it runs its python-list regime: an absorbed point is one generated
  search over Python floats and no numpy call, instead of the oracle's
  generic m x d zip loop, and a lazily maintained centroid-pair
  triangle, Python lists by column with cached column minima, replaces
  an O(m^2 d) closest-pair scan per spawn.  Measured 4.2x at m = 16
  while the triangle was a numpy matrix (2.65x with the per-point numpy
  search, 1.39x before the pair matrix), floor 3.3x.
  The online placement pipeline is that kernel plus weighted k-means
  over only k*m <= 128 micro-clusters, where per-call numpy overhead
  caps k-means at ~2.4x — hence ~2.8x end to end, not the 4-13x of the
  large-input kernels;
* the coordinate embedding (``embed_rounds``: 226-node RNP, 40 gossip
  rounds — the world every chaos / catalog cell builds) is timed as the
  wavefront kernel against the per-node object loop it replaced, both
  called directly with the production kernels in place: the loop's
  refit distances run the numpy ``cross_distances`` exactly as they did
  while the loop was ``embed_matrix``, so the ratio is the batching and
  nothing else: measured 17.96x, floor 14x;
* the exhaustive oracle (``best_subset``: the setting's 206 x 20 RTT
  block at k = 7, C(20, 7) = 77 520 combinations — Fig. 2's largest
  cell) is timed the same way, the prefix-shared running-minimum scan
  against the chunked gather scan it replaced, both called directly
  (the gather scan is vectorised numpy too; the ratio is the
  algorithm): measured 7.07x, floor 3x.
"""

import json
import pathlib
import time
from math import comb

import numpy as np
import pytest

from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.stream import OnlineClusterer
from repro.coords.space import EuclideanSpace
from repro.kernels import _reference
from repro.kernels import embed
from repro.kernels import subset
from repro.kernels import wkmeans as wk
from repro.placement.base import PlacementProblem
from repro.placement.offline_kmeans import OfflineKMeansPlacement
from repro.placement.online import OnlineClusteringPlacement

from conftest import host_stamp, print_result
from tests.data.kernel_twins import PATHS, kernel_path

BENCH_OUT = pathlib.Path(__file__).parent / "BENCH_kernels.json"

K = 8                 # replicas (paper sweeps k up to 8 on 226 nodes)
M = 16                # micro-cluster budget
ACCESSES = 3          # accesses per client per epoch
CANDIDATES = 20
REPEATS = 5
EMBED_ROUNDS = 40     # the chaos / catalog world (`live_world`)
SUBSET_K = 7          # Fig. 2's largest oracle cell


def _best(fn, repeats=REPEATS):
    """Best-of-N wall-clock; the minimum is the least noisy estimator."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.bench
def test_kernel_speedups(evaluation_world, capsys):
    matrix, planar, heights = evaluation_world
    candidates = tuple(range(CANDIDATES))
    clients = tuple(range(CANDIDATES, matrix.n))
    problem = PlacementProblem(matrix=matrix, candidates=candidates,
                               clients=clients, k=K, coords=planar,
                               heights=heights)
    client_coords = planar[list(clients)]
    stream = np.repeat(client_coords, ACCESSES, axis=0)

    def time_both(fn):
        times = {}
        for path in PATHS:
            with kernel_path(path):
                times[path] = _best(fn)
        return times

    workloads = {
        "weighted_kmeans": time_both(
            lambda: weighted_kmeans(client_coords, K,
                                    rng=np.random.default_rng(0),
                                    n_init=4)),
        "cf_absorb_stream": time_both(
            lambda: OnlineClusterer(M).extend(stream)),
        "pairwise_distances": time_both(
            lambda: wk.pairwise_distances(planar, heights=heights)),
        "cross_distances": time_both(
            lambda: wk.cross_distances(
                client_coords, planar[list(candidates)],
                b_heights=heights[list(candidates)])),
        "placement_online_end_to_end": time_both(
            lambda: OnlineClusteringPlacement(
                micro_clusters=M, migration_rounds=2).place(
                    problem, np.random.default_rng(0))),
        "placement_offline_end_to_end": time_both(
            lambda: OfflineKMeansPlacement().place(
                problem, np.random.default_rng(0))),
    }
    #: Kernels making up the aggregate "paper-scale workload" bar; the
    #: end-to-end run is excluded because it also times shared
    #: work the twins do not replace (RNG, problem bookkeeping).
    kernel_keys = ("weighted_kmeans", "cf_absorb_stream",
                   "pairwise_distances", "cross_distances")

    # Coordinate embedding: wavefront kernel vs per-node loop, both
    # with the production kernels in place (see the module docstring).
    def embed_with(embed_rounds):
        return lambda: embed_rounds(
            matrix.rtt, "rnp", EuclideanSpace(dim=3, use_height=True),
            EMBED_ROUNDS, np.random.default_rng(1))

    embed_kernel_s = _best(embed_with(embed.embed_rounds))
    embed_loop_s = _best(embed_with(_reference.embed_rounds), repeats=3)

    # Exhaustive oracle: running-minimum scan vs chunked gather scan,
    # both called directly (see the module docstring).
    block = matrix.rows(clients, candidates)
    subset_kernel_s = _best(lambda: subset.best_subset(block, SUBSET_K))
    subset_gather_s = _best(
        lambda: _reference.best_subset(block, SUBSET_K), repeats=3)

    speedups = {name: t["python"] / t["numpy"]
                for name, t in workloads.items()}
    agg_python = sum(workloads[k]["python"] for k in kernel_keys)
    agg_numpy = sum(workloads[k]["numpy"] for k in kernel_keys)
    aggregate = agg_python / agg_numpy

    doc = {
        "benchmark": "kernels",
        "setting": {"n_nodes": matrix.n, "k": K, "micro_clusters": M,
                    "accesses_per_client": ACCESSES,
                    "stream_points": int(stream.shape[0]),
                    "repeats": REPEATS},
        "workloads": {
            name: {"numpy_ms": round(t["numpy"] * 1e3, 3),
                   "python_ms": round(t["python"] * 1e3, 3),
                   "speedup": round(speedups[name], 2)}
            for name, t in workloads.items()
        },
        "aggregate_kernel_speedup": round(aggregate, 2),
        "host": host_stamp(),
        "embed_rounds": {
            "system": "rnp", "n_nodes": matrix.n, "rounds": EMBED_ROUNDS,
            "kernel_ms": round(embed_kernel_s * 1e3, 3),
            "per_node_loop_ms": round(embed_loop_s * 1e3, 3),
            "speedup": round(embed_loop_s / embed_kernel_s, 2),
        },
        "best_subset": {
            "clients": len(clients), "candidates": CANDIDATES, "k": SUBSET_K,
            "combinations": comb(CANDIDATES, SUBSET_K),
            "kernel_ms": round(subset_kernel_s * 1e3, 3),
            "gather_scan_ms": round(subset_gather_s * 1e3, 3),
            "speedup": round(subset_gather_s / subset_kernel_s, 2),
        },
    }
    BENCH_OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print_result(capsys, json.dumps(doc, indent=2))

    # The paper-scale >= 3x bar: the data-parallel kernels individually
    # and the full offline placement pipeline (k-means + candidate
    # distances, the heaviest compute in the evaluation).
    assert speedups["weighted_kmeans"] >= 3.0, doc
    assert speedups["pairwise_distances"] >= 3.0, doc
    assert speedups["cross_distances"] >= 3.0, doc
    assert speedups["placement_offline_end_to_end"] >= 3.0, doc
    # The mixed aggregate includes the sequential absorption kernel;
    # its floor is correspondingly lower so scheduler noise cannot flake
    # the nightly job.
    assert aggregate >= 2.5, doc
    # Sequential over points, no numpy call per absorbed point: measured
    # 4.2x, floor with 25 % headroom.
    assert speedups["cf_absorb_stream"] >= 3.3, doc
    assert speedups["placement_online_end_to_end"] >= 1.0, doc
    # ~5 batched wave steps per round instead of 226 node updates:
    # measured 17.96x, floor with 25 % headroom.
    assert doc["embed_rounds"]["speedup"] >= 14.0, doc
    # ~116 k broadcast row minima instead of 77 520 x 7 gathered
    # columns, in cache-sized pieces: measured 7.07x, floor 3x.
    assert doc["best_subset"]["speedup"] >= 3.0, doc
