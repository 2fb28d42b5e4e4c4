"""Ablation — read/write-aware placement (extension; §II-A assumption).

The paper ignores update propagation ("data objects are read much more
frequently than updated").  This bench quantifies when that assumption
stops being safe: a mixed workload (readers spread worldwide, writers
concentrated in one region) is placed two ways —

* **read-only** — the paper's Algorithm 1, blind to writes;
* **rw-aware**  — :func:`repro.core.place_replicas_rw`, which prices
  update fan-out between replicas;

and both placements are scored on *true* RTTs under the full cost model
(read = nearest replica; write = nearest replica + mean propagation).
Expected: identical at 0 % writes, and a growing advantage for the
rw-aware placement as the write share rises.

The benchmark timing measures one rw-aware placement call.
"""

import numpy as np
import pytest

from repro.analysis import draw_candidates
from repro.clustering import MicroClusters
from repro.core import ReplicaAccessSummary, place_replicas, place_replicas_rw

from conftest import FULL_SETTING, print_result

WRITE_FRACTIONS = (0.0, 0.1, 0.3, 0.5)
K = 3


def _summaries_from(coords_rows, m=10):
    summary = ReplicaAccessSummary(m, radius_floor=5.0)
    summary.record_batch(coords_rows)
    return summary.clusters


def _true_cost(matrix, readers, writers, sites, write_fraction):
    read_block = matrix.rows(readers, sites)
    read_cost = read_block.min(axis=1).mean() if len(readers) else 0.0
    if len(writers) and len(sites) > 1:
        write_block = matrix.rows(writers, sites)
        nearest = np.argmin(write_block, axis=1)
        inter = matrix.rows(sites, sites)
        fanout = inter.sum(axis=1) / (len(sites) - 1)
        write_cost = (write_block[np.arange(len(writers)), nearest]
                      + fanout[nearest]).mean()
    elif len(writers):
        write_cost = matrix.rows(writers, sites).min(axis=1).mean()
    else:
        write_cost = 0.0
    return ((1 - write_fraction) * read_cost
            + write_fraction * write_cost)


@pytest.fixture(scope="module")
def sweep(evaluation_world):
    matrix, coords, heights = evaluation_world
    rng = np.random.default_rng(FULL_SETTING.seed)
    results = {}
    for wf in WRITE_FRACTIONS:
        blind_costs, aware_costs = [], []
        for run in range(10):
            run_rng = np.random.default_rng((FULL_SETTING.seed, run))
            candidates, clients = draw_candidates(matrix, 20, run_rng)
            clients = np.array(clients)
            # Writers: the geographically tightest third of the clients
            # (an update-intensive home region); readers: everyone.
            anchor = clients[int(run_rng.integers(len(clients)))]
            order = np.argsort(matrix.rtt[anchor, clients])
            writers = clients[order[:len(clients) // 3]]
            readers = clients

            n_reads = int(round((1 - wf) * 3000))
            n_writes = int(round(wf * 3000))
            read_rows = coords[run_rng.choice(readers, size=n_reads)] \
                if n_reads else np.empty((0, coords.shape[1]))
            write_rows = coords[run_rng.choice(writers, size=n_writes)] \
                if n_writes else np.empty((0, coords.shape[1]))
            read_cf = _summaries_from(read_rows)
            write_cf = _summaries_from(write_rows)

            dc_coords = coords[list(candidates)]
            dc_heights = heights[list(candidates)] if heights is not None else None
            pooled = MicroClusters.concat([read_cf, write_cf])
            blind = place_replicas(pooled, K, dc_coords,
                                   np.random.default_rng(run),
                                   dc_heights=dc_heights)
            aware = place_replicas_rw(read_cf, write_cf, K, dc_coords,
                                      np.random.default_rng(run),
                                      dc_heights=dc_heights)
            blind_sites = [candidates[p] for p in blind.data_centers]
            aware_sites = [candidates[p] for p in aware.data_centers]
            blind_costs.append(_true_cost(matrix, readers, writers,
                                          blind_sites, wf))
            aware_costs.append(_true_cost(matrix, readers, writers,
                                          aware_sites, wf))
        results[wf] = (float(np.mean(blind_costs)),
                       float(np.mean(aware_costs)))
    return results


def test_readwrite_table(sweep, capsys, benchmark):
    lines = ["Read/write-aware placement ablation — true combined cost (ms)",
             f"{'write frac':>10} | {'read-only placement':>19} | "
             f"{'rw-aware placement':>18} | {'advantage':>9}"]
    for wf, (blind, aware) in sweep.items():
        adv = 100.0 * (blind - aware) / blind
        lines.append(f"{wf:>10.0%} | {blind:>19.1f} | {aware:>18.1f} | "
                     f"{adv:>8.1f}%")
    print_result(capsys, benchmark(lambda: "\n".join(lines)))
    # Identical information at 0% writes: costs must agree closely.
    blind0, aware0 = sweep[0.0]
    assert abs(blind0 - aware0) <= 0.05 * blind0


def test_rw_awareness_pays_off_for_write_heavy_workloads(sweep):
    blind, aware = sweep[0.5]
    assert aware <= blind * 1.001
    # And the advantage at 50% writes exceeds the advantage at 10%.
    adv10 = sweep[0.1][0] - sweep[0.1][1]
    adv50 = sweep[0.5][0] - sweep[0.5][1]
    assert adv50 >= adv10 - 1.0


def test_rw_placement_kernel(benchmark, evaluation_world):
    matrix, coords, heights = evaluation_world
    rng = np.random.default_rng(0)
    candidates, clients = draw_candidates(matrix, 20, rng)
    read_cf = _summaries_from(coords[list(clients[:150])])
    write_cf = _summaries_from(coords[list(clients[150:200])])
    dc_coords = coords[list(candidates)]
    benchmark(lambda: place_replicas_rw(read_cf, write_cf, 3, dc_coords,
                                        np.random.default_rng(1)))
