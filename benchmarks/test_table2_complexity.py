"""Table II — online vs. offline clustering overheads.

Paper's claims this bench reproduces and asserts:

* bandwidth: the online scheme ships O(k·m) micro-clusters (< 300 KB in
  the paper's 3×100 example) regardless of the number of accesses; the
  offline approach ships every client coordinate — O(n), tens of
  megabytes at a million accesses;
* computation: the coordinator's clustering cost is independent of n
  online (it clusters k·m pseudo-points) but grows with n offline.

The benchmark timing measures the coordinator's macro-clustering step
(Algorithm 1) at the paper's k = 3, m = 100 example size.
"""

import numpy as np
import pytest

from repro import place_replicas
from repro.analysis import format_table2, run_table2
from repro.clustering import MicroClusters
from repro.core import (
    ReplicaAccessSummary,
    offline_bandwidth_bytes,
    online_bandwidth_bytes,
)

from conftest import print_result


@pytest.fixture(scope="module")
def table2():
    return run_table2(n_accesses_list=(1_000, 10_000, 100_000, 300_000),
                      k=3, m=100)


def test_table2_rows(table2, capsys, benchmark):
    text = benchmark(lambda: format_table2(table2))
    print_result(capsys, text)
    assert len(table2) == 4
    # Headline claims, asserted in benchmark-only runs too:
    sizes = [row.online_bytes for row in table2]
    assert max(sizes) <= min(sizes) * 1.5
    assert table2[-1].offline_bytes > 100 * table2[-1].online_bytes


def test_table2_online_bandwidth_independent_of_n(table2):
    sizes = [row.online_bytes for row in table2]
    assert max(sizes) <= min(sizes) * 1.5
    # The paper's bound: 300 micro-clusters under 300 KB.
    assert all(s < 300 * 1024 for s in sizes)


def test_table2_offline_bandwidth_linear_in_n(table2):
    for a, b in zip(table2, table2[1:]):
        expected_ratio = b.n_accesses / a.n_accesses
        assert b.offline_bytes == pytest.approx(
            a.offline_bytes * expected_ratio)


def test_table2_orders_of_magnitude_at_scale(table2):
    last = table2[-1]
    assert last.offline_bytes > 100 * last.online_bytes


def test_table2_online_compute_independent_of_n(table2):
    times = [row.online_seconds for row in table2]
    # Coordinator work stays flat (generous 20x tolerance over timer noise).
    assert max(times) <= max(min(times), 1e-3) * 20


def test_table2_offline_compute_grows_with_n(table2):
    assert table2[-1].offline_seconds > table2[0].offline_seconds * 5


def test_table2_analytic_formulas_match_paper_example():
    # "If 100 micro-clusters are maintained for each of three replicas,
    #  each replica placement involves transferring 300 micro-clusters
    #  (i.e., less than 300KB of data)."
    assert online_bandwidth_bytes(3, 100, dim=3) < 300 * 1024
    # "offline clustering would require transferring more than tens of
    #  megabytes" for 1M accesses.
    assert offline_bandwidth_bytes(1_000_000, dim=3) > 10 * 1024 ** 2


def test_table2_macro_clustering_kernel(benchmark):
    # The coordinator's per-epoch work at the paper's example size.
    rng = np.random.default_rng(0)
    summaries = [ReplicaAccessSummary(100, radius_floor=10.0)
                 for _ in range(3)]
    points = rng.uniform(-200, 200, size=(3000, 3))
    for i, summary in enumerate(summaries):
        summary.record_batch(points[i::3])  # replica i sees every third
    pooled = MicroClusters.concat([s.clusters for s in summaries])
    dc_coords = rng.uniform(-200, 200, size=(20, 3))
    benchmark(lambda: place_replicas(pooled, 3, dc_coords,
                                     np.random.default_rng(1)))
