"""Figure 3 — impact of the number of micro-clusters per replica.

Paper's observations this bench reproduces and asserts:

* with more micro-clusters the summary has finer granularity and the
  estimated replica locations improve;
* the delay is "nearly minimized when 4 micro-clusters are maintained"
  — the curve saturates around m = 4.

The benchmark timing measures summary ingest (one access fold-in).
"""

import numpy as np
import pytest

from repro import run_figure3
from repro.analysis import format_figure
from repro.core import ReplicaAccessSummary

from conftest import FULL_SETTING, print_result


@pytest.fixture(scope="module")
def figure3():
    return run_figure3(FULL_SETTING)


def test_fig3_series(figure3, capsys, benchmark):
    text = benchmark(lambda: format_figure(figure3))
    print_result(capsys, text)
    assert set(figure3.series) == {
        "1 micro-clusters", "2 micro-clusters", "4 micro-clusters",
        "7 micro-clusters", "11 micro-clusters",
    }
    # Saturation claim, asserted in benchmark-only runs too.  On our
    # synthetic matrix the knee falls between m = 4 and m = 7 rather
    # than exactly at 4 (EXPERIMENTS.md discusses why), so m = 4 is
    # required to be within 15 % of the m = 11 plateau.
    for a, b in zip(figure3.means("4 micro-clusters"),
                    figure3.means("11 micro-clusters")):
        assert a <= b * 1.15


def test_fig3_more_micro_clusters_reduce_delay(figure3):
    m1 = np.mean(figure3.means("1 micro-clusters"))
    m2 = np.mean(figure3.means("2 micro-clusters"))
    m4 = np.mean(figure3.means("4 micro-clusters"))
    assert m4 <= m2 <= m1 * 1.02


def test_fig3_saturates_around_4(figure3):
    # m = 4 already gets within 15 % of the m = 11 plateau at every k
    # (the knee lands between 4 and 7 on our matrix; EXPERIMENTS.md).
    m4 = figure3.means("4 micro-clusters")
    m11 = figure3.means("11 micro-clusters")
    for a, b in zip(m4, m11):
        assert a <= b * 1.15
    # And m = 7 is already at the plateau within 10 %.
    m7 = figure3.means("7 micro-clusters")
    for a, b in zip(m7, m11):
        assert a <= b * 1.10


def test_fig3_single_micro_cluster_clearly_worse(figure3):
    # m = 1 collapses each replica's users to one centroid; at high k it
    # must be visibly worse than m = 11.
    m1_high_k = figure3.means("1 micro-clusters")[-1]
    m11_high_k = figure3.means("11 micro-clusters")[-1]
    assert m1_high_k > m11_high_k


def test_fig3_ingest_kernel(benchmark):
    # Block ingest, as a store's flush runs it: one record_batch of a
    # 4 096-access stream into a fresh m = 11 summary.
    rng = np.random.default_rng(0)
    points = rng.uniform(-200, 200, size=(4096, 3))

    def ingest():
        summary = ReplicaAccessSummary(max_micro_clusters=11,
                                       radius_floor=5.0)
        summary.record_batch(points)
        return summary

    summary = benchmark(ingest)
    assert summary.accesses == 4096
    assert len(summary) <= 11
