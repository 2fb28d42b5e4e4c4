"""Ablation — micro-cluster maintenance design choices.

DESIGN.md calls out the ``radius_floor`` parameter: the paper absorbs a
point when it lies within the nearest cluster's standard deviation, but
singleton clusters have zero deviation, so a floor gives young clusters
a catchment area.  This bench sweeps the floor (0 disables it) and the
merge policy's sensitivity, measuring end placement quality at the
paper's setting (226 nodes, 20 dispersed candidates, k = 3).

The benchmark timing measures ingest with the default floor.
"""

import numpy as np
import pytest

from repro import OnlineClusteringPlacement
from repro.analysis import summarize
from repro.analysis.experiment import run_comparison
from repro.core import ReplicaAccessSummary

from conftest import FULL_SETTING, print_result

FLOORS = (0.0, 2.0, 5.0, 15.0, 50.0)


@pytest.fixture(scope="module")
def floor_sweep(evaluation_world):
    matrix, coords, heights = evaluation_world
    results = {}
    for floor in FLOORS:
        strategy = OnlineClusteringPlacement(micro_clusters=10,
                                             radius_floor=floor)
        delays = run_comparison(matrix, coords, [strategy], 20, 3,
                                FULL_SETTING.n_runs, FULL_SETTING.seed,
                                heights=heights)
        results[floor] = summarize(delays[strategy.name])
    return results


def test_radius_floor_table(floor_sweep, capsys, benchmark):
    lines = ["Radius-floor ablation — online clustering, k=3, 20 DCs",
             f"{'floor (ms)':>10} | {'mean delay (ms)':>16} | {'std':>8}"]
    for floor, summary in floor_sweep.items():
        lines.append(f"{floor:>10.1f} | {summary.mean:>16.1f} | "
                     f"{summary.std:>8.1f}")
    print_result(capsys, benchmark(lambda: "\n".join(lines)))
    assert floor_sweep[5.0].mean <= floor_sweep[0.0].mean * 1.05


def test_moderate_floor_not_worse_than_none(floor_sweep):
    # The default (5 ms) must not lose to a disabled floor.
    assert floor_sweep[5.0].mean <= floor_sweep[0.0].mean * 1.05


def test_huge_floor_degrades(floor_sweep):
    # A 50 ms catchment area blurs distinct populations together; it
    # must not *help* relative to the default.
    assert floor_sweep[50.0].mean >= floor_sweep[5.0].mean * 0.98


def test_all_floors_within_sane_band(floor_sweep):
    means = [s.mean for s in floor_sweep.values()]
    assert max(means) <= min(means) * 1.3


def test_ingest_kernel_with_default_floor(benchmark):
    # Block ingest of a 4 096-access stream into a fresh summary.
    rng = np.random.default_rng(0)
    points = rng.normal(0, 80, size=(4096, 3))

    def ingest():
        summary = ReplicaAccessSummary(max_micro_clusters=10,
                                       radius_floor=5.0)
        summary.record_batch(points)
        return summary

    assert benchmark(ingest).accesses == 4096
