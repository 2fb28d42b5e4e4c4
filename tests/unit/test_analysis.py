"""Unit tests for repro.analysis (stats, experiment harness, reports)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import (
    EvaluationSetting,
    Table2Row,
    default_strategies,
    format_figure,
    format_table2,
    run_comparison,
    run_figure2,
    run_table2,
    summarize,
)
from repro.analysis.experiment import draw_candidates
from repro.analysis.report import format_bytes
from repro.coords import EuclideanSpace, embed_matrix
from repro.net.planetlab import small_matrix


SMALL = EvaluationSetting(n_nodes=50, n_runs=4, coord_system="mds",
                          seed=1)


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([10.0, 20.0, 30.0])
        assert s.mean == 20.0
        assert s.n == 3
        assert s.std == pytest.approx(10.0)
        lo, hi = s.ci95
        assert lo < 20.0 < hi

    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.ci95_half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_ci_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(0, 1, size=5))
        large = summarize(rng.normal(0, 1, size=500))
        assert large.ci95_half_width < small.ci95_half_width

    def test_t_quantile_value(self):
        # t(0.975, df=2) * 10 / sqrt(3)
        assert summarize([10, 20, 30]).ci95_half_width == pytest.approx(
            24.841377117503303, rel=1e-12)


def test_importing_the_package_does_not_import_scipy_stats():
    """``scipy.optimize`` loads on the first GNP fit, not with the CLI;
    ``scipy.stats`` never loads, not even for a t-quantile."""
    code = ("import sys, numpy, repro, repro.cli; "
            "loaded = lambda: [m in sys.modules"
            " for m in ('scipy.optimize', 'scipy.stats')]; "
            "print(*loaded()); "
            "from repro.coords import EuclideanSpace, gnp_embed; "
            "rtt = numpy.abs(numpy.subtract.outer(*[numpy.arange(8.0)] * 2)); "
            "coords = gnp_embed(rtt, EuclideanSpace(dim=2), n_landmarks=4); "
            "print(*loaded(), coords.shape); "
            "repro.analysis.summarize([1.0, 2.0]); "
            "print(*loaded())")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.splitlines() == [
        "False False", "True False (8, 2)", "True False"], done.stderr


class TestDrawCandidates:
    def test_partition_is_complete_and_disjoint(self):
        matrix = small_matrix(n=30, seed=0)
        for mode in ("uniform", "dispersed"):
            cands, clients = draw_candidates(matrix, 8,
                                              np.random.default_rng(0), mode)
            assert len(cands) == 8
            assert len(set(cands)) == 8
            assert set(cands) | set(clients) == set(range(30))
            assert not set(cands) & set(clients)

    def test_dispersed_is_more_spread_than_uniform(self):
        matrix = small_matrix(n=60, seed=3)
        spreads = {}
        for mode in ("uniform", "dispersed"):
            pair_mins = []
            for run in range(10):
                cands, _ = draw_candidates(matrix, 10,
                                            np.random.default_rng(run), mode)
                sub = matrix.rows(cands, cands).copy()
                np.fill_diagonal(sub, np.inf)
                pair_mins.append(sub.min())
            spreads[mode] = np.mean(pair_mins)
        # Dispersed candidates keep larger nearest-neighbour distances.
        assert spreads["dispersed"] > spreads["uniform"]

    def test_unknown_mode_rejected(self):
        matrix = small_matrix(n=10, seed=0)
        with pytest.raises(ValueError, match="candidate mode"):
            draw_candidates(matrix, 3, np.random.default_rng(0), "psychic")


class TestRunComparison:
    def test_shapes_and_determinism(self):
        matrix = small_matrix(n=30, seed=1)
        res = embed_matrix(matrix, system="mds", space=EuclideanSpace(3))
        strategies = default_strategies(6)
        d1 = run_comparison(matrix, res.coords, strategies, 8, 2, 3, seed=9)
        d2 = run_comparison(matrix, res.coords, strategies, 8, 2, 3, seed=9)
        assert set(d1) == {s.name for s in strategies}
        assert all(len(v) == 3 for v in d1.values())
        assert d1 == d2

    def test_rejects_no_clients(self):
        matrix = small_matrix(n=10, seed=1)
        with pytest.raises(ValueError, match="client"):
            run_comparison(matrix, np.zeros((10, 2)), default_strategies(),
                           10, 1, 1)

    def test_optimal_lower_bounds_everyone(self):
        matrix = small_matrix(n=30, seed=1)
        res = embed_matrix(matrix, system="mds", space=EuclideanSpace(3))
        delays = run_comparison(matrix, res.coords, default_strategies(6),
                                8, 2, 4, seed=3)
        for run in range(4):
            for name, values in delays.items():
                assert delays["optimal"][run] <= values[run] + 1e-9


class TestFigureRunners:
    def test_figure2_structure(self):
        fig = run_figure2(SMALL, replica_counts=(1, 2), n_dc=10,
                          micro_clusters=4)
        assert set(fig.series) == {"random", "offline k-means",
                                   "online clustering", "optimal"}
        assert fig.xs("random") == [1.0, 2.0]
        assert all(len(v) == 2 for v in fig.series.values())
        # Every point summarizes n_runs runs.
        assert fig.series["random"][0].summary.n == SMALL.n_runs

    def test_figure_formatting(self):
        fig = run_figure2(SMALL, replica_counts=(1, 2), n_dc=10,
                          micro_clusters=4)
        text = format_figure(fig)
        assert "Figure 2" in text
        assert "online clustering" in text
        assert "| 1" in text and "| 2" in text


class TestTable2:
    def test_rows_and_invariants(self):
        rows = run_table2(n_accesses_list=(500, 5_000), k=2, m=20)
        assert len(rows) == 2
        first, second = rows
        # Online bytes bounded by the k*m budget; offline grows with n.
        assert first.online_bytes <= first.online_bytes_analytic
        assert second.offline_bytes == 10 * first.offline_bytes
        assert second.offline_bytes == second.offline_bytes_analytic
        # Coordinator-side clustering cost independent of n (loose bound).
        assert second.online_seconds < max(first.online_seconds, 0.005) * 20

    def test_formatting(self):
        rows = run_table2(n_accesses_list=(500,), k=2, m=20)
        text = format_table2(rows)
        assert "Table II" in text
        assert "500" in text


class TestFormatBytes:
    def test_units(self):
        assert format_bytes(10) == "10 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024 ** 2) == "3.0 MB"
        assert format_bytes(5 * 1024 ** 3) == "5.0 GB"


class TestTimeline:
    def test_policy_validation(self):
        from repro.analysis import TimelinePolicy
        with pytest.raises(ValueError, match="period"):
            TimelinePolicy("x", epoch_period_ms=0.0)
        with pytest.raises(ValueError, match="k"):
            TimelinePolicy("x", k=0)

    def test_run_timeline_shapes(self):
        from repro.analysis import TimelinePolicy, run_timeline
        from repro.workloads import ConstantPattern
        result = run_timeline(
            lambda topo: ConstantPattern(),
            [TimelinePolicy("static", epoch_period_ms=None),
             TimelinePolicy("online")],
            n_nodes=30, n_dc=6, duration_ms=30_000.0, bin_ms=10_000.0,
            rate_per_second=80.0, seed=2)
        assert set(result.series) == {"static", "online"}
        assert all(len(v) == 3 for v in result.series.values())
        assert len(result.bin_centers_s) == 3
        assert result.bin_centers_s[0] == pytest.approx(5.0)
        assert result.migrations["static"] == 0

    def test_run_timeline_validation(self):
        from repro.analysis import TimelinePolicy, run_timeline
        from repro.workloads import ConstantPattern
        with pytest.raises(ValueError, match="duration"):
            run_timeline(lambda t: ConstantPattern(),
                         [TimelinePolicy("x")], duration_ms=5.0,
                         bin_ms=10.0)


class TestComparePaired:
    def test_clear_difference_significant(self):
        from repro.analysis import compare_paired
        rng = np.random.default_rng(0)
        base = rng.normal(100, 20, size=30)
        a = base - 10 + rng.normal(0, 1, size=30)   # consistently faster
        b = base + rng.normal(0, 1, size=30)
        result = compare_paired(a, b)
        assert result.significant
        assert result.a_is_better
        assert result.mean_difference == pytest.approx(-10, abs=2)
        assert result.n == 30

    def test_identical_samples_not_significant(self):
        from repro.analysis import compare_paired
        values = [10.0, 20.0, 30.0]
        result = compare_paired(values, values)
        assert not result.significant
        assert result.p_value == 1.0
        assert not result.a_is_better

    def test_noise_not_significant(self):
        from repro.analysis import compare_paired
        rng = np.random.default_rng(1)
        a = rng.normal(100, 5, size=10)
        b = a + rng.normal(0, 5, size=10)  # pure noise difference
        result = compare_paired(a, b, alpha=0.001)
        assert not result.significant

    def test_p_value(self):
        from repro.analysis import compare_paired
        result = compare_paired([10.0, 12.0, 11.0, 13.0],
                                [11.0, 14.0, 11.5, 15.5])
        assert result.mean_difference == -1.5
        assert result.p_value == pytest.approx(0.046205091353363266,
                                               rel=1e-9)

    def test_validation(self):
        from repro.analysis import compare_paired
        with pytest.raises(ValueError, match="equally sized"):
            compare_paired([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="alpha"):
            compare_paired([1.0, 2.0], [3.0, 4.0], alpha=2.0)

    def test_paired_test_beats_unpaired_on_run_variance(self):
        # The scenario the harness produces: huge run-to-run variance,
        # small consistent strategy effect.  Paired detects it.
        from repro.analysis import compare_paired
        rng = np.random.default_rng(2)
        run_effects = rng.normal(100, 40, size=30)
        a = run_effects - 3.0
        b = run_effects.copy()
        result = compare_paired(a, b)
        assert result.significant and result.a_is_better
