"""The standard-library Student-t in ``repro.analysis.stats``.

``scipy.stats`` is the reference here, and only here: the package
itself must never import it (the guards at the bottom).
"""

import ast
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

import repro
from repro.analysis import compare_paired, summarize
from repro.analysis.stats import _t975, _t_quantile, _t_two_sided

# Not p near 1/2: there scipy's own quantile is off by 1e-9 (df = 4,
# p = 0.5001, against the closed-form CDF), ours by 2e-13.
PROBABILITIES = (0.6, 0.9, 0.975, 0.995, 0.9999)


def _relative(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("p", PROBABILITIES)
def test_quantile_equals_scipy(p):
    worst = max(_relative(_t_quantile(p, df), scipy_stats.t.ppf(p, df))
                for df in [*range(1, 1001), 10 ** 4])
    assert worst <= 1e-11


@pytest.mark.parametrize("df", [10 ** 6, 10 ** 8])
@pytest.mark.parametrize("p", PROBABILITIES)
def test_quantile_at_huge_df(p, df):
    assert _relative(_t_quantile(p, df), scipy_stats.t.ppf(p, df)) <= 1e-9


@pytest.mark.parametrize("df", [29, 10 ** 6, 10 ** 8])
def test_ci_quantile_is_exact_to_rounding_at_any_df(df):
    # The CI's 0.975 quantile evaluates its tail through the complement
    # (t^2 = 3.8 < 4.5), which is exact to rounding at any df.
    assert _relative(_t975(df), scipy_stats.t.ppf(0.975, df)) <= 1e-13


def test_lower_quantiles_mirror_upper_ones():
    for df in (1, 2, 3, 29):
        assert _t_quantile(0.025, df) == -_t_quantile(0.975, df)


def test_two_sided_tail_equals_scipy():
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(3000):
        df = int(rng.integers(1, 200))
        t = float(rng.standard_cauchy() * 10.0 ** rng.uniform(-2, 3))
        want = 2.0 * scipy_stats.t.sf(abs(t), df)
        if want < 1e-300:
            continue
        assert _relative(_t_two_sided(t, df), want) <= 1e-10, (t, df)
        checked += 1
    assert checked > 2900


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(1e-10, 0.999), df=st.integers(1, 10 ** 4))
def test_tail_at_the_quantile_is_alpha(alpha, df):
    p = 1.0 - alpha / 2.0
    # The alpha that p still holds: 1 - p is exact, alpha was rounded.
    alpha = 2.0 * (1.0 - p)
    assert _relative(_t_two_sided(_t_quantile(p, df), df), alpha) <= 1e-10


def test_tail_edge_cases():
    for df in (1, 2, 29, 10 ** 6):
        assert _t_two_sided(0.0, df) == 1.0
        assert _t_two_sided(math.inf, df) == 0.0
        assert _t_two_sided(-math.inf, df) == 0.0
        assert math.isnan(_t_two_sided(math.nan, df))
    assert _t_two_sided(-2.0, 5) == _t_two_sided(2.0, 5)
    # t * t would overflow; the tail is still the tiny positive number.
    assert _t_two_sided(1e200, 1) == pytest.approx(2 / (math.pi * 1e200),
                                                   rel=1e-12)


def test_ci_quantile_is_computed_once_per_df():
    _t975.cache_clear()
    summarize([1.0, 2.0, 4.0])
    summarize([3.0, 5.0, 9.0])
    info = _t975.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_nan_sample_gives_nan_p_value_and_no_significance():
    result = compare_paired([1.0, math.nan, 3.0, 4.0], [1.5, 2.0, 2.5, 5.0])
    assert math.isnan(result.p_value)
    assert not result.significant


def test_non_finite_sample_summarizes_to_nan():
    assert math.isnan(summarize([1.0, math.nan, 3.0]).ci95_half_width)
    assert math.isnan(summarize([1.0, math.inf, 3.0]).std)


def test_no_module_in_the_package_imports_scipy_stats():
    imports = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.stats" or name.startswith("scipy.stats.")
                   for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert imports == []


def test_statistics_and_a_pooled_sweep_run_without_scipy_stats():
    # ``None`` in sys.modules makes every import of scipy.stats raise;
    # the pool's forked workers inherit it.
    code = (
        "import sys; sys.modules['scipy.stats'] = None\n"
        "from repro.analysis import (EvaluationSetting, compare_paired,\n"
        "                            run_figure2, summarize)\n"
        "print(round(summarize([10.0, 20.0, 30.0]).ci95_half_width, 6))\n"
        "print(round(compare_paired([10.0, 12.0, 11.0, 13.0],\n"
        "                           [11.0, 14.0, 11.5, 15.5]).p_value, 6))\n"
        "fig = run_figure2(EvaluationSetting(n_nodes=40, n_runs=2), (1, 2),\n"
        "                  jobs=2)\n"
        "print(all(p.summary.n == 2 for points in fig.series.values()\n"
        "          for p in points))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.splitlines() == ["24.841377", "0.046205", "True"], \
        done.stderr
