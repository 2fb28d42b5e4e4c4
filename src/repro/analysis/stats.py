"""Summary statistics and significance tests for experiment results.

``scipy.stats`` is imported inside the two functions that need it: at
module level it costs every ``import repro`` (each CLI call, each runner
worker) about 0.7 s and 20 MiB for a t-quantile most runs never ask for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Summary", "SeriesPoint", "summarize", "PairedComparison",
           "compare_paired"]


@dataclass(frozen=True)
class Summary:
    """Mean with dispersion for a set of run outcomes."""

    mean: float
    std: float
    ci95_half_width: float
    n: int

    @property
    def ci95(self) -> tuple[float, float]:
        """95 % confidence interval for the mean."""
        return (self.mean - self.ci95_half_width,
                self.mean + self.ci95_half_width)


@dataclass(frozen=True)
class SeriesPoint:
    """One x-position of a figure series."""

    x: float
    summary: Summary

    @property
    def mean(self) -> float:
        return self.summary.mean


def summarize(values: Sequence[float]) -> Summary:
    """Mean, standard deviation and t-based 95 % CI half-width.

    Examples
    --------
    >>> s = summarize([10.0, 20.0, 30.0])
    >>> s.mean, s.n
    (20.0, 3)
    >>> s.std
    10.0
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return Summary(mean, 0.0, 0.0, 1)
    from scipy import stats as scipy_stats
    std = float(arr.std(ddof=1))
    sem = std / np.sqrt(arr.size)
    t = float(scipy_stats.t.ppf(0.975, df=arr.size - 1))
    return Summary(mean, std, t * sem, int(arr.size))


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired significance test between two strategies.

    ``mean_difference`` is ``a - b`` (negative = a is faster);
    ``p_value`` is from the two-sided paired t-test; ``significant`` is
    judged at the given alpha.
    """

    mean_a: float
    mean_b: float
    mean_difference: float
    p_value: float
    significant: bool
    n: int

    @property
    def a_is_better(self) -> bool:
        """Whether a achieved the lower mean delay, significantly."""
        return self.significant and self.mean_difference < 0


def compare_paired(a: Sequence[float], b: Sequence[float],
                   alpha: float = 0.01) -> PairedComparison:
    """Paired two-sided t-test between per-run delays of two strategies.

    The experiment harness evaluates every strategy on the *same* run
    splits (`run_comparison` is paired by construction), so the paired
    test is the right one: it cancels the run-to-run variance of the
    candidate draws, which dwarfs the strategy effect.
    """
    a_arr = np.asarray(list(a), dtype=float)
    b_arr = np.asarray(list(b), dtype=float)
    if a_arr.shape != b_arr.shape or a_arr.size < 2:
        raise ValueError("need two equally sized samples with n >= 2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    differences = a_arr - b_arr
    if np.allclose(differences, 0.0):
        # Identical runs: no evidence of any difference.
        return PairedComparison(float(a_arr.mean()), float(b_arr.mean()),
                                0.0, 1.0, False, int(a_arr.size))
    spread = float(differences.std(ddof=1))
    if spread < 1e-12 * max(abs(float(differences.mean())), 1.0):
        # A perfectly consistent non-zero difference: the t statistic is
        # unbounded; report maximal significance rather than warn.
        p_value = 0.0
    else:
        from scipy import stats as scipy_stats
        result = scipy_stats.ttest_rel(a_arr, b_arr)
        p_value = float(result.pvalue)
    return PairedComparison(
        mean_a=float(a_arr.mean()),
        mean_b=float(b_arr.mean()),
        mean_difference=float(differences.mean()),
        p_value=p_value,
        significant=p_value < alpha,
        n=int(a_arr.size),
    )
