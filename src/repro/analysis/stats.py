"""Summary statistics and significance tests for experiment results.

The Student-t that both need is written here on the standard library:
the two-sided tail through the regularized incomplete beta function,
the quantile by Newton's method on that tail.  Importing SciPy's
statistics package for them cost the first multi-run summary of every
sweep about 1.1 s and 65 MiB (docs/performance.md).  Both agree with
SciPy's t distribution to within about 1e-12 relative wherever a sweep
reads them (``tests/unit/test_student_t.py``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
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
    std = float(arr.std(ddof=1))
    sem = std / np.sqrt(arr.size)
    return Summary(mean, std, _t975(arr.size - 1) * sem, int(arr.size))


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
        # scipy's ttest_rel statistic, with df = n - 1.
        t = float(differences.mean()) / (spread / math.sqrt(a_arr.size))
        p_value = _t_two_sided(t, a_arr.size - 1)
    return PairedComparison(
        mean_a=float(a_arr.mean()),
        mean_b=float(b_arr.mean()),
        mean_difference=float(differences.mean()),
        p_value=p_value,
        significant=p_value < alpha,
        n=int(a_arr.size),
    )


# --- Student-t on the standard library ------------------------------------

_EPS = sys.float_info.epsilon
_TINY = 1e-300
_MAX_TERMS = 1000   # continued-fraction steps before it counts as diverged
_MAX_NEWTON = 100


def _stirling_tail(x: float) -> float:
    """``lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2)`` for x >= 50."""
    x2 = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x2)) / x2) / x2) / x


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)``.

    Past 50 the difference of the large ``lgamma`` terms is taken from
    Stirling's series instead: at df = 10**8, ``lgamma(df / 2)`` is
    8e8, and subtracting two such values keeps only 1e-7 of the result.
    """
    small, big = sorted((a, b))
    if big < 50.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(small) - (big - 0.5) * math.log1p(small / big)
            - small * math.log(big + small) + small
            + _stirling_tail(big) - _stirling_tail(big + small))


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, given ``y = 1 - x``.

    The caller passes ``y`` separately so that neither is rounded
    through the other.  The textbook switch to ``1 - I_y(b, a)`` lies at
    ``x = (a + 1) / (a + b + 2)``; it is taken out to 1.5 times the
    complement's bound.  For the t tail the textbook point is t^2 = 3
    at large df, just short of the 0.975 quantile (t^2 = 3.8), where
    the direct fraction takes ~40 steps and, near x = 1, reads x to
    more digits than a double holds (3e-10 relative error at
    df = 10**8).  The complement takes ~10 steps there and is exact to
    rounding.
    """
    if x <= 0.0 or y <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    if y * (a + b + 2.0) < 1.5 * (b + 1.0):
        return 1.0 - _beta_fraction(b, a, y, x)
    return _beta_fraction(a, b, x, y)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """``I_x(a, b)`` by the modified-Lentz continued fraction."""
    log_front = (a * (math.log(x) if x < 0.5 else math.log1p(-y))
                 + b * (math.log(y) if y < 0.5 else math.log1p(-x))
                 - _log_beta(a, b))
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        for term in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return math.exp(log_front) * h / a
    raise ArithmeticError(
        f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")


def _t_two_sided(t: float, df: float) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom."""
    if math.isnan(t):
        return math.nan
    t = abs(t)
    if t < 1.0:
        x, y = df / (df + t * t), t * t / (df + t * t)
    else:                           # no overflow of t * t
        r = df / t / t
        x, y = r / (1.0 + r), 1.0 / (1.0 + r)
    return _incomplete_beta(0.5 * df, 0.5, x, y)


def _t_density(t: float, df: float) -> float:
    return math.exp(-0.5 * math.log(df) - _log_beta(0.5 * df, 0.5)
                    - 0.5 * (df + 1.0) * math.log1p(t * t / df))


def _t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile of Student's t with ``df`` degrees of freedom.

    Closed forms at df = 1 and 2; otherwise Newton's method on the tail,
    from the Cornish-Fisher expansion of the normal quantile (Abramowitz
    & Stegun 26.7.5): 2e-8 off at df = 30, within 1e-14 from df = 1000.
    """
    if p < 0.5:
        return -_t_quantile(1.0 - p, df)
    if df == 1:
        return 1.0 / math.tan(math.pi * (1.0 - p))
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    z = NormalDist().inv_cdf(p)
    z2 = z * z
    q = z + z * (
        (z2 + 1.0) / 4.0
        + ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * df)
        + (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / (384.0 * df ** 2)
        + ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2
           - 945.0) / (92160.0 * df ** 3)) / df
    tail = 2.0 * (1.0 - p)
    last = math.inf
    for _ in range(_MAX_NEWTON):
        step = 0.5 * (_t_two_sided(q, df) - tail) / _t_density(q, df)
        q += step
        # Converged, or down to the tail's own rounding (far tails at
        # df >= 10**6), where a small step no longer halves and would
        # only cycle between neighbours.
        if abs(step) <= 1e-12 * q or (abs(step) <= 1e-8 * q
                                       and abs(step) > 0.5 * abs(last)):
            return q
        last = step
    raise ArithmeticError(f"t quantile ({p!r}, df={df}) did not converge")


@functools.cache
def _t975(df: int) -> float:
    """The CI's quantile: a sweep asks for one df, once per series point."""
    return _t_quantile(0.975, df)
