"""Self-contained Student-t tail probabilities and the paired t-test.

The two-sided p-value is the regularized incomplete beta function
I_x(df/2, 1/2) at x = df / (df + t^2), evaluated with the standard continued
fraction (modified Lentz iteration), accurate to about 1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_ITER = 300
_FPMIN = 1e-300
_EPS = 1e-15


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta function."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and x not NaN."""
    if math.isnan(x) or not (a > 0 and b > 0):
        raise ValueError(f"a and b must be positive and x a number, got a={a!r}, b={b!r}, x={x!r}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for a Student-t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    t = float(t)
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class PairedTTest:
    t_stat: float
    p_value: float
    df: int
    mean_difference: float
    degenerate: bool = False


def paired_t_test(series_a: np.ndarray, series_b: np.ndarray) -> PairedTTest:
    """Two-sided paired t-test of mean(series_a - series_b) = 0.

    Zero-variance differences are degenerate; they are reported with p = 1 and
    the ``degenerate`` flag instead of an error. Non-finite values are refused,
    and so are differences whose mean or spread overflows.
    """
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("series must be 1-d and of equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("series must be finite")
    k = len(a)
    if k < 2:
        raise ValueError("need at least two pairs")
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        mean, sd = float(d.mean()), float(d.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("the differences of the series or their moments overflow")
    df = k - 1
    if sd == 0.0:
        return PairedTTest(t_stat=float("nan"), p_value=1.0, df=df, mean_difference=mean, degenerate=True)
    t = mean / (sd / math.sqrt(k))
    return PairedTTest(t_stat=t, p_value=t_sf_two_sided(t, df), df=df, mean_difference=mean)
