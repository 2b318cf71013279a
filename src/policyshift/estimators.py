"""Reward estimators for the target domain and the entire population.

Every estimator is reduced to one per-sample linear decomposition: with
coefficients (a_i, b_i) and policy values pi_i in [0, 1], the estimate is
mean_i[pi_i * a_i + b_i]. The decomposition makes the policy-learning
objective linear in the (smoothed) policy and lets one code path serve the
direct, inverse-probability-weighted and efficient estimators of both
estimands:

  estimand "r"  average outcome under the policy in the target domain
  estimand "v"  average outcome under the policy over both domains
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .data import CombinedDataset
from .nuisance import NuisanceSet

Z_95 = 1.959964  # two-sided 95% normal quantile


@dataclass(frozen=True)
class RewardCoefficients:
    """Per-sample decomposition estimate = mean(pi * a + b).

    ``center_weight`` carries the per-row weight multiplying the estimate in
    the influence decomposition (the estimand's mean-one identification
    weight), used to produce exactly mean-zero influence values.
    """

    a: np.ndarray
    b: np.ndarray
    center_weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class RewardEstimate:
    value: float
    std_error: float
    ci_low: float
    ci_high: float


def _coefficients(dataset: CombinedDataset, nuisances: NuisanceSet, kind: str, estimand: str) -> RewardCoefficients:
    """The one coefficient builder: plug-in terms plus weighted outcome terms.

    ``direct`` keeps the plug-in terms of the fitted surfaces, ``ipw`` the
    weighted terms of the raw outcome, and ``se`` both, with the weighted
    terms taken of the residuals ``y - mu_arm``. Estimand ``r`` puts the
    plug-in terms on target rows scaled by 1/(1-q) and weights source rows by
    the target odds (1-s)/s over (1-q); estimand ``v`` puts them on every row
    and weights source rows by 1/s.
    """
    v = nuisances.values(dataset.covariates)
    q = dataset.source_fraction
    src, tgt = dataset.source_mask, dataset.target_mask
    if estimand == "r":
        plug_rows, plug_scale = tgt, 1.0 - q
        weight, weight_scale = (1.0 - v.s) / v.s, 1.0 - q
        center_weight = tgt.astype(float) / (1.0 - q)
    else:
        plug_rows, plug_scale = np.ones(dataset.n, dtype=bool), 1.0
        weight, weight_scale = 1.0, v.s
        center_weight = np.ones(dataset.n)
    a = b = 0.0
    if kind != "ipw":
        a = np.where(plug_rows, (v.mu1 - v.mu0) / plug_scale, 0.0)
        b = np.where(plug_rows, v.mu0 / plug_scale, 0.0)
    if kind != "direct":
        g = dataset.group.astype(float)
        arm = np.where(src, dataset.treatment, 0.0)
        y = np.where(src, dataset.outcome, 0.0)
        r1, r0 = (y, y) if kind == "ipw" else (y - v.mu1, y - v.mu0)
        on = g * arm * r1 * weight / (v.e1 * weight_scale)
        off = g * (1.0 - arm) * r0 * weight / ((1.0 - v.e1) * weight_scale)
        a = a + (on - off)
        b = b + off
    return RewardCoefficients(a=a, b=b, center_weight=center_weight)


_SUPPORTED = {("direct", "r"), ("ipw", "r"), ("se", "r"), ("se", "v")}


def reward_coefficients(
    dataset: CombinedDataset, nuisances: NuisanceSet, kind: str, estimand: str = "r"
) -> RewardCoefficients:
    """Coefficients (a, b) of estimator ``kind`` (direct, ipw or se) for ``estimand`` r, or se for v.

    An entry of ``a`` or ``b`` that overflows raises ``FloatingPointError`` instead of a warning.
    """
    if (kind, estimand) not in _SUPPORTED:
        raise ValueError(f"no estimator for kind={kind!r}, estimand={estimand!r}")
    with np.errstate(all="ignore"):
        coeffs = _coefficients(dataset, nuisances, kind, estimand)
    if not (np.isfinite(coeffs.a).all() and np.isfinite(coeffs.b).all()):
        raise FloatingPointError(f"{kind} reward coefficients for {estimand} overflow; rescale the outcomes")
    return coeffs


def _policy_values(policy_values: np.ndarray, n: int) -> np.ndarray:
    """``policy_values`` as floats, refused unless there is one finite value in [0, 1] per row."""
    pi = np.asarray(policy_values, dtype=float)
    if pi.shape != (n,):
        raise ValueError(f"policy values have shape {pi.shape}, expected {(n,)}")
    if not ((pi >= 0.0) & (pi <= 1.0)).all():
        raise ValueError("policy values must be finite and lie in [0, 1]")
    return pi


def estimate(coeffs: RewardCoefficients, policy_values: np.ndarray) -> RewardEstimate:
    """Evaluate the decomposition at given policy values in [0, 1].

    The influence values subtract the estimate through the estimand's
    identification weight, which makes their mean exactly zero; the standard
    error is their sample standard deviation divided by sqrt(n). Moments of
    finite coefficients that overflow are taken over the largest magnitude and
    scaled back; a value or interval beyond the float range raises
    ``FloatingPointError``.
    """
    pi = _policy_values(policy_values, coeffs.n)

    def moments(scale: float) -> tuple[float, float]:
        """Value and standard error taken of the coefficients over ``scale``, then scaled back."""
        contributions = pi * (coeffs.a / scale) + coeffs.b / scale
        value = float(contributions.mean())
        sd = float((contributions - value * coeffs.center_weight).std(ddof=1)) if coeffs.n > 1 else math.nan
        return scale * value, scale * (sd / math.sqrt(coeffs.n))

    with np.errstate(over="ignore", invalid="ignore"):
        value, std_error = moments(1.0)
        if not (math.isfinite(value) and (coeffs.n < 2 or math.isfinite(std_error))):
            # sums of finite coefficients overflowed: take them over the largest magnitude
            value, std_error = moments(max(float(np.max(np.abs(coeffs.a))), float(np.max(np.abs(coeffs.b)))))
    result = RewardEstimate(value, std_error, value - Z_95 * std_error, value + Z_95 * std_error)
    if any(math.isinf(field) for field in astuple(result)):
        raise FloatingPointError("the reward estimate or its interval overflows; rescale the outcomes")
    return result


def bias_diagnostic(
    dataset: CombinedDataset,
    true_nuisances: NuisanceSet,
    fitted_nuisances: NuisanceSet,
    policy_values: np.ndarray,
    signed: bool = False,
) -> float:
    """Finite-sample bias of the efficient target-reward estimator.

    Requires the true nuisance functions, so it is a simulation-only
    diagnostic. For each arm the summand multiplies the outcome-model error by
    a score-model error factor, hence it vanishes whenever either side is
    correct. Returns the absolute value unless ``signed``.
    """
    pi = _policy_values(policy_values, dataset.n)
    t = true_nuisances.values(dataset.covariates)
    f = fitted_nuisances.values(dataset.covariates)
    q = dataset.source_fraction
    e0_t, e0_f = 1.0 - t.e1, 1.0 - f.e1
    term1 = pi * (t.mu1 - f.mu1) / (1.0 - q) * (t.s * t.e1 * (1.0 - f.s) - f.s * f.e1 * (1.0 - t.s)) / (f.e1 * f.s)
    term0 = (1.0 - pi) * (t.mu0 - f.mu0) / (1.0 - q) * (t.s * e0_t * (1.0 - f.s) - f.s * e0_f * (1.0 - t.s)) / (e0_f * f.s)
    total = float(np.mean(term1 + term0))
    return total if signed else abs(total)


@dataclass(frozen=True)
class BoundReport:
    """High-probability generalization bound pieces for a learned policy."""

    eta: float
    policy_class_size: int
    bound_term: float
    bias_diagnostic: float | None = None


def generalization_bound(
    dataset: CombinedDataset,
    nuisances: NuisanceSet,
    eta: float,
    policy_class_size: int,
    bias: float | None = None,
) -> BoundReport:
    """Finite-class deviation bound for the efficient reward estimate.

    Evaluates sqrt(log(2|Pi|/eta) / (2 n^2) * sum_i r_i^2) where r_i is the
    weighted outcome residual of source row i, its efficient coefficient a_i;
    target rows carry no outcome and contribute zero.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if policy_class_size < 1:
        raise ValueError("policy_class_size must be >= 1")
    residuals = reward_coefficients(dataset, nuisances, "se", "r").a[dataset.source_mask]
    n = dataset.n
    # squared after scaling by the largest magnitude, so finite residuals give a finite sum
    scale = float(np.max(np.abs(residuals)))
    term = 0.0
    if scale > 0.0:
        total = float(np.sum((residuals / scale) ** 2))
        term = scale * float(np.sqrt(np.log(2.0 * policy_class_size / eta) / (2.0 * n * n) * total))
    return BoundReport(eta=eta, policy_class_size=policy_class_size, bound_term=term, bias_diagnostic=bias)
