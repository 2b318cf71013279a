"""Nuisance models: outcome regressions, propensity score and sampling score.

All four models are served through a `NuisanceSet`, which clips predicted
probabilities away from 0 and 1 so that downstream inverse weights stay
bounded. The reference fitters are ridge least squares (outcomes) and
ridge-penalized logistic regression via iteratively reweighted least squares
(both scores); the intercept is never penalized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .data import CombinedDataset, _readonly
from .features import FEATURE_KINDS, FeatureMap, sigmoid

DEFAULT_CLIP = 0.01
DEFAULT_OUTCOME_RIDGE = 1e-4
DEFAULT_LOGISTIC_RIDGE = 1e-2
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
_DIVERGED_COEF = 1e4


class FitError(ValueError):
    """A nuisance model could not be fitted from the data provided."""


def _penalty_matrix(k: int, ridge: float) -> np.ndarray:
    D = np.eye(k) * ridge
    D[0, 0] = 0.0  # intercept unpenalized
    return D


def _solve_spd(A: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise FitError(f"{context}: singular normal equations; use a positive ridge") from None
    z = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, z)


@dataclass(frozen=True)
class RidgeModel:
    """Linear predictor over a feature map; callable on covariates."""

    beta: np.ndarray
    fmap: FeatureMap

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fmap.expand(x) @ self.beta


@dataclass(frozen=True)
class LogisticModel:
    """Probability predictor sigmoid(features @ beta); callable on covariates."""

    beta: np.ndarray
    fmap: FeatureMap

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.fmap.expand(x) @ self.beta)


def fit_ridge(features: np.ndarray, y: np.ndarray, fmap: FeatureMap, ridge: float) -> RidgeModel:
    """Exact solution of the ridge normal equations (intercept unpenalized); ``FitError`` if it is not finite."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    Phi = fmap.expand(features)
    n, k = Phi.shape
    if n < k:
        raise FitError(f"need at least {k} rows to fit {k} coefficients, got {n}")
    A = Phi.T @ Phi + _penalty_matrix(k, ridge)
    beta = _solve_spd(A, Phi.T @ np.asarray(y, dtype=float), "ridge regression")
    if not np.isfinite(beta).all():
        raise FitError("ridge regression: the normal equations overflow; the outcomes or features are too large")
    return RidgeModel(beta=beta, fmap=fmap)


def _penalized_loglik(eta: np.ndarray, y: np.ndarray, beta: np.ndarray, ridge: float) -> float:
    """Penalized log-likelihood of ``beta``, whose linear predictor is ``eta``."""
    # log-likelihood written to avoid overflow: y*eta - log(1+exp(eta))
    ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return ll - 0.5 * ridge * float(np.sum(beta[1:] ** 2))


def fit_logistic(
    features: np.ndarray,
    labels: np.ndarray,
    fmap: FeatureMap,
    ridge: float = DEFAULT_LOGISTIC_RIDGE,
    trace: list | None = None,
) -> LogisticModel:
    """Maximize the ridge-penalized Bernoulli log-likelihood by IRLS.

    Newton steps are halved whenever the penalized log-likelihood would
    decrease, so the objective is non-decreasing across iterations; when no
    step down to a scale of 1e-8 keeps it, the current coefficients are
    returned. Stops after ``IRLS_MAX_ITER`` iterations, or earlier once the
    largest absolute coefficient update falls below ``IRLS_TOL``. If
    ``trace`` is a list, the objective after every iteration is appended to it.
    """
    y = np.asarray(labels, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    if y.min() == y.max():
        raise FitError("labels contain a single class; cannot fit a logistic model")
    Phi = fmap.expand(features)
    k = Phi.shape[1]
    D = _penalty_matrix(k, ridge)
    beta = np.zeros(k)
    eta = Phi @ beta
    obj = _penalized_loglik(eta, y, beta, ridge)
    if trace is not None:
        trace.append(obj)
    for _ in range(IRLS_MAX_ITER):
        p = sigmoid(eta)
        w = p * (1.0 - p)
        grad = Phi.T @ (y - p) - D @ beta
        H = (Phi * w[:, None]).T @ Phi + D
        step = _solve_spd(H, grad, "logistic regression")
        scale = 1.0
        while True:
            candidate = beta + scale * step
            candidate_eta = Phi @ candidate
            new_obj = _penalized_loglik(candidate_eta, y, candidate, ridge)
            if new_obj >= obj - 1e-12:
                break
            if scale < 1e-8:
                return LogisticModel(beta=beta, fmap=fmap)  # every step goes downhill
            scale *= 0.5
        delta = float(np.max(np.abs(scale * step)))
        # the accepted candidate is the next beta, so its predictor serves the next iteration
        beta, eta, obj = candidate, candidate_eta, new_obj
        if trace is not None:
            trace.append(obj)
        if ridge == 0 and float(np.max(np.abs(beta))) > _DIVERGED_COEF:
            raise FitError("logistic coefficients diverged (separated data); use a positive ridge")
        if delta < IRLS_TOL:
            break
    return LogisticModel(beta=beta, fmap=fmap)


Predictor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class NuisanceValues:
    mu0: np.ndarray
    mu1: np.ndarray
    e1: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class NuisanceSet:
    """The four fitted (or known) nuisance functions plus clipping.

    ``bound`` pairs the covariates a set was fitted (or generated) on with its
    values there; evaluating at exactly those covariates returns the stored
    values, which are out-of-fold predictions when the set was cross-fitted.
    Any other covariates are evaluated with the full-data functions.
    """

    mu0: Predictor
    mu1: Predictor
    e1: Predictor
    s: Predictor
    clip: float = DEFAULT_CLIP
    bound: tuple[np.ndarray, NuisanceValues] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.clip < 0.5:
            raise ValueError("clip must lie in (0, 0.5)")

    def _clip(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, self.clip, 1.0 - self.clip)

    def values(self, x: np.ndarray) -> NuisanceValues:
        """All four functions at covariate rows ``x``, or the bound values at the bound covariates.

        Probabilities are clipped into [clip, 1-clip]; regressions are returned as is.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.bound is not None and np.array_equal(x, self.bound[0]):
            return self.bound[1]
        return NuisanceValues(
            mu0=np.asarray(self.mu0(x), dtype=float),
            mu1=np.asarray(self.mu1(x), dtype=float),
            e1=self._clip(np.asarray(self.e1(x), dtype=float)),
            s=self._clip(np.asarray(self.s(x), dtype=float)),
        )

    def bind(self, x: np.ndarray, values: NuisanceValues | None = None) -> "NuisanceSet":
        """This set, returning ``values`` (default: its own values) at exactly covariates ``x``.

        As with a dataset's arrays, ``x`` and the values are made read-only,
        so writing into them raises instead of changing what is returned later.
        """
        x = _readonly(np.atleast_2d(np.asarray(x, dtype=float)))
        v = self.values(x) if values is None else values
        return replace(self, bound=(x, NuisanceValues(*(_readonly(a) for a in (v.mu0, v.mu1, v.e1, v.s)))))

    def coefficients(self) -> dict[str, list[float] | None]:
        """Fitted coefficient vectors where available (for report provenance)."""
        out: dict[str, list[float] | None] = {}
        for name in ("mu0", "mu1", "e1", "s"):
            beta = getattr(getattr(self, name), "beta", None)
            out[name] = None if beta is None else [float(b) for b in beta]
        return out


class _FittedOnFirstUse:
    """One full-data model of a cross-fitted set; the first call or ``beta`` read fits all four, once.

    The out-of-fold values need none of them, so a set used only on its own
    rows never fits them. A ``FitError`` of the full-data fit surfaces at that
    first use.
    """

    def __init__(self, fit: Callable[[], NuisanceSet], name: str) -> None:
        self._fit, self._name = fit, name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return getattr(self._fit(), self._name)(x)

    @property
    def beta(self) -> np.ndarray:
        return getattr(self._fit(), self._name).beta


@dataclass(frozen=True)
class NuisanceConfig:
    """Reference configuration: which feature map and ridge per model."""

    outcome_map: str = "raw"
    propensity_map: str = "raw"
    sampling_map: str = "quadratic"
    outcome_ridge: float = DEFAULT_OUTCOME_RIDGE
    logistic_ridge: float = DEFAULT_LOGISTIC_RIDGE
    clip: float = DEFAULT_CLIP
    folds: int = 1

    def __post_init__(self) -> None:
        for name in ("outcome_map", "propensity_map", "sampling_map"):
            kind = getattr(self, name)
            if kind not in FEATURE_KINDS:
                raise ValueError(f"nuisance {name} must be one of {FEATURE_KINDS}, got {kind!r}")
        if self.folds < 1:
            raise ValueError(f"nuisance folds must be at least 1, got {self.folds!r}")
        for name in ("outcome_ridge", "logistic_ridge"):
            ridge = getattr(self, name)
            if not (math.isfinite(ridge) and ridge >= 0):
                raise ValueError(f"nuisance {name} must be nonnegative and finite, got {ridge!r}")
        if not 0.0 < self.clip < 0.5:
            raise ValueError(f"nuisance clip must lie in (0, 0.5), got {self.clip!r}")


def crossfit_folds(dataset: CombinedDataset, folds: int) -> np.ndarray:
    """Deterministic stratified fold assignment.

    Rows are dealt round-robin within each stratum (source-treated,
    source-control, target), so every fold sees both arms and both domains.
    """
    assignment = np.zeros(dataset.n, dtype=int)
    strata = [
        dataset.source_mask & (dataset.treatment == 1),
        dataset.source_mask & (dataset.treatment != 1),
        dataset.target_mask,
    ]
    for stratum in strata:
        idx = np.flatnonzero(stratum)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def fit_nuisances(dataset: CombinedDataset, config: NuisanceConfig | None = None) -> NuisanceSet:
    """Fit all four nuisance models under one configuration.

    Each outcome regression is fitted on the source rows of its arm, the
    treatment score on source rows and the domain score on every row. With
    ``config.folds > 1`` the models are cross-fitted: each fold's rows are
    predicted by models trained on the remaining folds, and the full-data
    models, which serve any other covariates, are fitted on first use.
    """
    config = config or NuisanceConfig()
    p = dataset.p
    omap = FeatureMap(config.outcome_map, p)
    pmap = FeatureMap(config.propensity_map, p)
    smap = FeatureMap(config.sampling_map, p)

    x, arm, source = dataset.covariates, dataset.treatment, dataset.source_mask

    def _fit_single(train: np.ndarray) -> NuisanceSet:
        outcome = []
        for a in (0, 1):
            rows = train & source & (arm == a)
            n_rows = int(rows.sum())
            if n_rows < omap.p_out:
                raise FitError(f"outcome model for arm {a}: {n_rows} source rows, need at least {omap.p_out}")
            outcome.append(fit_ridge(x[rows], dataset.outcome[rows], omap, config.outcome_ridge))
        rows = train & source
        return NuisanceSet(
            mu0=outcome[0],
            mu1=outcome[1],
            e1=fit_logistic(x[rows], arm[rows], pmap, config.logistic_ridge),
            s=fit_logistic(x[train], dataset.group[train].astype(float), smap, config.logistic_ridge),
            clip=config.clip,
        )

    everything = np.ones(dataset.n, dtype=bool)
    if config.folds <= 1:
        return _fit_single(everything).bind(x)
    assignment = crossfit_folds(dataset, config.folds)
    out = {name: np.empty(dataset.n) for name in ("mu0", "mu1", "e1", "s")}
    for k in range(config.folds):
        held_out = assignment == k
        vals = _fit_single(~held_out).values(x[held_out])
        for name in out:
            out[name][held_out] = getattr(vals, name)
    full = functools.cache(lambda: _fit_single(everything))
    full_data = NuisanceSet(*(_FittedOnFirstUse(full, name) for name in out), clip=config.clip)
    return full_data.bind(x, NuisanceValues(**out))
