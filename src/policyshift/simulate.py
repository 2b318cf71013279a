"""Synthetic two-domain data generator with known ground truth.

Covariates are trivariate Gaussians with different means and covariances per
domain; potential outcomes are nonlinear surfaces of a power-sum transform of
the covariates plus shared Gaussian noise. The generator also returns the
exact nuisance functions (outcome surfaces, treatment probability and the
Gaussian density-ratio sampling score), whose outcome surfaces also give the
oracle treatment rule. This supports bias, coverage and robustness studies
against known truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import CombinedDataset, _readonly, _write_columns
from .features import sigmoid
from .nuisance import NuisanceSet
from .policy import LinearPolicy

TRUTH_CLIP = 1e-12  # known scores satisfy overlap; keep clipping inert
SIDECAR_COLUMNS = ("y1", "y0", "mu0_true", "mu1_true", "e1_true", "s_true")


def feature_transform(x: np.ndarray) -> np.ndarray:
    """Componentwise odd power-sum transform x * (|x|^0.1 + |x|^0.3 + |x|^0.5)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return x * ax**0.1 + x * ax**0.3 + x * ax**0.5


def _treated_from_transform(t: np.ndarray) -> np.ndarray:
    return 15.0 + 0.4 * t[:, 0] * t[:, 1] + 0.7 * t[:, 2]


def _control_from_transform(t: np.ndarray) -> np.ndarray:
    return 10.0 + 0.1 * t[:, 0] + 0.5 * t[:, 1] * t[:, 2]


def outcome_surface_treated(X: np.ndarray) -> np.ndarray:
    """Noise-free mean of the treated potential outcome."""
    return _treated_from_transform(feature_transform(np.atleast_2d(X)))


def outcome_surface_control(X: np.ndarray) -> np.ndarray:
    """Noise-free mean of the control potential outcome."""
    return _control_from_transform(feature_transform(np.atleast_2d(X)))


def _default_cov(scale_exponent: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(2.0 ** (-abs(i - j) + scale_exponent) for j in range(3)) for i in range(3))


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the synthetic two-domain design."""

    n_source: int = 512
    n_target: int = 2048
    mu_source: tuple[float, ...] = (10.0, 3.0, 7.0)
    mu_target: tuple[float, ...] = (9.0, 4.0, 6.0)
    cov_source: tuple[tuple[float, ...], ...] = field(default_factory=lambda: _default_cov(0))
    cov_target: tuple[tuple[float, ...], ...] = field(default_factory=lambda: _default_cov(1))
    beta_treatment: float = 0.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_source < 1 or self.n_target < 1:
            raise ValueError("both domains need at least one row")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        # the outcome surfaces read exactly three covariates
        for name, shape in (("mu_source", (3,)), ("mu_target", (3,)), ("cov_source", (3, 3)), ("cov_target", (3, 3))):
            try:
                ok = np.shape(getattr(self, name)) == shape
            except ValueError:  # ragged rows
                ok = False
            if not ok:
                raise ValueError(f"{name} must have shape {shape}, one entry per covariate")
        for name in ("mu_source", "mu_target", "cov_source", "cov_target", "beta_treatment", "noise_sd"):
            if not np.isfinite(np.asarray(getattr(self, name), dtype=float)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("cov_source", "cov_target"):
            cov = np.asarray(getattr(self, name), dtype=float)
            if not np.allclose(cov, cov.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise ValueError(f"{name} must be positive definite")

    @property
    def source_fraction(self) -> float:
        return self.n_source / (self.n_source + self.n_target)


@dataclass(frozen=True)
class SimulatedData:
    """Generated dataset bundled with its evaluation-only ground truth.

    ``y1`` and ``y0`` are the read-only potential outcomes of every row (both
    domains); ``truth`` is the exact nuisance set bound to the dataset's
    covariates, and the oracle treats where its ``mu1 >= mu0``.
    """

    dataset: CombinedDataset
    y1: np.ndarray
    y0: np.ndarray
    truth: NuisanceSet


def _gaussian_logpdf(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = X - mean
    solve = np.linalg.solve(cov, d.T).T
    _, logdet = np.linalg.slogdet(cov)
    p = X.shape[1]
    return -0.5 * np.sum(d * solve, axis=1) - 0.5 * logdet - 0.5 * p * np.log(2.0 * np.pi)


def true_nuisances(config: SimConfig) -> NuisanceSet:
    """Closed-form nuisance functions implied by the generator."""
    beta = config.beta_treatment
    mu_s = np.asarray(config.mu_source, dtype=float)
    mu_t = np.asarray(config.mu_target, dtype=float)
    cov_s = np.asarray(config.cov_source, dtype=float)
    cov_t = np.asarray(config.cov_target, dtype=float)
    q = config.source_fraction

    def e1(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return sigmoid(-beta * feature_transform(X[:, 1]))

    def s(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        log_ratio = _gaussian_logpdf(X, mu_t, cov_t) - _gaussian_logpdf(X, mu_s, cov_s)
        # q f1 / (q f1 + (1-q) f0), computed through the density ratio
        return sigmoid(-(np.log((1.0 - q) / q) + log_ratio))

    return NuisanceSet(
        mu0=outcome_surface_control,
        mu1=outcome_surface_treated,
        e1=e1,
        s=s,
        clip=TRUTH_CLIP,
    )


def _draw_covariates(rng: np.random.Generator, parts: list[tuple[int, tuple, tuple]]) -> np.ndarray:
    """Each ``(n, mean, cov)`` part's rows in turn: standard normals times the Cholesky factor, plus the mean."""
    X, start = np.empty((sum(n for n, _, _ in parts), 3)), 0
    for n, mu, cov in parts:
        chol = np.linalg.cholesky(np.asarray(cov, dtype=float))
        rows = X[start : start + n]
        np.matmul(rng.standard_normal((n, 3)), chol.T, out=rows)
        rows += np.asarray(mu, dtype=float)
        start += n
    return X


def generate(config: SimConfig | None = None) -> SimulatedData:
    """Draw one combined dataset; byte-identical for equal configs.

    Source rows come first. Potential outcomes are generated for every row
    (both domains) to support policy evaluation; the dataset itself carries
    treatment and outcome only on source rows.
    """
    config = config or SimConfig()
    rng = np.random.default_rng(config.seed)
    n1, n0 = config.n_source, config.n_target
    n = n1 + n0

    X = _draw_covariates(rng, [(n1, config.mu_source, config.cov_source), (n0, config.mu_target, config.cov_target)])

    truth = true_nuisances(config).bind(X)
    treat_prob = np.asarray(truth.e1(X[:n1]))  # unclipped
    treatment_src = (rng.random(n1) < treat_prob).astype(float)

    v = truth.values(X)
    noise = rng.standard_normal(n) * config.noise_sd  # shared by both arms
    y1, y0 = _readonly(v.mu1 + noise), _readonly(v.mu0 + noise)

    treatment = np.full(n, np.nan)
    outcome = np.full(n, np.nan)
    treatment[:n1] = treatment_src
    outcome[:n1] = np.where(treatment_src == 1.0, y1[:n1], y0[:n1])

    dataset = CombinedDataset(
        covariates=X,
        group=np.concatenate([np.ones(n1, dtype=int), np.zeros(n0, dtype=int)]),
        treatment=treatment,
        outcome=outcome,
    )
    return SimulatedData(dataset=dataset, y1=y1, y0=y0, truth=truth)


SHIFT_DIRECTION = (-1.0, 1.0, -1.0)  # displacement pattern matching the default target mean


def shift_sweep_config(base: SimConfig, chebyshev_distance: float) -> SimConfig:
    """Move the target mean ``chebyshev_distance`` away from the source mean.

    The displacement follows the fixed sign pattern of the default design, so
    distance 1 reproduces the default target mean and distance 0 removes the
    mean shift entirely (covariances are left untouched).
    """
    if not 0 <= chebyshev_distance < np.inf:
        raise ValueError(f"chebyshev distance must be nonnegative and finite, got {chebyshev_distance!r}")
    mu = tuple(m + chebyshev_distance * u for m, u in zip(base.mu_source, SHIFT_DIRECTION))
    return replace(base, mu_target=mu)


# The last draws of population_reward with both surfaces there: (key, (X, mu1, mu0)) or None.
_population_cache: tuple[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
# Rows per block when the surfaces and a policy's decisions are evaluated at the draws
# (0.4 MB of transformed covariates, 1.3 MB of quadratic features).
SURFACE_BLOCK_ROWS = 16_384


def _population_draws(
    config: SimConfig, n_src: int, n_draws: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only draws ``X`` of ``population_reward`` and both outcome surfaces at them.

    ``n_src`` rows come from the source Gaussian, then ``n_draws - n_src``
    from the target Gaussian, all from one generator seeded with ``seed``.
    The last result is kept and returned again while the key matches: the
    seed, the row counts and the float64 bytes of each sampled mean and
    covariance (not the config, which may hold unhashable lists). A miss
    drops the kept arrays before drawing, so at most one set is held. The
    entry is read once, so a concurrent call never gets another key's arrays.

    A miss writes each domain's draws into the rows of one ``X`` and fills
    the surfaces block by block, so beyond the arrays it keeps it holds one
    domain's standard normals, then one block's temporaries. Every value is
    that of the whole-array computation: the same matrix product per domain,
    and elementwise operations after it.
    """
    global _population_cache
    parts = [(n_src, config.mu_source, config.cov_source)] if n_src else []
    parts.append((n_draws - n_src, config.mu_target, config.cov_target))
    key = (seed,) + tuple(
        (n, np.asarray(mu, dtype=float).tobytes(), np.asarray(cov, dtype=float).tobytes()) for n, mu, cov in parts
    )
    entry = _population_cache
    if entry is None or entry[0] != key:
        _population_cache = None
        X = _draw_covariates(np.random.default_rng(seed), parts)
        mu1, mu0 = np.empty(n_draws), np.empty(n_draws)
        for start in range(0, n_draws, SURFACE_BLOCK_ROWS):
            block = slice(start, start + SURFACE_BLOCK_ROWS)
            t = feature_transform(X[block])
            mu1[block], mu0[block] = _treated_from_transform(t), _control_from_transform(t)
        entry = (key, tuple(_readonly(a) for a in (X, mu1, mu0)))
        _population_cache = entry
    return entry[1]


def population_reward(
    config: SimConfig,
    policy: LinearPolicy,
    scope: str = "target",
    n_draws: int = 200_000,
    seed: int = 20_000_000,
) -> float:
    """Monte Carlo evaluation of the policy's true expected outcome.

    ``scope`` picks the target domain or the q-weighted mixture of both. Uses
    the noise-free outcome surfaces, so only covariate sampling error remains.
    The draws and surfaces of the last call are reused, bit for bit, when the
    next call samples the same points. ``policy`` may be any object whose
    ``decide`` maps covariate rows to 0/1 decisions, each row on its own: it
    is called on read-only views of at most ``SURFACE_BLOCK_ROWS`` draws.
    """
    if scope not in ("target", "entire"):
        raise ValueError("scope must be 'target' or 'entire'")
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    n_src = 0 if scope == "target" else int(round(n_draws * config.source_fraction))
    X, mu1, mu0 = _population_draws(config, n_src, n_draws, seed)
    # decided block by block, so a policy's feature expansion never spans every draw
    decisions = np.empty(n_draws)
    for start in range(0, n_draws, SURFACE_BLOCK_ROWS):
        block = slice(start, start + SURFACE_BLOCK_ROWS)
        decisions[block] = policy.decide(X[block])
    # decisions * mu1 + (1 - decisions) * mu0, operation for operation, in the decisions and one buffer
    control = np.subtract(1.0, decisions)
    values = np.multiply(decisions, mu1, out=decisions)
    np.multiply(control, mu0, out=control)
    return float(np.add(values, control, out=values).mean())


def write_truth_csv(sim: SimulatedData, path: str | Path) -> None:
    """Row-aligned sidecar with potential outcomes and true nuisance values."""
    v = sim.truth.values(sim.dataset.covariates)
    _write_columns(path, SIDECAR_COLUMNS, (sim.y1, sim.y0, v.mu0, v.mu1, v.e1, v.s))
