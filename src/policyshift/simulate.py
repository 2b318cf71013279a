"""Synthetic two-domain data generator with known ground truth.

Covariates are trivariate Gaussians with different means and covariances per
domain; potential outcomes are nonlinear surfaces of a power-sum transform of
the covariates plus shared Gaussian noise. The generator also returns the
exact nuisance functions (outcome surfaces, treatment probability and the
Gaussian density-ratio sampling score) and the oracle treatment rule, which
supports bias, coverage and robustness studies against known truth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import CombinedDataset, PotentialOutcomes
from .features import sigmoid
from .nuisance import NuisanceSet
from .policy import LinearPolicy, OraclePolicy

TRUTH_CLIP = 1e-12  # known scores satisfy overlap; keep clipping inert
SIDECAR_COLUMNS = ("y1", "y0", "mu0_true", "mu1_true", "e1_true", "s_true")


def feature_transform(x: np.ndarray) -> np.ndarray:
    """Componentwise odd power-sum transform x * (|x|^0.1 + |x|^0.3 + |x|^0.5)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return x * ax**0.1 + x * ax**0.3 + x * ax**0.5


def outcome_surface_treated(X: np.ndarray) -> np.ndarray:
    """Noise-free mean of the treated potential outcome."""
    t = feature_transform(np.atleast_2d(X))
    return 15.0 + 0.4 * t[:, 0] * t[:, 1] + 0.7 * t[:, 2]


def outcome_surface_control(X: np.ndarray) -> np.ndarray:
    """Noise-free mean of the control potential outcome."""
    t = feature_transform(np.atleast_2d(X))
    return 10.0 + 0.1 * t[:, 0] + 0.5 * t[:, 1] * t[:, 2]


def conditional_effect(X: np.ndarray) -> np.ndarray:
    return outcome_surface_treated(X) - outcome_surface_control(X)


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
    shared_noise: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_source < 1 or self.n_target < 1:
            raise ValueError("both domains need at least one row")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        for name in ("cov_source", "cov_target"):
            cov = np.asarray(getattr(self, name), dtype=float)
            if not np.allclose(cov, cov.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(cov).min() <= 0:
                raise ValueError(f"{name} must be positive definite")

    @property
    def source_fraction(self) -> float:
        return self.n_source / (self.n_source + self.n_target)

    def to_dict(self) -> dict:
        return {
            "n_source": self.n_source,
            "n_target": self.n_target,
            "mu_source": list(self.mu_source),
            "mu_target": list(self.mu_target),
            "cov_source": [list(r) for r in self.cov_source],
            "cov_target": [list(r) for r in self.cov_target],
            "beta_treatment": self.beta_treatment,
            "noise_sd": self.noise_sd,
            "shared_noise": self.shared_noise,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SimConfig":
        fields = {}
        for key in payload:
            if key in ("mu_source", "mu_target"):
                fields[key] = tuple(float(v) for v in payload[key])
            elif key in ("cov_source", "cov_target"):
                fields[key] = tuple(tuple(float(v) for v in row) for row in payload[key])
            elif key in ("n_source", "n_target", "seed"):
                fields[key] = int(payload[key])
            elif key == "shared_noise":
                fields[key] = bool(payload[key])
            elif key in ("beta_treatment", "noise_sd"):
                fields[key] = float(payload[key])
            else:
                raise ValueError(f"unknown simulation option {key!r}")
        return cls(**fields)


@dataclass(frozen=True)
class SimulatedData:
    """Generated dataset bundled with its evaluation-only ground truth."""

    dataset: CombinedDataset
    potential: PotentialOutcomes
    truth: NuisanceSet
    oracle: OraclePolicy
    config: SimConfig


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

    chol_s = np.linalg.cholesky(np.asarray(config.cov_source, dtype=float))
    chol_t = np.linalg.cholesky(np.asarray(config.cov_target, dtype=float))
    x_source = rng.standard_normal((n1, 3)) @ chol_s.T + np.asarray(config.mu_source)
    x_target = rng.standard_normal((n0, 3)) @ chol_t.T + np.asarray(config.mu_target)
    X = np.vstack([x_source, x_target])

    truth = true_nuisances(config)
    treat_prob = np.asarray(truth.e1(x_source))
    treatment_src = (rng.random(n1) < treat_prob).astype(float)

    noise1 = rng.standard_normal(n) * config.noise_sd
    noise0 = noise1 if config.shared_noise else rng.standard_normal(n) * config.noise_sd
    y1 = outcome_surface_treated(X) + noise1
    y0 = outcome_surface_control(X) + noise0

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
    return SimulatedData(
        dataset=dataset,
        potential=PotentialOutcomes(y1=y1, y0=y0),
        truth=truth.bind(dataset.covariates),
        oracle=OraclePolicy(cate=conditional_effect),
        config=config,
    )


SHIFT_DIRECTION = (-1.0, 1.0, -1.0)  # displacement pattern matching the default target mean


def shift_sweep_config(base: SimConfig, chebyshev_distance: float) -> SimConfig:
    """Move the target mean ``chebyshev_distance`` away from the source mean.

    The displacement follows the fixed sign pattern of the default design, so
    distance 1 reproduces the default target mean and distance 0 removes the
    mean shift entirely (covariances are left untouched).
    """
    if chebyshev_distance < 0:
        raise ValueError("chebyshev distance must be nonnegative")
    mu = tuple(m + chebyshev_distance * u for m, u in zip(base.mu_source, SHIFT_DIRECTION))
    return replace(base, mu_target=mu)


def population_reward(
    config: SimConfig,
    policy: LinearPolicy | OraclePolicy,
    scope: str = "target",
    n_draws: int = 200_000,
    seed: int = 20_000_000,
) -> float:
    """Monte Carlo evaluation of the policy's true expected outcome.

    ``scope`` picks the target domain or the q-weighted mixture of both. Uses
    the noise-free outcome surfaces, so only covariate sampling error remains.
    """
    rng = np.random.default_rng(seed)
    if scope not in ("target", "entire"):
        raise ValueError("scope must be 'target' or 'entire'")
    n_src = 0 if scope == "target" else int(round(n_draws * config.source_fraction))
    parts = []
    if n_src:
        chol = np.linalg.cholesky(np.asarray(config.cov_source, dtype=float))
        parts.append(rng.standard_normal((n_src, 3)) @ chol.T + np.asarray(config.mu_source))
    chol = np.linalg.cholesky(np.asarray(config.cov_target, dtype=float))
    parts.append(rng.standard_normal((n_draws - n_src, 3)) @ chol.T + np.asarray(config.mu_target))
    X = np.vstack(parts)
    decisions = policy.decide(X)
    values = decisions * outcome_surface_treated(X) + (1.0 - decisions) * outcome_surface_control(X)
    return float(values.mean())


def write_truth_csv(sim: SimulatedData, path: str | Path) -> None:
    """Row-aligned sidecar with potential outcomes and true nuisance values."""
    X = sim.dataset.covariates
    v = sim.truth.values(X)
    columns = {
        "y1": sim.potential.y1,
        "y0": sim.potential.y0,
        "mu0_true": v.mu0,
        "mu1_true": v.mu1,
        "e1_true": v.e1,
        "s_true": v.s,
    }
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SIDECAR_COLUMNS)
        for i in range(sim.dataset.n):
            writer.writerow([repr(float(columns[c][i])) for c in SIDECAR_COLUMNS])


def read_truth_csv(path: str | Path) -> dict[str, np.ndarray]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SIDECAR_COLUMNS:
            raise ValueError(f"unexpected sidecar header {header}")
        rows = [[float(cell) for cell in row] for row in reader]
    arr = np.asarray(rows, dtype=float)
    return {name: arr[:, j] for j, name in enumerate(SIDECAR_COLUMNS)}
