"""Policy classes and the gradient-based policy learner.

A linear policy scores covariates through a feature map and treats when the
score is nonnegative. During learning the 0/1 decision is relaxed to a
sigmoid with a temperature, which makes the estimated reward differentiable
in the score coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import RewardCoefficients
from .features import FeatureMap, sigmoid


@dataclass(frozen=True)
class LinearPolicy:
    """Treatment rule 1{theta . features(x) >= 0} with a smoothed relaxation."""

    theta: np.ndarray
    fmap: FeatureMap
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if len(self.theta) != self.fmap.p_out:
            raise ValueError(f"theta has {len(self.theta)} entries, feature map produces {self.fmap.p_out}")

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.fmap.expand(x) @ self.theta

    def smooth_value(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.score(x) / self.temperature)

    def decide(self, x: np.ndarray) -> np.ndarray:
        """Hard decisions; independent of the temperature."""
        return (self.score(x) >= 0.0).astype(float)

    def to_dict(self) -> dict:
        return {
            "theta": [float(t) for t in self.theta],
            "feature_map": self.fmap.kind,
            "p_in": self.fmap.p_in,
            "temperature": float(self.temperature),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LinearPolicy":
        return cls(
            theta=np.asarray(payload["theta"], dtype=float),
            fmap=FeatureMap(payload["feature_map"], int(payload["p_in"])),
            temperature=float(payload.get("temperature", 1.0)),
        )


@dataclass(frozen=True)
class OraclePolicy:
    """Treats exactly when the conditional effect is nonnegative (ties treat)."""

    cate: Callable[[np.ndarray], np.ndarray]

    def decide(self, x: np.ndarray) -> np.ndarray:
        effect = np.asarray(self.cate(np.atleast_2d(x)), dtype=float)
        if not np.all(np.isfinite(effect)):
            raise ValueError("conditional effect must be finite")
        return (effect >= 0.0).astype(float)


@dataclass(frozen=True)
class LearnerConfig:
    """Mini-batch gradient ascent settings for the smoothed reward objective.

    ``standardize`` rescales non-intercept features to zero mean and unit
    spread inside the optimizer (a diagonal preconditioner); the returned
    coefficients are always expressed in original feature coordinates, so
    decisions are unaffected by the reparameterization itself.
    ``anneal_to`` optionally decays the temperature geometrically from
    ``temperature`` to the given value across epochs.
    """

    feature_map: str = "raw"
    batch_size: int = 128
    step_size: float = 0.05
    max_epochs: int = 500
    temperature: float = 1.0
    anneal_to: float | None = None
    standardize: bool = True
    seed: int = 0


@dataclass(frozen=True)
class TrainingTrace:
    """Full-data smoothed objective per epoch; entry 0 is the initial point."""

    objectives: list[float]
    best_epoch: int

    @property
    def initial_objective(self) -> float:
        return self.objectives[0]

    @property
    def best_objective(self) -> float:
        return self.objectives[self.best_epoch]


def learn_policies(
    coeffs_seq: Sequence[RewardCoefficients],
    covariates: np.ndarray,
    config: LearnerConfig | None = None,
) -> list[tuple[LinearPolicy, TrainingTrace] | FloatingPointError]:
    """Maximize the smoothed estimated reward for several coefficient sets at once.

    Set j's objective is mean_i[sigmoid(theta_j . f_i / T) * a_ji + b_ji]; its
    exact per-sample gradient a_ji * sigmoid'(z_ji) * f_i / T drives plain
    mini-batch ascent from theta_j = 0 (the indifferent policy). The sets
    share the covariates and the seed, hence the mini-batch order, so one loop
    moves every theta_j. It uses only batched matrix-vector products, so each
    theta_j sees exactly the arithmetic of a run on its own set: a
    matrix-matrix product sums in another order, and the ascent amplifies
    last-bit differences.

    Each result is ``(policy, trace)``, with the coefficients of the epoch with
    the best full-data smoothed objective, the initial point included; or, for
    a set whose theta becomes non-finite during an epoch, the
    ``FloatingPointError`` that stopped it, leaving the other sets unchanged.
    Misaligned rows and a bad batch size raise ``ValueError`` for all sets.
    """
    config = config or LearnerConfig()
    X = np.atleast_2d(np.asarray(covariates, dtype=float))
    n = X.shape[0]
    if any(coeffs.n != n for coeffs in coeffs_seq):
        raise ValueError("coefficients and covariates are not aligned")
    if config.batch_size < 1 or config.batch_size > n:
        raise ValueError("batch_size must lie in [1, n]")
    fmap = FeatureMap(config.feature_map, X.shape[1])
    F = fmap.expand(X)
    k = F.shape[1]

    shift = np.zeros(k)
    scale = np.ones(k)
    if config.standardize and k > 1:
        shift[1:] = F[:, 1:].mean(axis=0)
        sd = F[:, 1:].std(axis=0)
        scale[1:] = np.where(sd > 0, sd, 1.0)
    Fs = (F - shift) / scale

    # rows of theta, A and B belong to the sets still ascending, listed in `live`
    m = len(coeffs_seq)
    live = np.arange(m)
    A = np.array([coeffs.a for coeffs in coeffs_seq], dtype=float).reshape(m, n)
    B = np.array([coeffs.b for coeffs in coeffs_seq], dtype=float).reshape(m, n)
    rng = np.random.default_rng(config.seed)
    theta = np.zeros((m, k))

    def temperature_at(epoch: int) -> float:
        if config.anneal_to is None or config.max_epochs <= 1:
            return config.temperature
        ratio = config.anneal_to / config.temperature
        return config.temperature * ratio ** (epoch / (config.max_epochs - 1))

    def objectives(theta: np.ndarray, A: np.ndarray, B: np.ndarray, temp: float) -> np.ndarray:
        return np.mean(sigmoid((Fs @ theta[:, :, None])[..., 0] / temp) * A + B, axis=1)

    traces = [[float(obj)] for obj in objectives(theta, A, B, temperature_at(0))]
    best_theta, best_epoch = theta.copy(), [0] * m
    results: list = [None] * m

    for epoch in range(config.max_epochs):
        if live.size == 0:
            break
        temp = temperature_at(epoch)
        order = rng.permutation(n)
        F_epoch, A_epoch = Fs[order], A[:, order]
        for start in range(0, n, config.batch_size):
            Fb = F_epoch[start : start + config.batch_size]
            sz = sigmoid((Fb @ theta[:, :, None])[..., 0] / temp)
            w = A_epoch[:, start : start + config.batch_size] * sz * (1.0 - sz)
            grad = (w[:, None, :] @ Fb)[:, 0, :] / (len(Fb) * temp)
            theta = theta + config.step_size * grad
        # a non-finite gradient leaves theta non-finite for good, so once per epoch suffices
        finite = np.isfinite(theta).all(axis=1)
        if not finite.all():
            for j in live[~finite]:
                results[j] = FloatingPointError("non-finite policy gradient; check reward coefficients")
            live, theta, A, B = live[finite], theta[finite], A[finite], B[finite]
        for row, (j, obj) in enumerate(zip(live, objectives(theta, A, B, temp))):
            traces[j].append(float(obj))
            if obj > traces[j][best_epoch[j]]:
                best_theta[j], best_epoch[j] = theta[row], epoch + 1

    final_temp = temperature_at(max(config.max_epochs - 1, 0))
    for j in live:
        # report theta in original feature coordinates
        theta_raw = best_theta[j] / scale
        if k > 1:
            theta_raw[0] = best_theta[j, 0] - float(np.sum(best_theta[j, 1:] * shift[1:] / scale[1:]))
        policy = LinearPolicy(theta=theta_raw, fmap=fmap, temperature=final_temp)
        results[j] = (policy, TrainingTrace(objectives=traces[j], best_epoch=best_epoch[j]))
    return results


def learn_policy(
    coeffs: RewardCoefficients,
    covariates: np.ndarray,
    config: LearnerConfig | None = None,
) -> tuple[LinearPolicy, TrainingTrace]:
    """Maximize the smoothed estimated reward over linear policies.

    ``learn_policies`` for one coefficient set; a non-finite gradient raises
    ``FloatingPointError``.
    """
    (result,) = learn_policies([coeffs], covariates, config)
    if isinstance(result, FloatingPointError):
        raise result
    return result


def policy_error(policy: LinearPolicy | OraclePolicy, oracle: OraclePolicy, target_covariates: np.ndarray) -> float:
    """Mean squared disagreement of hard decisions on target rows.

    Both rules are 0/1, so this equals the disagreement rate.
    """
    X = np.atleast_2d(np.asarray(target_covariates, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("policy error needs a nonempty target set")
    return float(np.mean((policy.decide(X) - oracle.decide(X)) ** 2))
