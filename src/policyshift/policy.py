"""Policy classes and the gradient-based policy learner.

A linear policy scores covariates through a feature map and treats when the
score is nonnegative. During learning the 0/1 decision is relaxed to the
sigmoid of the score, which makes the estimated reward differentiable in the
score coefficients. A sharper relaxation needs no knob of its own: ascent on
sigmoid(score / T) with step size eta has the trace and decisions of this
ascent with step size eta / T**2, whose coefficients are the former's over T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import RewardCoefficients
from .features import FeatureMap, sigmoid


@dataclass(frozen=True)
class LinearPolicy:
    """Treatment rule 1{theta . features(x) >= 0}."""

    theta: np.ndarray
    fmap: FeatureMap

    def __post_init__(self) -> None:
        if len(self.theta) != self.fmap.p_out:
            raise ValueError(f"theta has {len(self.theta)} entries, feature map produces {self.fmap.p_out}")

    def score(self, x: np.ndarray) -> np.ndarray:
        return self.fmap.expand(x) @ self.theta

    def decide(self, x: np.ndarray) -> np.ndarray:
        return (self.score(x) >= 0.0).astype(float)

    def to_dict(self) -> dict:
        return {
            "theta": [float(t) for t in self.theta],
            "feature_map": self.fmap.kind,
            "p_in": self.fmap.p_in,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LinearPolicy":
        """Load ``to_dict`` output; a ``temperature`` key of older files is ignored."""
        return cls(
            theta=np.asarray(payload["theta"], dtype=float),
            fmap=FeatureMap(payload["feature_map"], int(payload["p_in"])),
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

    The optimizer always standardizes the non-intercept features to zero mean
    and unit spread (a diagonal preconditioner); the returned coefficients are
    expressed in original feature coordinates.
    """

    feature_map: str = "raw"
    batch_size: int = 128
    step_size: float = 0.05
    max_epochs: int = 500
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

    Set j's objective is mean_i[sigmoid(theta_j . f_i) * a_ji + b_ji]; its
    exact per-sample gradient a_ji * sigmoid'(z_ji) * f_i drives plain
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
    if k > 1:
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

    def objectives(theta: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return np.mean(sigmoid((Fs @ theta[:, :, None])[..., 0]) * A + B, axis=1)

    traces = [[float(obj)] for obj in objectives(theta, A, B)]
    best_theta, best_epoch = theta.copy(), [0] * m
    results: list = [None] * m

    for epoch in range(config.max_epochs):
        if live.size == 0:
            break
        order = rng.permutation(n)
        F_epoch, A_epoch = Fs[order], A[:, order]
        for start in range(0, n, config.batch_size):
            Fb = F_epoch[start : start + config.batch_size]
            sz = sigmoid((Fb @ theta[:, :, None])[..., 0])
            w = A_epoch[:, start : start + config.batch_size] * sz * (1.0 - sz)
            grad = (w[:, None, :] @ Fb)[:, 0, :] / len(Fb)
            theta = theta + config.step_size * grad
        # a non-finite gradient leaves theta non-finite for good, so once per epoch suffices
        finite = np.isfinite(theta).all(axis=1)
        if not finite.all():
            for j in live[~finite]:
                results[j] = FloatingPointError("non-finite policy gradient; check reward coefficients")
            live, theta, A, B = live[finite], theta[finite], A[finite], B[finite]
        for row, (j, obj) in enumerate(zip(live, objectives(theta, A, B))):
            traces[j].append(float(obj))
            if obj > traces[j][best_epoch[j]]:
                best_theta[j], best_epoch[j] = theta[row], epoch + 1

    for j in live:
        # report theta in original feature coordinates
        theta_raw = best_theta[j] / scale
        if k > 1:
            theta_raw[0] = best_theta[j, 0] - float(np.sum(best_theta[j, 1:] * shift[1:] / scale[1:]))
        policy = LinearPolicy(theta=theta_raw, fmap=fmap)
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
