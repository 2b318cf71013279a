"""Policy classes and the gradient-based policy learner.

A linear policy scores covariates through a feature map and treats when the
score is nonnegative. During learning the 0/1 decision is relaxed to the
sigmoid of the score, which makes the estimated reward differentiable in the
score coefficients. A sharper relaxation needs no knob of its own: ascent on
sigmoid(score / T) with step size eta has the trace and decisions of this
ascent with step size eta / T**2, whose coefficients are the former's over T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import json_option
from .estimators import RewardCoefficients
from .features import FEATURE_KINDS, FeatureMap, sigmoid


@dataclass(frozen=True)
class LinearPolicy:
    """Treatment rule 1{theta . features(x) >= 0}."""

    theta: np.ndarray
    fmap: FeatureMap

    def __post_init__(self) -> None:
        if np.ndim(self.theta) != 1 or not np.isfinite(self.theta).all():
            raise ValueError(f"theta must be a finite 1-D vector, got {self.theta!r}")
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
        """Load ``to_dict`` output; a ``temperature`` key of older files is ignored.

        Every value is read through ``json_option``: theta as a list of finite
        numbers, feature_map as a string and p_in as an integer.
        """
        missing = [k for k in ("theta", "feature_map", "p_in") if type(payload) is not dict or k not in payload]
        if missing:
            raise ValueError(f"a policy must be a JSON object with keys theta, feature_map and p_in; missing {missing}")
        return cls(
            theta=np.array(json_option("policy", "theta", payload["theta"], (0.0,)), dtype=float),
            fmap=FeatureMap(
                json_option("policy", "feature_map", payload["feature_map"], ""),
                json_option("policy", "p_in", payload["p_in"], 0),
            ),
        )


@dataclass(frozen=True)
class LearnerConfig:
    """Mini-batch gradient ascent settings for the smoothed reward objective.

    The optimizer always standardizes the non-intercept features to zero mean
    and unit spread (a diagonal preconditioner); the returned coefficients are
    expressed in original feature coordinates. ``max_epochs = 0`` returns the
    initial point.
    """

    feature_map: str = "raw"
    batch_size: int = 128
    step_size: float = 0.05
    max_epochs: int = 500

    def __post_init__(self) -> None:
        if self.feature_map not in FEATURE_KINDS:
            raise ValueError(f"learner feature_map must be one of {FEATURE_KINDS}, got {self.feature_map!r}")
        if self.batch_size < 1:
            raise ValueError(f"learner batch_size must be at least 1, got {self.batch_size!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"learner step_size must be positive and finite, got {self.step_size!r}")
        if self.max_epochs < 0:
            raise ValueError(f"learner max_epochs must be nonnegative, got {self.max_epochs!r}")


@dataclass(frozen=True)
class TrainingTrace:
    """Full-data smoothed objective per epoch; entry 0 is the initial point."""

    objectives: list[float]
    best_epoch: int

    @property
    def best_objective(self) -> float:
        return self.objectives[self.best_epoch]


def _ascend(
    groups: Sequence[tuple[Sequence[RewardCoefficients], np.ndarray, int]],
    config: LearnerConfig,
) -> list[list[tuple[LinearPolicy, TrainingTrace] | FloatingPointError]]:
    """Maximize the smoothed estimated reward of every coefficient set of several groups at once.

    A group is ``(coeffs_seq, covariates, seed)``: one replication's sets,
    sharing its covariates, standardization and the mini-batch order drawn
    from ``seed``. Each set's result is ``(policy, trace)`` at the epoch with
    the best full-data smoothed objective, the initial point included, or the
    ``FloatingPointError`` of a set whose theta went non-finite, which leaves
    the other sets unchanged. Every group is checked before any work: groups
    that do not share the covariate shape, misaligned rows or a batch size
    beyond the rows raise ``ValueError``.

    Every product is a stack of the (rows, k) @ (k, 1) and (1, rows) @
    (rows, k) matrix-vector products that one set on its own computes, so each
    theta sees exactly that arithmetic: a matrix-matrix product sums in another
    order, and the ascent amplifies last-bit differences. Groups with fewer
    sets are padded with zero coefficients, which keep theta at exactly 0, and
    a set whose theta goes non-finite is frozen the same way; neither is
    reported.

    Each epoch's mini-batch order is drawn, and the standardized features and
    gains gathered in that order, at the top of the epoch on this thread.
    """
    if not groups:
        return []
    covariates = [np.atleast_2d(np.asarray(X, dtype=float)) for _, X, _ in groups]
    if len({X.shape for X in covariates}) > 1:
        raise ValueError("groups must share the covariate shape")
    n, p = covariates[0].shape
    if any(coeffs.n != n for coeffs_seq, _, _ in groups for coeffs in coeffs_seq):
        raise ValueError("coefficients and covariates are not aligned")
    if config.batch_size > n:  # LearnerConfig refuses a batch size below 1
        raise ValueError("batch_size must lie in [1, n]")
    fmap = FeatureMap(config.feature_map, p)

    R, k, m = len(groups), fmap.p_out, max(len(coeffs_seq) for coeffs_seq, _, _ in groups)
    standardized = []
    for X in covariates:
        F = fmap.expand(X)
        shift, scale = np.zeros(k), np.ones(k)
        if k > 1:
            # a constant column is shifted by its value, so it stands at exactly 0 however its mean rounds
            constant = (F[:, 1:] == F[:1, 1:]).all(axis=0)
            shift[1:] = np.where(constant, F[0, 1:], F[:, 1:].mean(axis=0))
            sd = F[:, 1:].std(axis=0)
            scale[1:] = np.where(~constant & (sd > 0), sd, 1.0)
        standardized.append(((F - shift) / scale, shift, scale))
    Fs, shift, scale = (np.stack(parts) for parts in zip(*standardized))
    del standardized
    # A is stored as (R, n, m), data rows first, so the row gather of Fs serves A too
    At, B = np.zeros((R, n, m)), np.zeros((R, m, n))
    A = At.transpose(0, 2, 1)
    live = np.zeros((R, m), dtype=bool)
    for r, (coeffs_seq, _, _) in enumerate(groups):
        for j, coeffs in enumerate(coeffs_seq):
            A[r, j], B[r, j], live[r, j] = coeffs.a, coeffs.b, True
    entries: list[list] = [[None] * len(coeffs_seq) for coeffs_seq, _, _ in groups]
    rngs = [np.random.default_rng(seed) for _, _, seed in groups]
    theta = np.zeros((R, m, k))
    theta_col = theta[..., None]
    # every array and view the loop uses is made once: at 128-row batches the
    # Python work around each call costs as much as its arithmetic, so each
    # call passes its ``out``, and the buffers are rewritten in place, which
    # keeps their views valid
    At_epoch, grad = np.empty((R, n, m)), np.empty((R, m, 1, k))
    A_epoch, gb = At_epoch.transpose(0, 2, 1), grad[..., 0, :]
    widths = {min(config.batch_size, n - start) for start in range(0, n, config.batch_size)}
    scratch = {width: (np.empty((R, m, width)), np.empty((R, m, width))) for width in widths}
    # an epoch's flat rows, the features gathered in their order and, per batch,
    # its features and gains, sigmoid(F . theta) and the work buffer holding the
    # score, with the views the products write and read, and its width
    rows, F_epoch, plan = np.empty((R, n), dtype=np.intp), np.empty((R, n, k)), []
    for start in range(0, n, config.batch_size):
        end = min(start + config.batch_size, n)
        S, W = scratch[end - start]
        plan.append((F_epoch[:, None, start:end], A_epoch[..., start:end], S, W, W[..., None], S[..., None, :], end - start))
    F_all, S_all, W_all = Fs[:, None], np.empty((R, m, n)), np.empty((R, m, n))
    W_all_col, step = W_all[..., None], config.step_size
    # each group's rows carry the flat offset of its first row, so take on the
    # flat arrays gathers every group at once
    Fs_flat, At_flat = Fs.reshape(R * n, k), At.reshape(R * n, m)
    first_rows = np.arange(R * n, dtype=np.intp).reshape(R, n)

    def objectives() -> np.ndarray:
        """Full-data smoothed objective mean(sigmoid(F . theta) * a + b) of every set."""
        np.matmul(F_all, theta_col, out=W_all_col)
        sigmoid(W_all, out=S_all, work=W_all)
        return np.add(np.multiply(S_all, A, out=S_all), B, out=S_all).mean(axis=-1)

    history = [objectives()]
    best_theta, best_obj, best_epoch = theta.copy(), history[0].copy(), np.zeros((R, m), dtype=int)
    for epoch in range(config.max_epochs):
        if not live.any():
            break
        # Generator.permutation(n) is arange(n) shuffled, and a shuffle's permutation
        # does not depend on the values, so this draws the same order in place
        rows[:] = first_rows
        for r, rng in enumerate(rngs):
            rng.shuffle(rows[r])
        # take on flat rows gathers the bytes of fancy indexing several times faster; the
        # rows are in range, and mode "clip" writes into ``out`` without a buffer of its size
        Fs_flat.take(rows, axis=0, out=F_epoch, mode="clip")
        At_flat.take(rows, axis=0, out=At_epoch, mode="clip")
        for Fb, Ab, S, W, W_col, S_row, width in plan:
            np.matmul(Fb, theta_col, out=W_col)
            sigmoid(W, out=S, work=W)
            np.subtract(1.0, S, out=W)
            np.multiply(np.multiply(Ab, S, out=S), W, out=S)
            np.matmul(S_row, Fb, out=grad)
            np.add(theta, np.multiply(step, np.divide(gb, width, out=gb), out=gb), out=theta)
        # a non-finite gradient leaves theta non-finite for good, so once per epoch suffices
        dead = ~np.isfinite(theta).all(axis=-1)
        if dead.any():
            for r, j in zip(*np.nonzero(dead & live)):
                entries[r][j] = FloatingPointError("non-finite policy gradient; check reward coefficients")
            live &= ~dead
            theta[dead], A[dead], B[dead] = 0.0, 0.0, 0.0
        obj = objectives()
        history.append(obj)
        better = live & (obj > best_obj)
        best_theta[better], best_obj[better], best_epoch[better] = theta[better], obj[better], epoch + 1

    history = np.stack(history, axis=-1)
    for r in range(R):
        for j in np.flatnonzero(live[r]):
            # report theta in original feature coordinates
            theta_raw = best_theta[r, j] / scale[r]
            if k > 1:
                theta_raw[0] = best_theta[r, j, 0] - float(np.sum(best_theta[r, j, 1:] * shift[r, 1:] / scale[r, 1:]))
            trace = TrainingTrace(objectives=history[r, j].tolist(), best_epoch=int(best_epoch[r, j]))
            entries[r][j] = (LinearPolicy(theta=theta_raw, fmap=fmap), trace)
    return entries


def learn_policy(
    coeffs: RewardCoefficients,
    covariates: np.ndarray,
    config: LearnerConfig | None = None,
    seed: int = 0,
) -> tuple[LinearPolicy, TrainingTrace]:
    """Maximize mean_i[sigmoid(theta . f_i) * a_i + b_i] over linear policies from theta = 0.

    ``_ascend`` for one coefficient set, in the mini-batch order drawn from
    ``seed``; a non-finite gradient raises ``FloatingPointError``.
    """
    ((result,),) = _ascend([([coeffs], covariates, seed)], config or LearnerConfig())
    if isinstance(result, FloatingPointError):
        raise result
    return result
