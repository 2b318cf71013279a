"""Deterministic feature expansions shared by nuisance models and policies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEATURE_KINDS = ("intercept", "raw", "quadratic")


@dataclass(frozen=True)
class FeatureMap:
    """Maps a covariate vector to a model feature vector (intercept first).

    kind:
        "intercept"  constant term only
        "raw"        intercept + linear terms
        "quadratic"  intercept + linear + squares + pairwise products
    """

    kind: str
    p_in: int

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature map kind {self.kind!r}; expected one of {FEATURE_KINDS}")
        if self.p_in < 1:
            raise ValueError("p_in must be >= 1")

    @property
    def p_out(self) -> int:
        if self.kind == "intercept":
            return 1
        if self.kind == "raw":
            return self.p_in + 1
        p = self.p_in
        return 1 + 2 * p + p * (p - 1) // 2

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Expand covariates (n, p_in) or (p_in,) into features (n, p_out).

        The columns are written into one C-ordered matrix: the intercept,
        then (not for "intercept") the covariates, then (for "quadratic")
        their squares and the products x_i * x_j for i < j.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, p = x.shape
        if p != self.p_in:
            raise ValueError(f"expected {self.p_in} covariates, got {p}")
        out = np.empty((n, self.p_out))
        out[:, 0] = 1.0
        if self.kind == "intercept":
            return out
        out[:, 1 : p + 1] = x
        if self.kind == "raw":
            return out
        np.square(x, out=out[:, p + 1 : 2 * p + 1])
        col = 2 * p + 1
        for i in range(p):
            for j in range(i + 1, p):
                np.multiply(x[:, i], x[:, j], out=out[:, col])
                col += 1
        return out


def sigmoid(z: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|z|), which never overflows, this is 1 / (1 + e) for z >= 0
    and e / (1 + e) for z < 0: the same operations, bit for bit, as the usual
    form for each sign, since the numerator exp(min(z, 0)) is exactly 1 or e.
    A caller in a loop can pass ``out`` for the result and ``work`` for
    scratch, float arrays of z's shape, and then allocates nothing; ``work``
    may be z itself, which it overwrites.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z) if out is None else out
    e = np.empty_like(z) if work is None else work
    np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=e)
    return np.divide(out, e, out=out)
