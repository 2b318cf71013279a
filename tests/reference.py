"""Independent brute-force evaluators used as test oracles.

These translate the estimator definitions into plain scalar loops over rows,
deliberately sharing no code with the package's vectorized coefficient path.
They take raw nuisance value arrays, not fitted models. The learner reference
runs one coefficient set step by step, with the sign-masked sigmoid. The
population-reward reference draws its points anew on every call, builds
them and the surfaces as whole arrays, and forms the reward with one
temporary per operation; the expansion reference stacks its columns. The
surface oracle decides straight from the generator's outcome surfaces. The
CSV reference reads a combined dataset one row at a time, cell by cell, and
the layout reference lists a dataset's faults one cell at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from policyshift import CombinedDataset, FeatureMap, NuisanceSet
from policyshift.data import GROUP, OUTCOME, TREATMENT
from policyshift.simulate import outcome_surface_control, outcome_surface_treated


def direct_r_reference(ds: CombinedDataset, mu0, mu1, pi) -> float:
    n = ds.n
    q = ds.n_source / n
    total = 0.0
    for i in range(n):
        if ds.group[i] == 0:
            total += (pi[i] * mu1[i] + (1.0 - pi[i]) * mu0[i]) / (1.0 - q)
    return total / n


def ipw_r_reference(ds: CombinedDataset, e1, s, pi) -> float:
    n = ds.n
    q = ds.n_source / n
    total = 0.0
    for i in range(n):
        if ds.group[i] == 1:
            w = (1.0 - s[i]) / s[i]
            a, y = ds.treatment[i], ds.outcome[i]
            total += pi[i] * a * y * w / (e1[i] * (1.0 - q))
            total += (1.0 - pi[i]) * (1.0 - a) * y * w / ((1.0 - e1[i]) * (1.0 - q))
    return total / n


def se_r_reference(ds: CombinedDataset, mu0, mu1, e1, s, pi) -> float:
    n = ds.n
    q = ds.n_source / n
    total = 0.0
    for i in range(n):
        if ds.group[i] == 1:
            w = (1.0 - s[i]) / s[i]
            a, y = ds.treatment[i], ds.outcome[i]
            total += pi[i] * a * (y - mu1[i]) * w / (e1[i] * (1.0 - q))
            total += (1.0 - pi[i]) * (1.0 - a) * (y - mu0[i]) * w / ((1.0 - e1[i]) * (1.0 - q))
        else:
            total += (pi[i] * mu1[i] + (1.0 - pi[i]) * mu0[i]) / (1.0 - q)
    return total / n


def se_v_reference(ds: CombinedDataset, mu0, mu1, e1, s, pi) -> float:
    n = ds.n
    total = 0.0
    for i in range(n):
        total += pi[i] * mu1[i] + (1.0 - pi[i]) * mu0[i]
        if ds.group[i] == 1:
            a, y = ds.treatment[i], ds.outcome[i]
            inner = pi[i] * a * (y - mu1[i]) / e1[i]
            inner += (1.0 - pi[i]) * (1.0 - a) * (y - mu0[i]) / (1.0 - e1[i])
            total += inner / s[i]
    return total / n


def bound_reference(ds: CombinedDataset, mu0, mu1, e1, s, eta: float, n_policies: int) -> float:
    n = ds.n
    q = ds.n_source / n
    acc = 0.0
    for i in range(n):
        if ds.group[i] != 1:
            continue
        a, y = ds.treatment[i], ds.outcome[i]
        resid = y - (mu1[i] if a == 1 else mu0[i])
        e_arm = e1[i] if a == 1 else 1.0 - e1[i]
        acc += resid**2 * (1.0 - s[i]) ** 2 / ((1.0 - q) ** 2 * e_arm**2 * s[i] ** 2)
    return math.sqrt(math.log(2.0 * n_policies / eta) / (2.0 * n * n) * acc)


def fixed_value_nuisances(mu0, mu1, e1, s, clip: float = 0.01) -> NuisanceSet:
    """Wrap precomputed per-row values as a nuisance set.

    Valid only when evaluated on the full covariate matrix the values
    correspond to (the estimators do exactly that).
    """

    def lookup(values):
        values = np.asarray(values, dtype=float)

        def f(x):
            if np.atleast_2d(x).shape[0] != len(values):
                raise AssertionError("fixed-value nuisance evaluated off its dataset")
            return values

        return f

    return NuisanceSet(mu0=lookup(mu0), mu1=lookup(mu1), e1=lookup(e1), s=lookup(s), clip=clip)


def random_small_dataset(rng: np.random.Generator, max_n: int = 12):
    """A random tiny dataset plus interior nuisance values and policy values."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        group = (rng.random(n) < 0.5).astype(int)
        if 0 < group.sum() < n:
            break
    x = rng.normal(size=(n, 2))
    treatment = np.where(group == 1, (rng.random(n) < 0.5).astype(float), np.nan)
    outcome = np.where(group == 1, rng.normal(scale=2.0, size=n), np.nan)
    ds = CombinedDataset(covariates=x, group=group, treatment=treatment, outcome=outcome)
    vals = {
        "mu0": rng.normal(size=n),
        "mu1": rng.normal(size=n),
        "e1": rng.uniform(0.05, 0.95, size=n),
        "s": rng.uniform(0.05, 0.95, size=n),
    }
    pi = rng.uniform(0.0, 1.0, size=n)
    return ds, vals, pi


def masked_sigmoid(z) -> np.ndarray:
    """The logistic function evaluated branch by branch under a sign mask."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def stepwise_learner(a, b, covariates, config, seed: int, temperature: float = 1.0) -> tuple[np.ndarray, list[float], int]:
    """One coefficient set's mini-batch ascent, one gathered batch and one check per step.

    The objective is mean(sigmoid(theta . f / temperature) * a + b). Returns
    the reported theta (original feature coordinates), the objective trace
    and the best epoch. Raises ``FloatingPointError`` at the first non-finite
    gradient.
    """
    X = np.atleast_2d(np.asarray(covariates, dtype=float))
    F = FeatureMap(config.feature_map, X.shape[1]).expand(X)
    n, k = F.shape
    shift, scale = np.zeros(k), np.ones(k)
    if k > 1:
        shift[1:] = F[:, 1:].mean(axis=0)
        sd = F[:, 1:].std(axis=0)
        scale[1:] = np.where(sd > 0, sd, 1.0)
    Fs = (F - shift) / scale
    rng = np.random.default_rng(seed)
    theta = np.zeros(k)

    def objective(t):
        return float(np.mean(masked_sigmoid(Fs @ t / temperature) * a + b))

    trace = [objective(theta)]
    best_obj, best_theta, best_epoch = trace[0], theta.copy(), 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            sz = masked_sigmoid(Fs[idx] @ theta / temperature)
            grad = (a[idx] * sz * (1.0 - sz)) @ Fs[idx] / (len(idx) * temperature)
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError("non-finite policy gradient; check reward coefficients")
            theta = theta + config.step_size * grad
        obj = objective(theta)
        trace.append(obj)
        if obj > best_obj:
            best_obj, best_theta, best_epoch = obj, theta.copy(), epoch + 1
    theta_raw = best_theta / scale
    if k > 1:
        theta_raw[0] = best_theta[0] - float(np.sum(best_theta[1:] * shift[1:] / scale[1:]))
    return theta_raw, trace, best_epoch


def population_draws_reference(config, n_src, n_draws, seed):
    """The Monte Carlo draws and both surfaces built whole: each domain's
    normals times its Cholesky factor plus its mean, stacked, then one pass
    of each outcome surface over every draw."""
    rng = np.random.default_rng(seed)
    parts = []
    if n_src:
        chol = np.linalg.cholesky(np.asarray(config.cov_source, dtype=float))
        parts.append(rng.standard_normal((n_src, 3)) @ chol.T + np.asarray(config.mu_source))
    chol = np.linalg.cholesky(np.asarray(config.cov_target, dtype=float))
    parts.append(rng.standard_normal((n_draws - n_src, 3)) @ chol.T + np.asarray(config.mu_target))
    X = np.vstack(parts)
    return X, outcome_surface_treated(X), outcome_surface_control(X)


@dataclass(frozen=True)
class SurfaceOracle:
    """Treats where ``sign * (mu1 - mu0) >= 0`` of the generator's true surfaces (ties treat)."""

    sign: float = 1.0

    def decide(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return (self.sign * (outcome_surface_treated(x) - outcome_surface_control(x)) >= 0.0).astype(float)


def reward_reference(decisions, mu1, mu0) -> float:
    """Mean of decisions * mu1 + (1 - decisions) * mu0, one temporary per operation."""
    return float((decisions * mu1 + (1.0 - decisions) * mu0).mean())


def population_reward_reference(config, policy, scope="target", n_draws=200_000, seed=20_000_000) -> float:
    """Monte Carlo true reward of a policy, drawing its covariates on every call."""
    if scope not in ("target", "entire"):
        raise ValueError("scope must be 'target' or 'entire'")
    n_src = 0 if scope == "target" else int(round(n_draws * config.source_fraction))
    X, mu1, mu0 = population_draws_reference(config, n_src, n_draws, seed)
    return reward_reference(policy.decide(X), mu1, mu0)


def expand_reference(kind: str, x) -> np.ndarray:
    """A feature expansion stacked from its columns: the intercept, the covariates,
    then (quadratic) their squares and the products x_i * x_j for i < j."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, p = x.shape
    if kind == "intercept":
        return np.ones((n, 1))
    if kind == "raw":
        return np.hstack([np.ones((n, 1)), x])
    cols = [np.ones((n, 1)), x, x**2]
    cols += [(x[:, i] * x[:, j])[:, None] for i in range(p) for j in range(i + 1, p)]
    return np.hstack(cols)


def _parse_cell_reference(raw: str, line: int, column: str) -> float:
    if raw == "":
        return float("nan")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {line}, column {column}: cannot parse {raw!r} as a number") from None


def _records(reader):
    """The reader's records; a record the csv module cannot read raises ValueError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def ingest_reference(path) -> CombinedDataset:
    """A combined dataset read from CSV one row at a time: each row's cell
    count, then its group, covariates in header order, treatment and outcome,
    each cell parsed on its own; the first faulty cell raises."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        duplicated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
        if duplicated:
            raise ValueError(f"{path}: duplicated header columns {duplicated}")
        if GROUP not in header:
            raise ValueError(f"{path}: missing group column {GROUP!r}")
        cov_names = [c for c in header if c not in (GROUP, TREATMENT, OUTCOME)]
        if not cov_names:
            raise ValueError(
                f"{path}: no covariate column; every column other than {GROUP!r}, {TREATMENT!r} and {OUTCOME!r} is a covariate"
            )
        idx = {name: header.index(name) for name in header}

        rows_x: list[list[float]] = []
        rows_g: list[int] = []
        rows_a: list[float] = []
        rows_y: list[float] = []
        for line_no, row in enumerate(_records(reader), start=2):
            if len(row) != len(header):
                raise ValueError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
            g_raw = row[idx[GROUP]]
            if g_raw not in ("0", "1"):
                raise ValueError(f"line {line_no}, column {GROUP}: group must be literal 0 or 1, got {g_raw!r}")
            rows_g.append(int(g_raw))
            rows_x.append([_parse_cell_reference(row[idx[c]], line_no, c) for c in cov_names])
            a_raw = row[idx[TREATMENT]] if TREATMENT in idx else ""
            y_raw = row[idx[OUTCOME]] if OUTCOME in idx else ""
            rows_a.append(_parse_cell_reference(a_raw, line_no, TREATMENT))
            rows_y.append(_parse_cell_reference(y_raw, line_no, OUTCOME))

    if not rows_g:
        raise ValueError(f"{path}: no data rows")
    return CombinedDataset(
        covariates=np.array(rows_x, dtype=float),
        group=np.array(rows_g, dtype=int),
        treatment=np.array(rows_a, dtype=float),
        outcome=np.array(rows_y, dtype=float),
        covariate_names=tuple(cov_names),
    )


def dataset_problems_reference(covariates, group, treatment, outcome, names) -> list[str]:
    """Every layout violation of a dataset's cells, one scalar check at a time.

    Rule by rule, each rule's rows in order: the group (exactly 0 or 1), the
    two domains being non-empty, the source cells (treatment and outcome
    present, treatment 0 or 1, outcome not infinite), the target cells
    (treatment and outcome absent), then the non-finite covariates row by
    row. A row of any other group belongs to no domain. Empty means well formed.
    """
    g = [float(v) for v in group]
    a = [float(v) for v in treatment]
    y = [float(v) for v in outcome]
    rows = range(len(g))

    def rule(message, broken):
        return [f"row {i}: {message}" for i in rows if broken(i)]

    def src(i):
        return g[i] == 1.0

    def tgt(i):
        return g[i] == 0.0

    problems = rule("group must be 0 or 1", lambda i: not (src(i) or tgt(i)))
    if not any(src(i) for i in rows):
        problems.append("source domain empty (no rows with group=1)")
    if not any(tgt(i) for i in rows):
        problems.append("target domain empty (no rows with group=0)")
    problems += rule("treatment missing where group=1", lambda i: src(i) and math.isnan(a[i]))
    problems += rule("outcome missing where group=1", lambda i: src(i) and math.isnan(y[i]))
    problems += rule("treatment present where group=0", lambda i: tgt(i) and not math.isnan(a[i]))
    problems += rule("outcome present where group=0", lambda i: tgt(i) and not math.isnan(y[i]))
    problems += rule("treatment must be 0 or 1", lambda i: src(i) and not math.isnan(a[i]) and a[i] not in (0.0, 1.0))
    problems += rule("outcome not finite", lambda i: src(i) and math.isinf(y[i]))
    for i in rows:
        for j, name in enumerate(names):
            if not math.isfinite(float(covariates[i][j])):
                problems.append(f"row {i}, column {name}: covariate not finite")
    return problems
