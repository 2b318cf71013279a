"""Replication studies: single runs, aggregated tables and robustness sweeps.

Every replication draws a fresh simulated dataset (seed = base seed +
replication index), fits one shared set of nuisance models, learns every
estimation method's policy, then evaluates each. A table generates and
fits all its replications first, then every policy of every replication is
learned in one batched ascent that leaves each replication's
arithmetic as in a run alone, then each is evaluated. Results are collected
in replication order regardless of worker scheduling, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .data import json_option
from .estimators import ESTIMANDS, RewardCoefficients, bias_diagnostic, estimate, reward_coefficients
from .estimators import generalization_bound  # noqa: F401 -- perfbench/tracer.py wraps harness.generalization_bound by name
from .nuisance import NuisanceConfig, NuisanceSet, fit_nuisances
from .policy import LearnerConfig, LinearPolicy, _ascend
from .policy import learn_policy  # noqa: F401 -- perfbench/tracer.py wraps harness.learn_policy by name
from .simulate import SimConfig, SimulatedData, generate, shift_sweep_config
from .stats import paired_t_test

DEFAULT_METHODS = tuple(ESTIMANDS)
METRIC_NAMES = ("true_reward", "regret", "policy_error", "welfare_change")
WELFARE_SCOPES = ("all", "target")


@dataclass(frozen=True)
class EvalMetrics:
    """Ground-truth evaluation of one learned policy on simulated data."""

    true_reward: float
    regret: float
    policy_error: float
    welfare_change: float


def evaluate_policy(policy: LinearPolicy, sim: SimulatedData, welfare_scope: str = "all") -> EvalMetrics:
    """Score a policy against the oracle using the simulated potential outcomes.

    ``policy`` may be any object with ``decide``. The oracle treats where the
    true surfaces have ``mu1 >= mu0``. True reward and policy error average
    over target rows; the welfare change sums the captured treatment effect
    over all rows by default (``welfare_scope="target"`` restricts it to
    target rows).
    """
    if welfare_scope not in WELFARE_SCOPES:
        raise ValueError(f"welfare_scope must be one of {WELFARE_SCOPES}")
    dataset = sim.dataset
    tgt = dataset.target_mask
    decisions = policy.decide(dataset.covariates)
    v = sim.truth.values(dataset.covariates)
    oracle_decisions = (v.mu1 - v.mu0 >= 0.0).astype(float)

    y1_t, y0_t = sim.y1[tgt], sim.y0[tgt]
    d_t, o_t = decisions[tgt], oracle_decisions[tgt]
    true_reward = float(np.mean(d_t * y1_t + (1.0 - d_t) * y0_t))
    oracle_reward = float(np.mean(o_t * y1_t + (1.0 - o_t) * y0_t))
    perr = float(np.mean((o_t - d_t) ** 2))

    effect = sim.y1 - sim.y0
    if welfare_scope == "target":
        welfare = float(np.sum(effect[tgt] * d_t))
    else:
        welfare = float(np.sum(effect * decisions))
    return EvalMetrics(
        true_reward=true_reward,
        regret=oracle_reward - true_reward,
        policy_error=perr,
        welfare_change=welfare,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a replication needs: generator, nuisances and learner.

    ``to_dict`` is the JSON form (tuples as lists). ``from_dict`` takes each
    option only as the JSON type of its default and raises ``ValueError`` on
    an unknown key or a wrong-typed value.
    """

    sim: SimConfig = field(default_factory=SimConfig)
    nuisance: NuisanceConfig = field(default_factory=NuisanceConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    welfare_scope: str = "all"

    def __post_init__(self) -> None:
        if self.welfare_scope not in WELFARE_SCOPES:
            raise ValueError(f"welfare_scope must be one of {WELFARE_SCOPES}, got {self.welfare_scope!r}")

    def to_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if type(payload) is not dict:
            raise ValueError(f"a config must be a JSON object, got {payload!r}")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        defaults, sections = cls(), {}
        for name in ("sim", "nuisance", "learner"):
            options, default = json_option("config", name, payload.get(name, {}), {}), getattr(defaults, name)
            unknown = set(options) - {f.name for f in fields(default)}
            if unknown:
                raise ValueError(f"unknown {name} options: {sorted(unknown)}")
            sections[name] = type(default)(**{k: json_option(name, k, v, getattr(default, k)) for k, v in options.items()})
        return cls(welfare_scope=payload.get("welfare_scope", defaults.welfare_scope), **sections)


def _failure(exc: Exception) -> dict:
    """The record entry of a failed replication or method."""
    return {"error": f"{type(exc).__name__}: {exc}"}


def _run_replications(config: ExperimentConfig, replications: range, methods: tuple[str, ...]) -> list[dict]:
    """Build every replication's coefficients, learn all their policies in one ascent, then evaluate.

    A failure in a shared step (generation or nuisance fitting) fails the
    whole replication; a method whose coefficients fail gets its error entry
    at once. The ascent treats each replication as its own group (its
    covariates, and its simulation seed as the learner seed), so its record
    is that of a run alone. A learner error raised before the ascent (batch
    size or row alignment) fails every method that has coefficients. A
    replication's data is released once its record is written.
    """
    records, staged = [], []
    for replication in replications:
        seed = config.sim.seed + replication
        record: dict = {"replication": replication, "seed": seed}
        records.append(record)
        try:
            sim = generate(replace(config.sim, seed=seed))
            nuisances = fit_nuisances(sim.dataset, config.nuisance)
            # a cross-fitted set fits its full-data models here, on first use
            record["nuisance_coefficients"] = nuisances.coefficients()
        except ValueError as exc:
            record.update(_failure(exc))
            continue
        record["methods"] = dict.fromkeys(methods)
        coeffs = {}
        for method in methods:
            try:
                coeffs[method] = reward_coefficients(sim.dataset, nuisances, method, "r")
            except (ValueError, FloatingPointError) as exc:
                record["methods"][method] = _failure(exc)
        staged.append((record, sim, nuisances, coeffs))
    groups = [(list(coeffs.values()), sim.dataset.covariates, record["seed"]) for record, sim, _, coeffs in staged]
    try:
        group_results = _ascend(groups, config.learner)
    except ValueError as exc:
        group_results = [[exc] * len(sets) for sets, _, _ in groups]
    del groups
    for i, results in enumerate(group_results):
        record, sim, nuisances, coeffs = staged[i]
        staged[i] = None
        for (method, method_coeffs), outcome in zip(coeffs.items(), results):
            record["methods"][method] = _evaluate(sim, nuisances, method_coeffs, outcome, config.welfare_scope)
    return records


def _evaluate(sim: SimulatedData, nuisances: NuisanceSet, coeffs: RewardCoefficients, outcome, welfare_scope: str) -> dict:
    """The record entry of one method: the scores of its learned policy, or why it failed."""
    if isinstance(outcome, Exception):
        return _failure(outcome)
    policy, trace = outcome
    try:
        metrics = evaluate_policy(policy, sim, welfare_scope)
        decisions = policy.decide(sim.dataset.covariates)
        est = estimate(coeffs, decisions)
        diag = bias_diagnostic(sim.dataset, sim.truth, nuisances, decisions)
    except (ValueError, FloatingPointError) as exc:
        return _failure(exc)
    return {
        "metrics": asdict(metrics),
        "estimate": asdict(est),
        "theta": policy.to_dict()["theta"],
        "best_epoch": trace.best_epoch,
        "objective": trace.best_objective,
        "bias_diagnostic": float(diag),
    }


def _check_methods(methods: tuple[str, ...]) -> tuple[str, ...]:
    """``methods`` as a tuple, refused when empty or when one is unknown or repeated."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("no methods given")
    unknown = [m for m in methods if m not in DEFAULT_METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}; choose from {','.join(DEFAULT_METHODS)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"duplicate methods: {repeated}")
    return methods


def run_replication(config: ExperimentConfig, replication: int, methods: tuple[str, ...] = DEFAULT_METHODS) -> dict:
    """Run one generate / fit / learn / evaluate cycle.

    Returns a JSON-ready dict. A failure in a shared step (generation or
    nuisance fitting) fails the whole replication; a failure of one method's
    coefficients, learning or evaluation is recorded for that method only.
    """
    methods = _check_methods(methods)
    (record,) = _run_replications(config, range(replication, replication + 1), methods)
    return record


def _succeeded(record: dict, method: str) -> bool:
    """Whether ``method`` ran to completion in a replication record."""
    entry = record.get("methods", {}).get(method)
    return bool(entry) and "error" not in entry


def _series(records: list[dict], method: str, path: tuple[str, str], paired: str | None = None) -> np.ndarray:
    """The value at ``path`` in ``method``'s entry of each record where it succeeded.

    One row; with ``paired``, a second row of that method's values, over the
    records where both succeeded.
    """
    both = (method,) if paired is None else (method, paired)
    kept = [rec for rec in records if all(_succeeded(rec, m) for m in both)]
    return np.array([[rec["methods"][m][path[0]][path[1]] for rec in kept] for m in both], dtype=float)


def _summary(values: np.ndarray) -> dict:
    return {
        "mean": float(values.mean()) if values.size else None,
        "sd": float(values.std(ddof=1)) if values.size > 1 else None,
    }


def _t_test(a: np.ndarray, b: np.ndarray) -> dict | None:
    """The paired t-test of ``a`` against ``b`` as a report entry; None below two pairs."""
    if a.size < 2:
        return None
    result = asdict(paired_t_test(a, b))
    return {**result, "t_stat": None if np.isnan(result["t_stat"]) else result["t_stat"]}


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated table over replications, JSON- and CSV-serializable."""

    config: dict
    methods: tuple[str, ...]
    replications: list[dict]
    aggregates: dict
    relative_improvement: dict
    paired_t_tests: dict
    completed: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def run_table(
    config: ExperimentConfig,
    replications: int,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    workers: int = 1,
) -> ExperimentReport:
    """Replicate the full pipeline and aggregate per-method metrics.

    Aggregates (mean, sd), relative improvement against the direct baseline
    and paired t-tests against it are recomputable from the per-replication
    rows. Parallel execution changes nothing but wall time.
    """
    if replications < 2:
        raise ValueError("need at least two replications")
    methods = _check_methods(methods)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    if workers > 1:
        # each worker builds and learns a contiguous chunk of replications
        chunks = min(workers, replications)
        bounds = [replications * c // chunks for c in range(chunks + 1)]
        ranges = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk_records = pool.map(_run_replications, repeat(config), ranges, repeat(methods))
            records = [record for chunk in chunk_records for record in chunk]
    else:
        records = _run_replications(config, range(replications), methods)

    # the key path of each aggregate in a method's record entry
    paths = {**{metric: ("metrics", metric) for metric in METRIC_NAMES}, "estimated_reward": ("estimate", "value")}
    aggregates = {
        method: {name: _summary(_series(records, method, path)[0]) for name, path in paths.items()} for method in methods
    }
    completed = {method: _series(records, method, paths["estimated_reward"]).shape[1] for method in methods}
    relative, t_tests = {}, {}
    baseline = "direct"
    if baseline in methods:
        for method in methods:
            if method == baseline:
                continue
            relative[method], t_tests[method] = {}, {}
            for metric in METRIC_NAMES:
                base, this = aggregates[baseline][metric]["mean"], aggregates[method][metric]["mean"]
                relative[method][metric] = None if not base or this is None else float((this - base) / base)
                t_tests[method][metric] = _t_test(*_series(records, method, paths[metric], baseline))

    return ExperimentReport(
        config={**config.to_dict(), "replications": replications},
        methods=methods,
        replications=records,
        aggregates=aggregates,
        relative_improvement=relative,
        paired_t_tests=t_tests,
        completed=completed,
    )


def write_table_csv(report: ExperimentReport, path: str | Path) -> None:
    """Long-format per-replication metric rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "method", "metric", "value"])
        for rec in report.replications:
            for method in report.methods:
                if not _succeeded(rec, method):
                    continue
                metrics = rec["methods"][method]["metrics"]
                for metric in METRIC_NAMES:
                    writer.writerow([rec["replication"], method, metric, repr(metrics[metric])])


SWEEP_KINDS = ("shift", "treatment")


def run_sweep(
    kind: str,
    grid: tuple[float, ...],
    config: ExperimentConfig,
    replications: int,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    workers: int = 1,
) -> list[tuple[float, ExperimentReport]]:
    """Run the table at each grid point of a robustness sweep.

    ``shift`` varies the distance between the domain means along the default
    displacement pattern; ``treatment`` varies the coefficient of the
    treatment-assignment mechanism.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"kind must be one of {SWEEP_KINDS}")
    if not grid:
        raise ValueError("grid must be nonempty")
    if len(set(grid)) < len(grid):
        raise ValueError(f"grid values must be distinct, got {grid}")
    # every point's config is built, and so checked, before any table runs
    points = [
        (float(v), shift_sweep_config(config.sim, v) if kind == "shift" else replace(config.sim, beta_treatment=float(v)))
        for v in grid
    ]
    return [(value, run_table(replace(config, sim=sim), replications, methods, workers)) for value, sim in points]


def write_sweep_csv(results: list[tuple[float, ExperimentReport]], path: str | Path) -> None:
    """Plot-ready long format: one row per (grid value, method, metric)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_value", "method", "metric", "mean", "sd"])
        for value, report in results:
            for method in report.methods:
                for metric in METRIC_NAMES:
                    agg = report.aggregates[method][metric]
                    summary = ["" if agg[key] is None else repr(agg[key]) for key in ("mean", "sd")]
                    writer.writerow([repr(value), method, metric, *summary])
