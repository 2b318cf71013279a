"""Replication studies: single runs, aggregated tables and robustness sweeps.

Every replication draws a fresh simulated dataset (seed = base seed +
replication index), fits one shared set of nuisance models, then learns and
evaluates a policy per estimation method. Results are collected in
replication order regardless of worker scheduling, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .estimators import RewardEstimate, bias_diagnostic, estimate, generalization_bound, reward_coefficients
from .features import FeatureMap
from .nuisance import FitError, NuisanceConfig, fit_nuisances
from .policy import LearnerConfig, LinearPolicy, OraclePolicy, learn_policy, policy_error
from .simulate import SimConfig, SimulatedData, generate, shift_sweep_config
from .stats import paired_t_test

DEFAULT_METHODS = ("direct", "ipw", "se")
METRIC_NAMES = ("true_reward", "regret", "policy_error", "welfare_change")
WELFARE_SCOPES = ("all", "target")
BOUND_ETA = 0.05


@dataclass(frozen=True)
class EvalMetrics:
    """Ground-truth evaluation of one learned policy on simulated data."""

    true_reward: float
    regret: float
    policy_error: float
    welfare_change: float

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}


def evaluate_policy(policy: LinearPolicy | OraclePolicy, sim: SimulatedData, welfare_scope: str = "all") -> EvalMetrics:
    """Score a policy against the oracle using the attached potential outcomes.

    True reward and policy error average over target rows; the welfare change
    sums the captured treatment effect over all rows by default
    (``welfare_scope="target"`` restricts it to target rows).
    """
    if welfare_scope not in WELFARE_SCOPES:
        raise ValueError(f"welfare_scope must be one of {WELFARE_SCOPES}")
    dataset, potential = sim.dataset, sim.potential
    tgt = dataset.target_mask
    decisions = policy.decide(dataset.covariates)
    oracle_decisions = sim.oracle.decide(dataset.covariates)

    y1_t, y0_t = potential.y1[tgt], potential.y0[tgt]
    d_t, o_t = decisions[tgt], oracle_decisions[tgt]
    true_reward = float(np.mean(d_t * y1_t + (1.0 - d_t) * y0_t))
    oracle_reward = float(np.mean(o_t * y1_t + (1.0 - o_t) * y0_t))
    perr = float(np.mean((o_t - d_t) ** 2))

    effect = potential.effect
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
    """Everything a replication needs: generator, nuisances and learner."""

    sim: SimConfig = field(default_factory=SimConfig)
    nuisance: NuisanceConfig = field(default_factory=NuisanceConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    welfare_scope: str = "all"

    def to_dict(self) -> dict:
        return {
            "sim": self.sim.to_dict(),
            "nuisance": asdict(self.nuisance),
            "learner": asdict(self.learner),
            "welfare_scope": self.welfare_scope,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {"sim", "nuisance", "learner", "welfare_scope"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        return cls(
            sim=SimConfig.from_dict(payload.get("sim", {})),
            nuisance=NuisanceConfig(**payload.get("nuisance", {})),
            learner=LearnerConfig(**payload.get("learner", {})),
            welfare_scope=payload.get("welfare_scope", "all"),
        )


def _estimate_to_dict(est: RewardEstimate) -> dict:
    return {
        "value": float(est.value),
        "std_error": float(est.std_error),
        "ci_low": float(est.ci_low),
        "ci_high": float(est.ci_high),
    }


def run_replication(config: ExperimentConfig, replication: int, methods: tuple[str, ...] = DEFAULT_METHODS) -> dict:
    """Run one generate / fit / learn / evaluate cycle.

    Returns a JSON-ready dict. A failure in a shared stage (generation or
    nuisance fitting) fails the whole replication; a failure inside one
    method's stage is recorded for that method only.
    """
    seed = config.sim.seed + replication
    record: dict = {"replication": replication, "seed": seed}
    try:
        sim = generate(replace(config.sim, seed=seed))
        nuisances = fit_nuisances(sim.dataset, config.nuisance)
    except (FitError, ValueError, np.linalg.LinAlgError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    record["nuisance_coefficients"] = nuisances.coefficients()
    record["methods"] = {}
    learner = replace(config.learner, seed=seed)
    # finite-class size for the bound: grid discretization of the policy class
    policy_class_size = 10 ** FeatureMap(config.learner.feature_map, sim.dataset.p).p_out
    for method in methods:
        try:
            coeffs = reward_coefficients(sim.dataset, nuisances, method, "r")
            policy, trace = learn_policy(coeffs, sim.dataset.covariates, learner)
            metrics = evaluate_policy(policy, sim, config.welfare_scope)
            decisions = policy.decide(sim.dataset.covariates)
            est = estimate(coeffs, decisions)
            diag = bias_diagnostic(sim.dataset, sim.truth, nuisances, decisions)
            bound = generalization_bound(sim.dataset, nuisances, BOUND_ETA, policy_class_size, bias=diag)
            record["methods"][method] = {
                "metrics": metrics.to_dict(),
                "estimate": _estimate_to_dict(est),
                "theta": [float(t) for t in policy.theta],
                "best_epoch": trace.best_epoch,
                "objective_trace": [float(o) for o in trace.objectives],
                "bias_diagnostic": float(diag),
                "bound_term": float(bound.bound_term),
            }
        except (FitError, ValueError, FloatingPointError) as exc:
            record["methods"][method] = {"error": f"{type(exc).__name__}: {exc}"}
    return record


def _succeeded(record: dict, method: str) -> bool:
    """Whether ``method`` ran to completion in a replication record."""
    entry = record.get("methods", {}).get(method)
    return bool(entry) and "error" not in entry


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

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "methods": list(self.methods),
            "completed": self.completed,
            "aggregates": self.aggregates,
            "relative_improvement": self.relative_improvement,
            "paired_t_tests": self.paired_t_tests,
            "replications": self.replications,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def metric_series(self, method: str, metric: str) -> np.ndarray:
        values = [rec["methods"][method]["metrics"][metric] for rec in self.replications if _succeeded(rec, method)]
        return np.asarray(values, dtype=float)


def _worker(args: tuple[ExperimentConfig, int, tuple[str, ...]]) -> dict:
    config, replication, methods = args
    return run_replication(config, replication, methods)


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
    unknown = [m for m in methods if m not in DEFAULT_METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    jobs = [(config, r, tuple(methods)) for r in range(replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_worker, jobs))
    else:
        records = [_worker(job) for job in jobs]

    aggregates: dict = {}
    completed: dict = {}
    for method in methods:
        series = {metric: [] for metric in METRIC_NAMES}
        estimates = []
        for rec in records:
            if not _succeeded(rec, method):
                continue
            entry = rec["methods"][method]
            for metric in METRIC_NAMES:
                series[metric].append(entry["metrics"][metric])
            estimates.append(entry["estimate"]["value"])
        completed[method] = len(estimates)
        agg = {}
        for metric in METRIC_NAMES:
            vals = np.asarray(series[metric], dtype=float)
            agg[metric] = {
                "mean": float(vals.mean()) if vals.size else None,
                "sd": float(vals.std(ddof=1)) if vals.size > 1 else None,
            }
        vals = np.asarray(estimates, dtype=float)
        agg["estimated_reward"] = {
            "mean": float(vals.mean()) if vals.size else None,
            "sd": float(vals.std(ddof=1)) if vals.size > 1 else None,
        }
        aggregates[method] = agg

    relative = {}
    t_tests = {}
    baseline = "direct"
    if baseline in methods:
        for method in methods:
            if method == baseline:
                continue
            rel = {}
            for metric in METRIC_NAMES:
                base = aggregates[baseline][metric]["mean"]
                this = aggregates[method][metric]["mean"]
                rel[metric] = None if not base or this is None else float((this - base) / base)
            relative[method] = rel
            tests = {}
            for metric in METRIC_NAMES:
                pairs = [
                    (
                        rec["methods"][method]["metrics"][metric],
                        rec["methods"][baseline]["metrics"][metric],
                    )
                    for rec in records
                    if _succeeded(rec, method) and _succeeded(rec, baseline)
                ]
                if len(pairs) < 2:
                    tests[metric] = None
                    continue
                a, b = np.asarray(pairs, dtype=float).T
                result = paired_t_test(a, b)
                tests[metric] = {
                    "t_stat": None if np.isnan(result.t_stat) else float(result.t_stat),
                    "p_value": float(result.p_value),
                    "df": result.df,
                    "mean_difference": float(result.mean_difference),
                    "degenerate": result.degenerate,
                }
            t_tests[method] = tests

    return ExperimentReport(
        config={**config.to_dict(), "replications": replications},
        methods=tuple(methods),
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
    results = []
    for value in grid:
        if kind == "shift":
            sim = shift_sweep_config(config.sim, value)
        else:
            sim = replace(config.sim, beta_treatment=float(value))
        point_config = replace(config, sim=sim)
        results.append((float(value), run_table(point_config, replications, methods, workers)))
    return results


def write_sweep_csv(results: list[tuple[float, ExperimentReport]], path: str | Path) -> None:
    """Plot-ready long format: one row per (grid value, method, metric)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_value", "method", "metric", "mean", "sd"])
        for value, report in results:
            for method in report.methods:
                for metric in METRIC_NAMES:
                    agg = report.aggregates[method][metric]
                    writer.writerow(
                        [
                            repr(value),
                            method,
                            metric,
                            "" if agg["mean"] is None else repr(agg["mean"]),
                            "" if agg["sd"] is None else repr(agg["sd"]),
                        ]
                    )
