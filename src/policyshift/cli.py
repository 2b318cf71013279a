"""Command-line harness.

Subcommands:
  simulate   draw one synthetic dataset and its ground-truth sidecar
  table      replicate the full pipeline and write an aggregated report
  sweep      run the table across a robustness grid (shift or treatment)
  learn      fit nuisances on a CSV dataset and learn a policy (real-data mode)
  estimate   evaluate a stored policy's reward on a CSV dataset

Config files are JSON with optional sections "sim", "nuisance", "learner" and
"welfare_scope"; omitted keys take the library defaults shown in --help.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import ingest_csv, write_csv
from .estimators import estimate as estimate_reward
from .estimators import reward_coefficients
from .harness import (
    DEFAULT_METHODS,
    ExperimentConfig,
    run_sweep,
    run_table,
    write_sweep_csv,
    write_table_csv,
)
from .nuisance import fit_nuisances
from .policy import LinearPolicy, learn_policy
from .simulate import generate, write_truth_csv


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return ExperimentConfig.from_dict(payload)


def _parse_methods(raw: str) -> tuple[str, ...]:
    """The comma-separated methods; ``run_table`` checks them."""
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def _parse_grid(raw: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in raw.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse grid {raw!r}; expected comma-separated numbers") from None
    if not np.isfinite(grid).all():
        raise ValueError(f"grid values must be finite, got {raw!r}")
    return grid


def _defaults_epilog() -> str:
    lines = [f"  {name}: {json.dumps(value, sort_keys=True)}" for name, value in ExperimentConfig().to_dict().items()]
    return "\n".join(["config defaults (JSON sections):", *lines])


def cmd_simulate(args: argparse.Namespace) -> int:
    sim = generate(_load_config(args.config).sim)
    write_csv(sim.dataset, args.out_data)
    if args.out_truth:
        write_truth_csv(sim, args.out_truth)
    print(f"wrote {sim.dataset.n} rows ({sim.dataset.n_source} source, {sim.dataset.n_target} target) to {args.out_data}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    methods = _parse_methods(args.methods)
    report = run_table(config, args.reps, methods, workers=args.workers)
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    if args.out_csv:
        write_table_csv(report, args.out_csv)
    for method in methods:
        agg = report.aggregates[method]
        mean = agg["true_reward"]["mean"]
        sd = agg["true_reward"]["sd"]
        perr = agg["policy_error"]["mean"]
        print(
            f"{method:>6}: reward mean {mean if mean is None else round(mean, 2)}"
            f" sd {sd if sd is None else round(sd, 2)}"
            f" policy error {perr if perr is None else round(perr, 4)}"
            f" completed {report.completed[method]}/{args.reps}"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    methods = _parse_methods(args.methods)
    grid = _parse_grid(args.grid)
    results = run_sweep(args.kind, grid, config, args.reps, methods, workers=args.workers)
    write_sweep_csv(results, args.out_csv)
    print(f"swept {args.kind} over {len(grid)} points x {args.reps} replications -> {args.out_csv}")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    config = _load_config(args.config)
    dataset = ingest_csv(args.data)
    nuisances = fit_nuisances(dataset, config.nuisance)
    coeffs = reward_coefficients(dataset, nuisances, args.method, "r")
    policy, trace = learn_policy(coeffs, dataset.covariates, config.learner, seed=args.seed)
    payload = {
        "policy": policy.to_dict(),
        "method": args.method,
        "best_epoch": trace.best_epoch,
        "objective": trace.best_objective,
        "n_rows": dataset.n,
    }
    Path(args.out_policy).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    treated = float(np.mean(policy.decide(dataset.covariates)))
    print(f"learned {args.method} policy; treats {treated:.1%} of the {dataset.n} training rows")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    payload = json.loads(Path(args.policy).read_text(encoding="utf-8"))
    policy = LinearPolicy.from_dict(payload["policy"] if type(payload) is dict and "policy" in payload else payload)
    dataset = ingest_csv(args.data)
    nuisances = fit_nuisances(dataset, config.nuisance)
    coeffs = reward_coefficients(dataset, nuisances, args.method, args.estimand)
    result = estimate_reward(coeffs, policy.decide(dataset.covariates))
    out = {**asdict(result), "method": args.method, "estimand": args.estimand, "n_rows": dataset.n}
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.method} estimate of {args.estimand}: {result.value:.4f} (95% CI {result.ci_low:.4f}, {result.ci_high:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyshift",
        description="Policy evaluation and learning across a labeled source domain and a covariate-only target domain.",
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset and truth sidecar")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-data", required=True, help="output dataset CSV")
    p.add_argument("--out-truth", help="output ground-truth sidecar CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table", help="run replications and aggregate a results table")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS), help="comma-separated subset of direct,ipw,se")
    p.add_argument("--reps", type=int, default=50, help="number of replications")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="output JSON report")
    p.add_argument("--out-csv", help="optional per-replication CSV")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sweep", help="run the table across a robustness grid")
    p.add_argument("--kind", required=True, choices=["shift", "treatment"])
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p.add_argument("--reps", type=int, default=20, help="replications per grid point")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", required=True, help="long-format output CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("learn", help="learn a policy from a CSV dataset (no ground truth needed)")
    p.add_argument("--data", required=True, help="input dataset CSV")
    p.add_argument("--method", default="se", choices=list(DEFAULT_METHODS))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0, help="nonnegative seed of the learner's mini-batch order")
    p.add_argument("--out-policy", required=True, help="output policy JSON")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("estimate", help="estimate a stored policy's reward on a CSV dataset")
    p.add_argument("--data", required=True, help="input dataset CSV")
    p.add_argument("--policy", required=True, help="policy JSON produced by `learn`")
    p.add_argument("--method", default="se", choices=list(DEFAULT_METHODS))
    p.add_argument("--estimand", default="r", choices=["r", "v"], help="target-domain (r) or entire-population (v) reward")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output JSON")
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
