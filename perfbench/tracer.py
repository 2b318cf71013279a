"""In-memory span tracer for policyshift, installed from outside the package.

A traced op wraps the package's public functions at the module attribute
where the calling code looks them up (``harness.learn_policy``,
``cli.ingest_csv``, ``NuisanceSet.values`` and so on). Each wrapper appends a
span (name, start, end, parent, op id, counts) to a list held by the tracer;
nothing is written while ops run. Leaving the tracer's ``with`` block puts
every original attribute back, so untraced ops time unwrapped code.

Self time is a span's duration minus the part of its interval that its child
spans cover, so a layer that calls another layer (``NuisanceSet.values``
recursing into its fold models, ``learn_policy`` calling
``FeatureMap.expand``) is not charged twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


# Counters read a call's bound arguments and result and return extra counts
# for its span.


def _count_learn(args: dict, result) -> dict:
    coeffs, config = args["coeffs"], args["config"]
    if config is None:
        from policyshift.policy import LearnerConfig

        config = LearnerConfig()
    return {
        "steps": config.max_epochs * math.ceil(coeffs.n / config.batch_size),
        "best_epoch": result[1].best_epoch,
        "max_epochs": config.max_epochs,
    }


def _count_rows_of_dataset(args: dict, result) -> dict:
    return {"dataset_rows": result.dataset.n}


def _count_ingest(args: dict, result) -> dict:
    return {"dataset_rows": result.n, "bytes": os.path.getsize(args["path"])}


def _count_values(args: dict, result) -> dict:
    return {"rows": len(result.mu0)}


def _count_expand(args: dict, result) -> dict:
    return {"rows": result.shape[0]}


def _count_draws(args: dict, result) -> dict:
    return {"draws": args["n_draws"]}


def _count_report(args: dict, result) -> dict:
    failed = sum(
        "error" in rec or any("error" in entry for entry in rec["methods"].values()) for rec in result.replications
    )
    return {"failed_replications": failed}


def _count_bytes(args: dict, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute where callers look it up, span name, counter)
SITES = (
    # what the replication_table workload and run_table/run_replication call
    ("harness", "run_table", "harness.run_table", _count_report),
    ("harness", "run_replication", "harness.run_replication", None),
    ("harness", "generate", "simulate.generate", _count_rows_of_dataset),
    ("harness", "fit_nuisances", "nuisance.fit_nuisances", None),
    ("harness", "reward_coefficients", "estimators.reward_coefficients", None),
    ("harness", "learn_policy", "policy.learn_policy", _count_learn),
    ("harness", "evaluate_policy", "harness.evaluate_policy", None),
    ("harness", "estimate", "estimators.estimate", None),
    ("harness", "bias_diagnostic", "estimators.bias_diagnostic", None),
    ("harness", "generalization_bound", "estimators.generalization_bound", None),
    ("harness", "paired_t_test", "stats.paired_t_test", None),
    ("harness", "ExperimentReport.to_json", "harness.to_json", _count_bytes),
    # what the csv_policy workload and the learn/estimate subcommands call
    ("cli", "main", "cli.main", None),
    ("cli", "ingest_csv", "data.ingest_csv", _count_ingest),
    ("cli", "fit_nuisances", "nuisance.fit_nuisances", None),
    ("cli", "reward_coefficients", "estimators.reward_coefficients", None),
    ("cli", "learn_policy", "policy.learn_policy", _count_learn),
    ("cli", "estimate_reward", "estimators.estimate", None),
    # what the estimator_mc workload calls, and calls inside the layers
    ("simulate", "generate", "simulate.generate", _count_rows_of_dataset),
    ("simulate", "population_reward", "simulate.population_reward", _count_draws),
    ("nuisance", "fit_nuisances", "nuisance.fit_nuisances", None),
    ("nuisance", "fit_ridge", "nuisance.fit_ridge", None),
    ("nuisance", "fit_logistic", "nuisance.fit_logistic", None),
    ("nuisance", "NuisanceSet.values", "nuisance.values", _count_values),
    ("estimators", "reward_coefficients", "estimators.reward_coefficients", None),
    ("estimators", "estimate", "estimators.estimate", None),
    ("estimators", "bias_diagnostic", "estimators.bias_diagnostic", None),
    ("estimators", "generalization_bound", "estimators.generalization_bound", None),
    ("features", "FeatureMap.expand", "features.expand", _count_expand),
    ("data", "write_csv", "data.write_csv", None),
)


def _resolve(module_name: str, attr: str) -> tuple[object, str]:
    """The object holding the attribute (module or class) and its last name."""
    owner: object = importlib.import_module(f"policyshift.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans while installed; ``with tracer.op(i):`` traces op ``i``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def op(self, op_id: int) -> "Tracer":
        self._op = op_id
        return self

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span_name, counter in SITES:
                owner, name = _resolve(module_name, attr)
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(span_name, original, counter))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, span_name: str, fn, counter):
        signature = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), span_name, 0.0, 0.0, stack[-1] if stack else None, self._op)
            spans.append(span)
            stack.append(span.sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def write(self, path: Path, header: dict) -> None:
        """Write ``header`` then the spans as JSON lines; called once, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's clipped intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span.sid] if c.end > span.start
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, summed self time and summed counts.

    ``nuisance.values`` rows are summed over outermost calls only: the fold
    recursion re-routes the same rows, so counting nested calls would charge
    them twice.
    """
    selfs = self_times(spans)
    by_sid = {span.sid: span for span in spans}
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        t = totals[span.name]
        t.calls += 1
        t.self_s += selfs[span.sid]
        nested = span.parent is not None and by_sid[span.parent].name == span.name
        if not nested:
            for key, value in span.counts.items():
                t.counts[key] += value
    return totals


def _per_op(name: str, field_name: str):
    def metric(totals: dict[str, LayerTotals], ops: int) -> float:
        t = totals.get(name, LayerTotals())
        if field_name == "calls":
            value = t.calls
        elif field_name == "self_s":
            value = t.self_s
        else:
            value = t.counts.get(field_name, 0.0)
        return value / ops

    return metric


def _ratio(num: tuple[str, str], den: tuple[str, str], scale: float = 1.0):
    def metric(totals: dict[str, LayerTotals], ops: int) -> float:
        d = _per_op(*den)(totals, ops)
        return scale * _per_op(*num)(totals, ops) / d if d else 0.0

    return metric


def _values_rows_per_dataset_row(totals: dict[str, LayerTotals], ops: int) -> float:
    rows = sum(_per_op(name, "dataset_rows")(totals, ops) for name in ("simulate.generate", "data.ingest_csv"))
    return _per_op("nuisance.values", "rows")(totals, ops) / rows if rows else 0.0


_UNITS = {"calls": "1/op", "self_s": "s/op", "rows": "rows/op", "bytes": "B/op", "steps": "steps/op", "draws": "draws/op"}


def _per_op_layer(name: str, *fields: str) -> list:
    return [(f"{name}.{f}", _UNITS[f], _per_op(name, f)) for f in fields]


# Per-layer metrics of a traced run: (name, unit, function of totals and op
# count). ``op.traced_s`` and the ``trace.*`` pair are filled in by run.py.
LAYER_METRICS = (
    _per_op_layer("policy.learn_policy", "calls", "self_s", "steps")
    + [
        ("policy.step_us", "us", _ratio(("policy.learn_policy", "self_s"), ("policy.learn_policy", "steps"), 1e6)),
        (
            "policy.useful_epoch_ratio",
            "ratio",
            _ratio(("policy.learn_policy", "best_epoch"), ("policy.learn_policy", "max_epochs")),
        ),
    ]
    + _per_op_layer("simulate.population_reward", "calls", "self_s", "draws")
    + _per_op_layer("simulate.generate", "calls", "self_s")
    + _per_op_layer("nuisance.fit_nuisances", "calls", "self_s")
    + _per_op_layer("nuisance.fit_logistic", "calls", "self_s")
    + _per_op_layer("nuisance.fit_ridge", "calls", "self_s")
    + _per_op_layer("nuisance.values", "calls", "rows", "self_s")
    + [("nuisance.values.rows_per_dataset_row", "ratio", _values_rows_per_dataset_row)]
    + _per_op_layer("estimators.reward_coefficients", "calls", "self_s")
    + _per_op_layer("estimators.estimate", "calls", "self_s")
    + _per_op_layer("estimators.bias_diagnostic", "calls", "self_s")
    + _per_op_layer("estimators.generalization_bound", "calls", "self_s")
    + _per_op_layer("features.expand", "calls", "rows", "self_s")
    + _per_op_layer("data.ingest_csv", "calls", "self_s", "bytes")
    + _per_op_layer("cli.main", "calls", "self_s")
    + _per_op_layer("harness.run_table", "self_s")
    + _per_op_layer("harness.run_replication", "self_s")
    + _per_op_layer("harness.evaluate_policy", "self_s")
    + [
        ("harness.to_json_s", "s/op", _per_op("harness.to_json", "self_s")),
        ("harness.report_bytes", "B/op", _per_op("harness.to_json", "bytes")),
        ("harness.failed_replications", "1/op", _per_op("harness.run_table", "failed_replications")),
    ]
    + _per_op_layer("stats.paired_t_test", "calls", "self_s")
)
