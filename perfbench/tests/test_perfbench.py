"""Tests of the benchmark itself: span arithmetic, output checks, tracer hygiene.

    python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

import run
from tracer import SITES, Span, Tracer, _resolve, layer_totals, self_times
from workloads import WORKLOADS, mismatches

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _span(sid, name, start, end, parent, **counts):
    return Span(sid, name, start, end, parent, op=0, counts=counts)


def test_self_time_subtracts_children_including_nested_fold_recursion():
    spans = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "nuisance.fit_nuisances", 1.0, 5.0, 0),
        # cross-fitted values: the outer call recurses into one call per fold
        _span(2, "nuisance.values", 2.0, 4.0, 1, rows=100),
        _span(3, "nuisance.values", 2.0, 2.5, 2, rows=50),
        _span(4, "features.expand", 2.1, 2.2, 3, rows=50),
        _span(5, "nuisance.values", 3.0, 3.5, 2, rows=50),
        _span(6, "policy.learn_policy", 6.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 0.4, 4: 0.1, 5: 0.5, 6: 3.0})
    assert sum(selfs.values()) == pytest.approx(10.0)  # self times partition the root

    totals = layer_totals(spans)
    assert totals["nuisance.values"].calls == 3
    assert totals["nuisance.values"].self_s == pytest.approx(1.9)
    assert totals["nuisance.values"].counts["rows"] == 100  # fold calls re-route the same rows


def test_self_time_clips_children_to_the_parent_interval():
    spans = [_span(0, "a", 0.0, 1.0, None), _span(1, "b", 0.5, 1.5, 0), _span(2, "c", 0.6, 0.8, 0)]
    assert self_times(spans)[0] == pytest.approx(0.5)


def _one_op_reference(workload, inputs, key):
    observed = workload.observe(inputs, key, workload.op(inputs, key))
    fields = sorted(observed)
    return {"fields": fields, "outputs": {key: [observed[f] for f in fields]}}


@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    workload = WORKLOADS["estimator_mc"]
    inputs = workload.setup(np.random.default_rng(5), tmp_path_factory.mktemp("mc"))
    inputs.keys = inputs.keys[:1]
    return workload, inputs, _one_op_reference(workload, inputs, inputs.keys[0])


def test_recorded_reference_matches_the_code(mc):
    workload, inputs, _ = mc
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["estimator_mc"]
    assert inputs.keys[0] in reference["outputs"]
    assert run.measure(workload, inputs, reference, seconds=0.0)["failed"] == 0


@pytest.mark.parametrize("field", ["population_reward", "bias_diagnostic", "decisions"])
def test_perturbed_reference_value_is_a_failed_op(mc, field):
    workload, inputs, reference = mc
    values = list(reference["outputs"][inputs.keys[0]])
    i = reference["fields"].index(field)
    values[i] = "0" * 16 + ":0" if field == "decisions" else values[i] + 0.001
    perturbed = {"fields": reference["fields"], "outputs": {inputs.keys[0]: values}}
    result = run.measure(workload, inputs, perturbed, seconds=0.0)
    assert result["failed"] == 1
    assert run.end_to_end_metrics(result, setup_s=1.0)["ok_fraction"] == 0.0


def test_tolerance_admits_reordering_drift_and_rejects_printed_changes():
    ref = {"theta": [-10.3, 5.6, 4.0, -6.3], "true_reward": 488.72156365, "policy_error": 0.0825, "decisions": "ab:3"}
    drifted = dict(ref, theta=[t + 4e-11 for t in ref["theta"]], true_reward=ref["true_reward"] * (1 + 1e-12))
    assert mismatches(drifted, ref) == []
    assert mismatches(dict(ref, true_reward=488.725), ref)
    assert mismatches(dict(ref, policy_error=0.0830), ref)
    assert mismatches(dict(ref, decisions="ab:4"), ref)
    assert mismatches({k: v for k, v in ref.items() if k != "theta"}, ref)


def _site_attributes():
    owners = [_resolve(module, attr) for module, attr, _, _ in SITES]
    return [owner.__dict__[name] for owner, name in owners]


def test_wrappers_are_restored_after_tracing(mc):
    workload, inputs, reference = mc
    before = _site_attributes()
    tracer = Tracer()
    with tracer.op(0):
        during = _site_attributes()
        workload.op(inputs, inputs.keys[0])
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _site_attributes()))
    names = {span.name for span in tracer.spans}
    assert {"simulate.generate", "nuisance.fit_logistic", "nuisance.values", "simulate.population_reward"} <= names

    with pytest.raises(RuntimeError), tracer.op(1):
        raise RuntimeError("op failed")
    assert all(a is b for a, b in zip(before, _site_attributes()))


def test_traced_run_reports_every_layer_metric(mc):
    workload, inputs, reference = mc
    tracer = Tracer()
    result = run.measure(workload, inputs, reference, seconds=0.0, tracer=tracer)
    assert result["traced"] == [False, True] and result["failed"] == 0
    metrics = run.layer_metrics(result, tracer)
    assert set(metrics) == set(run.metric_units(trace=True))
    assert metrics["policy.learn_policy.calls"] == 0
    assert metrics["simulate.population_reward.draws"] == 200_000
    assert metrics["nuisance.fit_nuisances.calls"] == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.metric_units(trace=False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.metric_units(trace=True)
