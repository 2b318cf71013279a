import csv
import json
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from policyshift import (
    ExperimentConfig,
    LearnerConfig,
    NuisanceConfig,
    SimConfig,
    evaluate_policy,
    fit_nuisances,
    generate,
    learn_policy,
    reward_coefficients,
    run_replication,
    run_sweep,
    run_table,
    write_sweep_csv,
    write_table_csv,
)
from policyshift import harness, nuisance
from policyshift.features import FeatureMap
from policyshift.harness import METRIC_NAMES
from policyshift.nuisance import FitError
from policyshift.policy import LinearPolicy

from reference import SurfaceOracle


def small_config(seed=0, **sim_kwargs):
    sim = SimConfig(n_source=48, n_target=96, seed=seed, **sim_kwargs)
    return ExperimentConfig(sim=sim, learner=LearnerConfig(max_epochs=12, batch_size=48))


def test_null_policy_metrics():
    sim = generate(SimConfig(n_source=32, n_target=64, seed=1))
    never = LinearPolicy(theta=np.array([-1.0, 0.0, 0.0, 0.0]), fmap=FeatureMap("raw", 3))
    metrics = evaluate_policy(never, sim)
    tgt = sim.dataset.target_mask
    assert metrics.true_reward == pytest.approx(sim.y0[tgt].mean(), rel=1e-12)
    assert metrics.welfare_change == 0.0
    assert evaluate_policy(never, sim, welfare_scope="target").welfare_change == 0.0


def test_oracle_policy_has_zero_regret():
    sim = generate(SimConfig(n_source=32, n_target=64, seed=2))
    metrics = evaluate_policy(SurfaceOracle(), sim)
    assert metrics.regret == 0.0
    assert metrics.policy_error == 0.0


def test_the_complement_of_the_oracle_disagrees_on_every_target_row():
    sim = generate(SimConfig(n_source=32, n_target=64, seed=2))
    assert evaluate_policy(SurfaceOracle(sign=-1.0), sim).policy_error == 1.0


def test_welfare_scope_changes_the_sum():
    sim = generate(SimConfig(n_source=32, n_target=64, seed=3))
    always = LinearPolicy(theta=np.array([1.0, 0.0, 0.0, 0.0]), fmap=FeatureMap("raw", 3))
    all_rows = evaluate_policy(always, sim, welfare_scope="all").welfare_change
    target_rows = evaluate_policy(always, sim, welfare_scope="target").welfare_change
    effect = sim.y1 - sim.y0
    assert all_rows == pytest.approx(float(effect.sum()), rel=1e-12)
    assert target_rows == pytest.approx(float(effect[sim.dataset.target_mask].sum()), rel=1e-12)
    assert all_rows != target_rows
    with pytest.raises(ValueError, match="welfare_scope"):
        evaluate_policy(always, sim, welfare_scope="source")


def test_run_replication_records_all_methods():
    record = run_replication(small_config(seed=5), replication=3)
    assert record["seed"] == 8
    assert set(record["methods"]) == {"direct", "ipw", "se"}
    for entry in record["methods"].values():
        assert set(entry["metrics"]) == set(METRIC_NAMES)
        assert len(entry["theta"]) == 4
    assert set(record["nuisance_coefficients"]) == {"mu0", "mu1", "e1", "s"}


def test_a_method_entry_keeps_the_summary_of_learn_policy_run_alone_on_its_replication():
    config = small_config(seed=61)
    for record in run_table(config, replications=2).replications:
        sim = generate(replace(config.sim, seed=record["seed"]))
        nuisances = fit_nuisances(sim.dataset, config.nuisance)
        for method, entry in record["methods"].items():
            assert set(entry) == {"metrics", "estimate", "theta", "best_epoch", "objective", "bias_diagnostic"}
            coeffs = reward_coefficients(sim.dataset, nuisances, method, "r")
            policy, trace = learn_policy(coeffs, sim.dataset.covariates, config.learner, seed=record["seed"])
            assert (entry["objective"], entry["best_epoch"]) == (trace.best_objective, trace.best_epoch)
            assert entry["theta"] == policy.theta.tolist()


# a non-default value of every option of a replication's config, keyed "section.name"
OPTION_VALUES = {
    "sim.n_source": 48,
    "sim.n_target": 96,
    "sim.mu_source": (10.5, 3.0, 7.0),
    "sim.mu_target": (9.0, 4.5, 6.0),
    "sim.cov_source": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "sim.cov_target": ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)),
    "sim.beta_treatment": 0.5,
    "sim.noise_sd": 2.0,
    "sim.seed": 1_000,
    "nuisance.outcome_map": "quadratic",
    "nuisance.propensity_map": "quadratic",
    "nuisance.sampling_map": "raw",
    "nuisance.outcome_ridge": 1.0,
    "nuisance.logistic_ridge": 1.0,
    "nuisance.clip": 0.2,
    "nuisance.folds": 2,
    "learner.feature_map": "quadratic",
    "learner.batch_size": 16,
    "learner.step_size": 0.5,
    "learner.max_epochs": 3,
    "welfare_scope": "target",
}
GUARD_CONFIG = ExperimentConfig(
    sim=SimConfig(n_source=64, n_target=128, seed=70), learner=LearnerConfig(max_epochs=5, batch_size=32)
)


def test_the_option_guard_covers_every_option():
    options = set()
    for f in fields(ExperimentConfig):
        value = getattr(GUARD_CONFIG, f.name)
        options |= {f"{f.name}.{g.name}" for g in fields(value)} if is_dataclass(value) else {f.name}
    assert set(OPTION_VALUES) == options


@pytest.fixture(scope="module")
def guard_records():
    return replication_json(run_table(GUARD_CONFIG, replications=2))


# an option that a table ignores would leave these records as they are
@pytest.mark.parametrize("option", list(OPTION_VALUES))
def test_every_option_moves_a_tables_records(guard_records, option):
    section, _, name = option.partition(".")
    value = replace(getattr(GUARD_CONFIG, section), **{name: OPTION_VALUES[option]}) if name else OPTION_VALUES[option]
    config = replace(GUARD_CONFIG, **{section: value})
    assert replication_json(run_table(config, replications=2)) != guard_records


def test_a_method_with_non_finite_coefficients_fails_alone(monkeypatch):
    config = small_config(seed=5)
    clean = run_replication(config, replication=3)
    build = harness.reward_coefficients

    def nan_for_ipw(dataset, nuisances, method, estimand):
        coeffs = build(dataset, nuisances, method, estimand)
        return replace(coeffs, a=np.full(coeffs.n, np.nan)) if method == "ipw" else coeffs

    monkeypatch.setattr(harness, "reward_coefficients", nan_for_ipw)
    record = run_replication(config, replication=3)
    assert record["methods"]["ipw"] == {"error": "FloatingPointError: non-finite policy gradient; check reward coefficients"}
    for method in ("direct", "se"):
        assert json.dumps(record["methods"][method]) == json.dumps(clean["methods"][method])


def test_shared_learner_errors_are_recorded_for_every_method(monkeypatch):
    too_big = replace(small_config(seed=5), learner=LearnerConfig(max_epochs=2, batch_size=10_000))
    record = run_replication(too_big, replication=0)
    assert record["methods"] == {m: {"error": "ValueError: batch_size must lie in [1, n]"} for m in ("direct", "ipw", "se")}
    build = harness.reward_coefficients

    def truncated(dataset, nuisances, method, estimand):
        coeffs = build(dataset, nuisances, method, estimand)
        return replace(coeffs, a=coeffs.a[1:], b=coeffs.b[1:])

    monkeypatch.setattr(harness, "reward_coefficients", truncated)
    record = run_replication(small_config(seed=5), replication=0)
    expected = {"error": "ValueError: coefficients and covariates are not aligned"}
    assert record["methods"] == {m: expected for m in ("direct", "ipw", "se")}


def test_run_table_aggregates_are_recomputable():
    report = run_table(small_config(seed=9), replications=3)
    for method in report.methods:
        (series,) = harness._series(report.replications, method, ("metrics", "true_reward"))
        assert len(series) == report.completed[method] == 3
        agg = report.aggregates[method]["true_reward"]
        assert agg["mean"] == pytest.approx(float(series.mean()), rel=0, abs=0)
        assert agg["sd"] == pytest.approx(float(series.std(ddof=1)), rel=0, abs=0)
    # relative improvement follows (method - direct) / direct exactly
    direct_mean = report.aggregates["direct"]["true_reward"]["mean"]
    for method in ("ipw", "se"):
        expected = (report.aggregates[method]["true_reward"]["mean"] - direct_mean) / direct_mean
        assert report.relative_improvement[method]["true_reward"] == pytest.approx(expected, rel=0, abs=0)
        assert set(report.paired_t_tests[method]) == set(METRIC_NAMES)
        assert 0.0 <= report.paired_t_tests[method]["true_reward"]["p_value"] <= 1.0


def test_run_table_is_deterministic_and_worker_invariant():
    config = small_config(seed=21)
    first = run_table(config, replications=3).to_json()
    second = run_table(config, replications=3).to_json()
    assert first == second
    parallel = run_table(config, replications=3, workers=4).to_json()
    assert parallel == first


def test_run_table_single_method_has_no_baseline_comparisons():
    report = run_table(small_config(seed=11), replications=2, methods=("direct",))
    assert report.relative_improvement == {}
    assert report.paired_t_tests == {}


def test_run_table_validates_inputs():
    with pytest.raises(ValueError, match="replications"):
        run_table(small_config(), replications=1)
    with pytest.raises(ValueError, match="unknown methods"):
        run_table(small_config(), replications=2, methods=("direct", "magic"))


def test_run_table_refuses_no_methods_repeated_methods_and_workers_below_1():
    with pytest.raises(ValueError, match="no methods given"):
        run_table(small_config(), replications=2, methods=())
    with pytest.raises(ValueError, match=r"duplicate methods: \['se'\]"):
        run_table(small_config(), replications=2, methods=("se", "direct", "se"))
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_table(small_config(), replications=2, workers=workers)


@pytest.mark.parametrize(
    "methods, named",
    [(("direct", "bogus"), "unknown methods"), (("se", "se"), r"duplicate methods: \['se'\]"), ((), "no methods given")],
)
def test_run_replication_refuses_the_methods_run_table_refuses(monkeypatch, methods, named):
    monkeypatch.setattr(harness, "_run_replications", lambda *args: pytest.fail("a replication ran"))
    with pytest.raises(ValueError, match=named):
        run_replication(small_config(), 0, methods)
    with pytest.raises(ValueError, match=named):
        run_table(small_config(), replications=2, methods=methods)


def test_a_repeated_sweep_point_is_refused_before_any_table_runs(monkeypatch):
    tables = []
    monkeypatch.setattr(harness, "run_table", lambda *args, **kwargs: tables.append(args))
    with pytest.raises(ValueError, match="grid values must be distinct"):
        run_sweep("treatment", (1.0, 0.0, 1), small_config(), replications=2)
    assert tables == []


def test_failed_replication_is_recorded_not_raised():
    # 3 source rows cannot support the default outcome maps
    config = ExperimentConfig(sim=SimConfig(n_source=3, n_target=16, seed=1), learner=LearnerConfig(max_epochs=2, batch_size=8))
    report = run_table(config, replications=2)
    assert all("error" in rec for rec in report.replications)
    assert report.completed == {"direct": 0, "ipw": 0, "se": 0}
    assert report.aggregates["se"]["true_reward"]["mean"] is None


def test_shift_sweep_at_zero_equals_no_shift_table():
    config = small_config(seed=13)
    sweep = run_sweep("shift", (0.0,), config, replications=2)
    assert len(sweep) == 1 and sweep[0][0] == 0.0
    from dataclasses import replace

    no_shift = replace(config, sim=replace(config.sim, mu_target=config.sim.mu_source))
    table = run_table(no_shift, replications=2)
    assert sweep[0][1].aggregates == table.aggregates


def test_treatment_sweep_at_zero_equals_default_table():
    config = small_config(seed=14)
    sweep = run_sweep("treatment", (0.0,), config, replications=2)
    assert sweep[0][1].aggregates == run_table(config, replications=2).aggregates


def test_sweep_csv_row_count(tmp_path):
    config = small_config(seed=15)
    results = run_sweep("shift", (0.0, 1.0), config, replications=2)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(results, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) - 1 == 2 * 3 * len(METRIC_NAMES)


def test_sweep_validates_inputs():
    with pytest.raises(ValueError, match="kind"):
        run_sweep("noise", (0.0,), small_config(), replications=2)
    with pytest.raises(ValueError, match="grid"):
        run_sweep("shift", (), small_config(), replications=2)


@pytest.mark.parametrize("kind, bad", [("shift", float("nan")), ("shift", float("inf")), ("treatment", float("inf"))])
def test_a_non_finite_sweep_point_is_refused_before_any_table_runs(monkeypatch, kind, bad):
    tables = []
    monkeypatch.setattr(harness, "run_table", lambda *args, **kwargs: tables.append(args))
    with pytest.raises(ValueError, match="finite"):
        run_sweep(kind, (0.0, bad), small_config(), replications=2)
    assert tables == []


def test_table_csv_long_format(tmp_path):
    report = run_table(small_config(seed=16), replications=2)
    path = tmp_path / "table.csv"
    write_table_csv(report, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "replication,method,metric,value"
    assert len(lines) - 1 == 2 * 3 * len(METRIC_NAMES)


def test_table_csv_skips_the_rows_of_a_failed_method(tmp_path, monkeypatch):
    config = small_config(seed=16)
    build, tag = harness.reward_coefficients, covariate_tag(config, 1)

    def fail_ipw_of_replication_1(dataset, nuisances, method, estimand):
        if method == "ipw" and dataset.covariates[0, 0] == tag:
            raise FitError("injected failure")
        return build(dataset, nuisances, method, estimand)

    monkeypatch.setattr(harness, "reward_coefficients", fail_ipw_of_replication_1)
    report = run_table(config, replications=2)
    path = tmp_path / "table.csv"
    write_table_csv(report, path)
    with path.open(encoding="utf-8", newline="") as fh:
        rows = [(int(row["replication"]), row["method"]) for row in csv.DictReader(fh)]
    expected = [(r, m) for r in (0, 1) for m in ("direct", "ipw", "se") if (r, m) != (1, "ipw")]
    assert rows == [key for key in expected for _ in METRIC_NAMES]


def test_an_evaluation_failure_is_recorded_for_that_method_alone(monkeypatch):
    config = small_config(seed=5)
    clean = run_replication(config, replication=3)
    diagnose, calls = harness.bias_diagnostic, []

    def fail_the_second_call(*args):
        calls.append(1)
        if len(calls) == 2:  # the methods are evaluated in order, so this is ipw's
            raise FloatingPointError("injected failure")
        return diagnose(*args)

    monkeypatch.setattr(harness, "bias_diagnostic", fail_the_second_call)
    record = run_replication(config, replication=3)
    assert list(record["methods"]) == ["direct", "ipw", "se"]
    assert record["methods"]["ipw"] == {"error": "FloatingPointError: injected failure"}
    for method in ("direct", "se"):
        assert json.dumps(record["methods"][method]) == json.dumps(clean["methods"][method])


def test_config_round_trips_through_dict():
    config = ExperimentConfig(
        sim=SimConfig(
            n_source=10,
            n_target=20,
            seed=3,
            beta_treatment=0.2,
            mu_source=(1.5, -2.0, 0.25),
            mu_target=(3.0, 4.0, -6.5),
            cov_source=((2.0, 0.5, 0.0), (0.5, 1.0, 0.1), (0.0, 0.1, 3.0)),
            cov_target=((1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.25)),
        ),
        nuisance=NuisanceConfig(outcome_map="quadratic", clip=0.02),
        learner=LearnerConfig(max_epochs=7, step_size=0.1),
        welfare_scope="target",
    )
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    with pytest.raises(ValueError, match="unknown config sections"):
        ExperimentConfig.from_dict({"simulation": {}})
    with pytest.raises(ValueError, match="welfare_scope must be one of"):
        ExperimentConfig(welfare_scope="everything")
    # JSON integers for int fields (an integral float too) and any number for float fields
    learner = ExperimentConfig.from_dict({"learner": {"max_epochs": 7.0, "step_size": 1}}).learner
    assert learner == LearnerConfig(max_epochs=7, step_size=1.0)
    assert type(learner.max_epochs) is int and type(learner.step_size) is float


def test_run_table_records_are_the_run_replication_records_for_any_worker_count():
    config = small_config(seed=31)
    report = run_table(config, replications=5)
    alone = [run_replication(config, r) for r in range(5)]
    assert json.dumps(report.replications, sort_keys=True) == json.dumps(alone, sort_keys=True)
    for workers in (2, 3):
        assert run_table(config, replications=5, workers=workers).to_json() == report.to_json()


def replication_json(report):
    return [json.dumps(rec, sort_keys=True) for rec in report.replications]


def covariate_tag(config, replication):
    """The first covariate of a replication's dataset, which tells the datasets of a table apart."""
    return generate(replace(config.sim, seed=config.sim.seed + replication)).dataset.covariates[0, 0]


def test_a_failed_replication_leaves_the_batch_and_moves_no_other(monkeypatch):
    config = small_config(seed=41)
    clean = replication_json(run_table(config, replications=4))
    fit, tag = harness.fit_nuisances, covariate_tag(config, 2)

    def fail_on_replication_2(dataset, nuisance_config):
        if dataset.covariates[0, 0] == tag:
            raise FitError("injected failure")
        return fit(dataset, nuisance_config)

    monkeypatch.setattr(harness, "fit_nuisances", fail_on_replication_2)
    records = replication_json(run_table(config, replications=4))
    assert json.loads(records[2]) == {"replication": 2, "seed": 43, "error": "FitError: injected failure"}
    assert records[:2] + records[3:] == clean[:2] + clean[3:]


def test_a_crossfit_replication_whose_full_data_fit_fails_is_recorded_as_failed(monkeypatch):
    # the full-data models of a cross-fitted set are fitted on first use, in
    # staging; their error still fails the replication, with the same record
    config = replace(small_config(seed=41), nuisance=NuisanceConfig(folds=5))
    clean = replication_json(run_table(config, replications=4))
    fit, tag, n = nuisance.fit_logistic, covariate_tag(config, 2), config.sim.n_source + config.sim.n_target

    def fail_on_the_full_rows_of_replication_2(features, *args, **kwargs):
        if len(features) == n and features[0, 0] == tag:
            raise FitError("injected failure")
        return fit(features, *args, **kwargs)

    monkeypatch.setattr(nuisance, "fit_logistic", fail_on_the_full_rows_of_replication_2)
    records = replication_json(run_table(config, replications=4))
    assert json.loads(records[2]) == {"replication": 2, "seed": 43, "error": "FitError: injected failure"}
    assert records[:2] + records[3:] == clean[:2] + clean[3:]


@pytest.mark.parametrize("failure", ["coefficients", "non-finite"])
def test_a_method_failing_in_one_replication_moves_nothing_else(monkeypatch, failure):
    config = small_config(seed=51)
    clean = run_table(config, replications=4).replications
    build, tag = harness.reward_coefficients, covariate_tag(config, 1)

    def break_ipw_of_replication_1(dataset, nuisances, method, estimand):
        coeffs = build(dataset, nuisances, method, estimand)
        if method != "ipw" or dataset.covariates[0, 0] != tag:
            return coeffs
        if failure == "coefficients":
            raise FitError("injected failure")
        return replace(coeffs, a=np.full(coeffs.n, np.nan))

    monkeypatch.setattr(harness, "reward_coefficients", break_ipw_of_replication_1)
    records = run_table(config, replications=4).replications
    expected = "FitError: injected failure" if failure == "coefficients" else (
        "FloatingPointError: non-finite policy gradient; check reward coefficients")
    assert records[1]["methods"]["ipw"] == {"error": expected}
    records[1]["methods"]["ipw"] = clean[1]["methods"]["ipw"]
    assert json.dumps(records, sort_keys=True) == json.dumps(clean, sort_keys=True)


def test_a_batch_size_beyond_the_rows_fails_every_method_of_every_replication():
    config = replace(small_config(seed=5), learner=LearnerConfig(max_epochs=2, batch_size=10_000))
    report = run_table(config, replications=3)
    error = {"error": "ValueError: batch_size must lie in [1, n]"}
    assert [rec["methods"] for rec in report.replications] == [dict.fromkeys(("direct", "ipw", "se"), error)] * 3
