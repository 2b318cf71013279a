import argparse
import csv
import json
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from policyshift import cli, ingest_csv
from policyshift.cli import build_parser, main

SMALL_CONFIG = {
    "sim": {"n_source": 48, "n_target": 96, "seed": 4},
    "learner": {"max_epochs": 10, "batch_size": 48},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    return str(path)


def test_simulate_writes_data_and_truth(tmp_path):
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**SMALL_CONFIG, "sim": {**SMALL_CONFIG["sim"], "seed": 9}}), encoding="utf-8")
    rc = main(["simulate", "--config", str(config_path), "--out-data", str(data), "--out-truth", str(truth)])
    assert rc == 0
    ds = ingest_csv(data)
    assert ds.n_source == 48 and ds.n_target == 96
    with truth.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header[:2] == ["y1", "y0"] and len(rows) == ds.n


def test_table_report_and_determinism(tmp_path, config_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    csv_path = tmp_path / "per_rep.csv"
    rc = main(["table", "--config", config_path, "--reps", "3", "--out", str(out1), "--out-csv", str(csv_path)])
    assert rc == 0
    rc = main(["table", "--config", config_path, "--reps", "3", "--out", str(out2), "--workers", "3"])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text(encoding="utf-8"))
    assert report["config"]["replications"] == 3
    vals = [rec["methods"]["se"]["metrics"]["true_reward"] for rec in report["replications"]]
    assert report["aggregates"]["se"]["true_reward"]["mean"] == pytest.approx(float(np.mean(vals)), abs=0)
    assert csv_path.exists()


def test_table_welfare_scope_key(tmp_path, config_path):
    out_all, out_tgt = tmp_path / "a.json", tmp_path / "t.json"
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps({**SMALL_CONFIG, "welfare_scope": "target"}), encoding="utf-8")
    assert main(["table", "--config", config_path, "--reps", "2", "--out", str(out_all)]) == 0
    assert main(["table", "--config", str(target_path), "--reps", "2", "--out", str(out_tgt)]) == 0
    a = json.loads(out_all.read_text(encoding="utf-8"))
    t = json.loads(out_tgt.read_text(encoding="utf-8"))
    assert a["aggregates"]["se"]["welfare_change"]["mean"] != t["aggregates"]["se"]["welfare_change"]["mean"]


def test_sweep_csv(tmp_path, config_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--kind", "treatment", "--grid", "0,0.1", "--config", config_path, "--reps", "2", "--out-csv", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "grid_value,method,metric,mean,sd"
    assert len(lines) - 1 == 2 * 3 * 4


def test_learn_then_estimate_round_trip(tmp_path, config_path):
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", config_path, "--out-data", str(data)]) == 0
    policy_path = tmp_path / "policy.json"
    rc = main(["learn", "--data", str(data), "--method", "se", "--config", config_path, "--out-policy", str(policy_path)])
    assert rc == 0
    payload = json.loads(policy_path.read_text(encoding="utf-8"))
    assert len(payload["policy"]["theta"]) == 4 and payload["method"] == "se"

    for estimand in ("r", "v"):
        out = tmp_path / f"est_{estimand}.json"
        rc = main(
            ["estimate", "--data", str(data), "--policy", str(policy_path), "--method", "se", "--estimand", estimand, "--out", str(out)]
        )
        assert rc == 0
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["ci_low"] <= result["value"] <= result["ci_high"]
        assert result["estimand"] == estimand


def test_estimate_writes_a_finite_std_error_when_the_influence_squares_would_overflow(tmp_path):
    rng = np.random.default_rng(1)
    data, policy, out = tmp_path / "data.csv", tmp_path / "policy.json", tmp_path / "est.json"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "g", "a", "y"])
        for i, x in enumerate(rng.normal(size=(400, 2))):
            labels = [int(rng.integers(2)), repr(float(1e160 * rng.normal()))] if i < 100 else ["", ""]
            writer.writerow([repr(float(x[0])), repr(float(x[1])), int(i < 100), *labels])
    policy.write_text(json.dumps({"theta": [0.1, 0.2, -0.3], "feature_map": "raw", "p_in": 2}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(["estimate", "--data", str(data), "--policy", str(policy), "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    result = json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)
    assert result["std_error"] > 0 and result["ci_low"] <= result["value"] <= result["ci_high"]


def test_learn_seeds_the_mini_batch_order_and_defaults_to_0(tmp_path, config_path):
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", config_path, "--out-data", str(data)]) == 0
    policies = {}
    for seed in (None, "0", "7"):
        out = tmp_path / f"policy_{seed}.json"
        argv = ["learn", "--data", str(data), "--config", config_path, "--out-policy", str(out)]
        assert main(argv + ([] if seed is None else ["--seed", seed])) == 0
        policies[seed] = out.read_bytes()
    assert policies[None] == policies["0"] != policies["7"]


def test_learn_refuses_a_negative_seed_before_any_work(tmp_path, config_path, capsys, monkeypatch):
    data, out = tmp_path / "data.csv", tmp_path / "policy.json"
    assert main(["simulate", "--config", config_path, "--out-data", str(data)]) == 0
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("fit_nuisances was called")

    monkeypatch.setattr(cli, "fit_nuisances", refuse)
    assert main(["learn", "--data", str(data), "--config", config_path, "--seed", "-1", "--out-policy", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("theta", [[float("nan"), 1.0, 1.0, 1.0], [1.0, float("inf"), 1.0, 1.0], [[1.0], [0.0], [0.0], [0.0]]])
def test_estimate_refuses_a_policy_whose_theta_is_not_a_finite_vector(tmp_path, config_path, capsys, theta):
    data, policy, out = tmp_path / "data.csv", tmp_path / "policy.json", tmp_path / "est.json"
    assert main(["simulate", "--config", config_path, "--out-data", str(data)]) == 0
    policy.write_text(json.dumps({"theta": theta, "feature_map": "raw", "p_in": 3}), encoding="utf-8")
    assert main(["estimate", "--data", str(data), "--policy", str(policy), "--out", str(out)]) == 2
    assert "'theta'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, named",
    [
        ([1, 2, 3], "missing ['theta', 'feature_map', 'p_in']"),
        ({"policy": 5}, "missing ['theta', 'feature_map', 'p_in']"),
        (None, "missing ['theta', 'feature_map', 'p_in']"),
        ({"theta": [1, 2, 3, 4], "feature_map": "raw"}, "missing ['p_in']"),
    ],
    ids=["list", "number-under-policy", "null", "no-p_in"],
)
def test_estimate_refuses_a_malformed_policy_file_before_reading_the_data(tmp_path, capsys, monkeypatch, body, named):
    policy, out = tmp_path / "policy.json", tmp_path / "est.json"
    policy.write_text(json.dumps(body), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("the data was read")

    monkeypatch.setattr(cli, "ingest_csv", refuse)
    assert main(["estimate", "--data", str(tmp_path / "data.csv"), "--policy", str(policy), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a policy must be a JSON object with keys theta, feature_map and p_in") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, named",
    [({"theta": {"a": 1}}, "theta"), ({"p_in": None}, "'p_in'"), ({"p_in": "3"}, "'p_in'"), ({"feature_map": 2}, "'feature_map'")],
    ids=["theta-object", "p_in-null", "p_in-string", "feature_map-number"],
)
def test_estimate_refuses_a_policy_value_of_the_wrong_json_type_before_reading_the_data(
    tmp_path, capsys, monkeypatch, changes, named
):
    policy, out = tmp_path / "policy.json", tmp_path / "est.json"
    policy.write_text(json.dumps({"theta": [0.1, 0.2, 0.3, 0.4], "feature_map": "raw", "p_in": 3} | changes), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("the data was read")

    monkeypatch.setattr(cli, "ingest_csv", refuse)
    assert main(["estimate", "--data", str(tmp_path / "data.csv"), "--policy", str(policy), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: policy") and named in err
    assert not out.exists()


def test_estimate_refuses_a_policy_of_the_wrong_width_before_any_nuisance_fit(tmp_path, config_path, capsys, monkeypatch):
    data, policy, out = tmp_path / "data.csv", tmp_path / "policy.json", tmp_path / "est.json"
    assert main(["simulate", "--config", config_path, "--out-data", str(data)]) == 0
    capsys.readouterr()
    policy.write_text(json.dumps({"theta": [0.0, 1.0, 0.0], "feature_map": "raw", "p_in": 2}), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("fit_nuisances was called")

    monkeypatch.setattr(cli, "fit_nuisances", refuse)
    assert main(["estimate", "--data", str(data), "--policy", str(policy), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the policy takes 2 covariates, but {data} has 3\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["direct", "ipw"])
def test_estimate_refuses_an_estimator_that_does_not_exist_before_reading_the_data(tmp_path, capsys, monkeypatch, method):
    policy, out = tmp_path / "policy.json", tmp_path / "est.json"
    policy.write_text(json.dumps({"theta": [0.1, 0.2, 0.3, 0.4], "feature_map": "raw", "p_in": 3}), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("the data was read or a nuisance fitted")

    monkeypatch.setattr(cli, "ingest_csv", refuse)
    monkeypatch.setattr(cli, "fit_nuisances", refuse)
    argv = ["estimate", "--data", str(tmp_path / "data.csv"), "--policy", str(policy), "--method", method, "--estimand", "v"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no estimator for kind={method!r}, estimand='v'\n"
    assert not out.exists()


@pytest.mark.parametrize("header, row", [(f"x{'9' * 200_000},g,a,y", "1.0,1,1,2.5"), ("x1,g,a,y", f"1.0,1,1,{'9' * 200_000}")], ids=["header", "row"])
def test_learn_reports_a_field_beyond_the_csv_limit_as_an_error(tmp_path, capsys, header, row):
    data, out = tmp_path / "data.csv", tmp_path / "policy.json"
    data.write_text(f"{header}\n{row}\n2.0,0,,\n", encoding="utf-8")
    assert main(["learn", "--data", str(data), "--out-policy", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "field larger than field limit (131072)" in err
    assert not out.exists()


def test_learn_refuses_a_csv_without_a_covariate_column(tmp_path, capsys):
    data, out = tmp_path / "data.csv", tmp_path / "policy.json"
    data.write_text("g,a,y\n1,1,2.5\n1,0,1.5\n0,,\n", encoding="utf-8")
    assert main(["learn", "--data", str(data), "--out-policy", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: no covariate column") and not out.exists()


def test_learn_and_estimate_accept_a_constant_covariate_column(tmp_path, config_path):
    simulated, data = tmp_path / "simulated.csv", tmp_path / "data.csv"
    policy, out = tmp_path / "policy.json", tmp_path / "est.json"
    assert main(["simulate", "--config", config_path, "--out-data", str(simulated)]) == 0
    with simulated.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with data.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["c", *rows[0]], *(["0.1", *row] for row in rows[1:])])
    assert main(["learn", "--data", str(data), "--config", config_path, "--out-policy", str(policy)]) == 0
    theta = json.loads(policy.read_text(encoding="utf-8"))["policy"]["theta"]
    assert len(theta) == 5 and theta[1] == 0.0  # after the intercept
    assert main(["estimate", "--data", str(data), "--policy", str(policy), "--config", config_path, "--out", str(out)]) == 0


def test_errors_exit_nonzero(tmp_path, config_path, capsys):
    assert main(["table", "--config", config_path, "--reps", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["learn", "--data", str(tmp_path / "missing.csv"), "--out-policy", str(tmp_path / "p.json")]) == 2
    assert main(["table", "--config", config_path, "--reps", "2", "--methods", "direct,magic", "--out", str(tmp_path / "y.json")]) == 2


def write_source_target_csv(path, source_outcomes, n_target):
    rng = np.random.default_rng(0)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "x1", "x2", "a", "y"])
        writer.writerows([1, *rng.normal(size=2), i % 2, y] for i, y in enumerate(source_outcomes))
        writer.writerows([0, *rng.normal(size=2), "", ""] for _ in range(n_target))


def test_learn_and_estimate_refuse_outcomes_whose_ridge_fit_overflows(tmp_path, capsys):
    data, policy = tmp_path / "data.csv", tmp_path / "policy.json"
    out_policy, out = tmp_path / "learned.json", tmp_path / "est.json"
    write_source_target_csv(data, np.random.default_rng(1).uniform(1e307, 1.7e308, size=100), 300)
    policy.write_text(json.dumps({"theta": [0.0, 1.0, 0.0], "feature_map": "raw", "p_in": 2}), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["learn", "--data", str(data), "--out-policy", str(out_policy)]) == 2
        assert "overflow" in capsys.readouterr().err
        assert main(["estimate", "--data", str(data), "--policy", str(policy), "--out", str(out)]) == 2
        assert "overflow" in capsys.readouterr().err
    assert not out_policy.exists() and not out.exists()


def test_learn_and_estimate_refuse_outcomes_whose_se_coefficients_overflow(tmp_path, capsys):
    data, policy = tmp_path / "data.csv", tmp_path / "policy.json"
    out_policy, out = tmp_path / "learned.json", tmp_path / "est.json"
    write_source_target_csv(data, 1e307 * np.random.default_rng(1).normal(size=100), 300)
    policy.write_text(json.dumps({"theta": [0.0, 1.0, 0.0], "feature_map": "raw", "p_in": 2}), encoding="utf-8")
    error = "error: se reward coefficients for r overflow; rescale the outcomes\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        assert main(["learn", "--data", str(data), "--out-policy", str(out_policy)]) == 2
        assert capsys.readouterr().err == error
        assert main(["estimate", "--data", str(data), "--policy", str(policy), "--out", str(out)]) == 2
        assert capsys.readouterr().err == error
    assert not out_policy.exists() and not out.exists()


def test_learn_reports_a_non_finite_policy_gradient_as_an_error(tmp_path, config_path, capsys, monkeypatch):
    data, out = tmp_path / "data.csv", tmp_path / "policy.json"
    assert main(["simulate", "--config", config_path, "--out-data", str(data)]) == 0
    capsys.readouterr()

    def huge_gains(*args):
        coeffs = reward_coefficients(*args)
        return replace(coeffs, a=np.full(coeffs.n, 1e308))  # finite gains whose batch gradient is not

    reward_coefficients = cli.reward_coefficients
    monkeypatch.setattr(cli, "reward_coefficients", huge_gains)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["learn", "--data", str(data), "--config", config_path, "--out-policy", str(out)]) == 2
    assert capsys.readouterr().err == "error: non-finite policy gradient; check reward coefficients\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["table", "--methods", "se,se"], "duplicate methods: ['se']"),
        (["table", "--methods", ","], "no methods given"),
        (["table", "--workers", "0"], "workers must be at least 1"),
        (["table", "--workers", "-5"], "workers must be at least 1"),
        (["sweep", "--kind", "shift", "--grid", "nan"], "grid values must be finite"),
        (["sweep", "--kind", "treatment", "--grid", "0,inf"], "grid values must be finite"),
        (["sweep", "--kind", "shift", "--grid", "0,1", "--methods", "ipw,se,ipw"], "duplicate methods: ['ipw']"),
        (["sweep", "--kind", "treatment", "--grid", "1,1"], "grid values must be distinct"),
        (["sweep", "--kind", "shift", "--grid", "0,abc"], "cannot parse grid '0,abc'; expected comma-separated numbers"),
    ],
)
def test_misused_table_and_sweep_options_exit_2_and_write_nothing(tmp_path, config_path, capsys, argv, named):
    out = ["--out", str(tmp_path / "r.json")] if argv[0] == "table" else ["--out-csv", str(tmp_path / "r.csv")]
    assert main(argv + ["--config", config_path, "--reps", "2"] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("nuisance", "max_iter", 5),
        ("nuisance", "tol", 1e-6),
        ("learner", "epochs", 10),
        ("learner", "temperature", 0.5),
        ("learner", "anneal_to", 0.05),
        ("learner", "standardize", False),
        ("learner", "seed", 12_345),
        ("sim", "n_rows", 10),
        ("sim", "shared_noise", False),
    ],
)
def test_unknown_config_keys_exit_2_and_name_the_key(tmp_path, capsys, section, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL_CONFIG, section: {**SMALL_CONFIG.get(section, {}), key: value}}), encoding="utf-8")
    assert main(["table", "--config", str(path), "--reps", "2", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    if section != "sim":
        assert f"unknown {section} options" in err
    assert not (tmp_path / "r.json").exists()


# every one of these is refused while loading the config, before any replication runs
@pytest.mark.parametrize(
    "payload, named",
    [
        ({"nuisance": {"folds": "5"}}, "folds"),
        ({"nuisance": {"clip": False}}, "clip"),
        ({"nuisance": {"outcome_map": 1}}, "outcome_map"),
        ({"learner": {"max_epochs": "5"}}, "max_epochs"),
        ({"learner": {"batch_size": 16.5}}, "batch_size"),
        ({"learner": {"step_size": True}}, "step_size"),
        ({"learner": {"step_size": float("nan")}}, "step_size"),
        ({"sim": {"noise_sd": None}}, "noise_sd"),
        ({"sim": {"noise_sd": float("inf")}}, "noise_sd"),
        ({"sim": {"beta_treatment": "0.5"}}, "beta_treatment"),
        ({"sim": {"mu_source": [10.0, "3", 7.0]}}, "mu_source"),
        ({"sim": {"cov_target": 2.0}}, "cov_target"),
        ({"learner": 5}, "learner"),
        (["sim"], "JSON object"),
        ({"welfare_scope": "everything"}, "welfare_scope"),
        # out of range or of the wrong shape, though of the right JSON type
        ({"sim": {"mu_source": [1.0, 2.0]}}, "mu_source"),
        ({"sim": {"mu_target": [9.0, 4.0, 6.0, 1.0]}}, "mu_target"),
        ({"sim": {"cov_source": [[1.0, 0.0], [0.0, 1.0]]}}, "cov_source"),
        ({"sim": {"cov_target": [[2.0, 0.0, 0.0], [0.0, 2.0]]}}, "cov_target"),
        ({"learner": {"max_epochs": -3}}, "max_epochs"),
        ({"learner": {"batch_size": 0}}, "batch_size"),
        ({"learner": {"step_size": 0}}, "step_size"),
        ({"learner": {"step_size": -0.5}}, "step_size"),
        ({"nuisance": {"folds": 0}}, "folds"),
        ({"nuisance": {"outcome_ridge": -1e-4}}, "outcome_ridge"),
        ({"nuisance": {"logistic_ridge": -1}}, "logistic_ridge"),
        ({"nuisance": {"clip": 0.7}}, "clip"),
        ({"nuisance": {"clip": 0.5}}, "clip"),
        ({"nuisance": {"clip": 0}}, "clip"),
        ({"nuisance": {"outcome_map": "bogus"}}, "outcome_map"),
        ({"learner": {"feature_map": "bogus"}}, "feature_map"),
        ({"sim": {"seed": -3, "n_source": 64, "n_target": 128}, "learner": {"max_epochs": 5, "batch_size": 32}}, "seed"),
        ({"learner": {"step_size": 10**400}}, "step_size"),  # an integer beyond the float range
    ],
)
def test_misconfigured_values_exit_2_and_name_the_key(tmp_path, capsys, payload, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["table", "--config", str(path), "--reps", "2", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "r.json").exists()


# Each subcommand's options, spelled out so that adding or dropping a flag is
# a deliberate edit of this table. A config key has no flag that repeats it.
CLI_OPTIONS = {
    "simulate": ["--config", "--out-data", "--out-truth"],
    "table": ["--config", "--methods", "--reps", "--workers", "--out", "--out-csv"],
    "sweep": ["--kind", "--grid", "--config", "--methods", "--reps", "--workers", "--out-csv"],
    "learn": ["--data", "--method", "--config", "--seed", "--out-policy"],
    "estimate": ["--data", "--policy", "--method", "--estimand", "--config", "--out"],
}


def test_cli_surface_is_the_pinned_table():
    parser = build_parser()
    assert [o for a in parser._actions if not isinstance(a, argparse._SubParsersAction) for o in a.option_strings] == [
        "-h",
        "--help",
    ]
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [o for a in sub._actions if not isinstance(a, argparse._HelpAction) for o in a.option_strings]
        for name, sub in commands.items()
    }
    assert options == CLI_OPTIONS


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    assert "config defaults" in text
    assert '"n_source": 512' in text and '"step_size": 0.05' in text


def test_console_script_is_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "policyshift.cli", "simulate", "--out-data", str(tmp_path / "d.csv"),
         "--config", str(tmp_path / "c.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # config file missing: clean error, not a traceback
    assert "error:" in proc.stderr
    (tmp_path / "c.json").write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "policyshift.cli", "simulate", "--out-data", str(tmp_path / "d.csv"),
         "--config", str(tmp_path / "c.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "wrote 144 rows" in proc.stdout
