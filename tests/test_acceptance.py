"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is exercised at its stated tolerance with fixed seeds, so the
suite is deterministic. Long replication studies run here, not in the unit
modules; the full file takes several minutes on one core.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from policyshift import (
    ExperimentConfig,
    ExperimentReport,
    FeatureMap,
    LearnerConfig,
    LinearPolicy,
    NuisanceSet,
    SimConfig,
    bias_diagnostic,
    estimate,
    generalization_bound,
    generate,
    learn_policy,
    paired_t_test,
    population_reward,
    reward_coefficients,
    run_sweep,
    run_table,
    sigmoid,
)
from policyshift.estimators import Z_95
from policyshift.nuisance import fit_nuisances
from policyshift.simulate import TRUTH_CLIP, feature_transform

from reference import (
    direct_r_reference,
    fixed_value_nuisances,
    ipw_r_reference,
    random_small_dataset,
    se_r_reference,
    se_v_reference,
)

FIXED_POLICY = LinearPolicy(theta=np.array([-2.0, 0.3, -0.5, 0.2]), fmap=FeatureMap("raw", 3))


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def shift_scores(truth: NuisanceSet, delta: float) -> NuisanceSet:
    """Perturb both score functions by a shift on the log-odds scale."""

    def shifted(fn):
        def wrapped(x):
            p = np.asarray(fn(x), dtype=float)
            return sigmoid(np.log(p / (1.0 - p)) + delta)

        return wrapped

    return NuisanceSet(mu0=truth.mu0, mu1=truth.mu1, e1=shifted(truth.e1), s=shifted(truth.s), clip=TRUTH_CLIP)


def shift_surfaces(truth: NuisanceSet, delta: float) -> NuisanceSet:
    def lifted(fn):
        return lambda x: np.asarray(fn(x), dtype=float) + delta

    return NuisanceSet(mu0=lifted(truth.mu0), mu1=lifted(truth.mu1), e1=truth.e1, s=truth.s, clip=TRUTH_CLIP)


def test_criterion_1_exact_formula_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        ds, vals, pi = random_small_dataset(rng, max_n=12)
        ns = fixed_value_nuisances(**vals)
        pairs = [
            (estimate(reward_coefficients(ds, ns, "direct", "r"), pi).value, direct_r_reference(ds, vals["mu0"], vals["mu1"], pi)),
            (estimate(reward_coefficients(ds, ns, "ipw", "r"), pi).value, ipw_r_reference(ds, vals["e1"], vals["s"], pi)),
            (
                estimate(reward_coefficients(ds, ns, "se", "r"), pi).value,
                se_r_reference(ds, vals["mu0"], vals["mu1"], vals["e1"], vals["s"], pi),
            ),
            (
                estimate(reward_coefficients(ds, ns, "se", "v"), pi).value,
                se_v_reference(ds, vals["mu0"], vals["mu1"], vals["e1"], vals["s"], pi),
            ),
        ]
        for mine, ref in pairs:
            worst = max(worst, abs(mine - ref) / max(1.0, abs(mine), abs(ref)))
    elapsed = time.perf_counter() - start
    ok = report("1", worst <= 1e-12 and elapsed < 1.0, f"worst relative error {worst:.2e}, {elapsed:.2f}s")
    assert ok


def _replication_estimates(config: SimConfig, reps: int):
    """Per-replication estimator values under the three misspecification settings."""
    rows = {k: [] for k in ("se_a", "ipw_a", "se_b", "direct_b", "se_joint", "prop3_joint", "diag_a", "diag_b")}
    for r in range(reps):
        sim = generate(replace(config, seed=config.seed + r))
        ds = sim.dataset
        pi = FIXED_POLICY.decide(ds.covariates)
        truth = sim.truth
        wrong_scores = shift_scores(truth, 0.5)
        wrong_surfaces = shift_surfaces(truth, 2.0)
        both_wrong = shift_surfaces(wrong_scores, 2.0)

        rows["se_a"].append(estimate(reward_coefficients(ds, wrong_scores, "se", "r"), pi).value)
        rows["ipw_a"].append(estimate(reward_coefficients(ds, wrong_scores, "ipw", "r"), pi).value)
        rows["se_b"].append(estimate(reward_coefficients(ds, wrong_surfaces, "se", "r"), pi).value)
        rows["direct_b"].append(estimate(reward_coefficients(ds, wrong_surfaces, "direct", "r"), pi).value)
        rows["se_joint"].append(estimate(reward_coefficients(ds, both_wrong, "se", "r"), pi).value)
        rows["prop3_joint"].append(bias_diagnostic(ds, truth, both_wrong, pi, signed=True))
        rows["diag_a"].append(bias_diagnostic(ds, truth, wrong_scores, pi))
        rows["diag_b"].append(bias_diagnostic(ds, truth, wrong_surfaces, pi))
    return {k: np.asarray(v) for k, v in rows.items()}


@pytest.fixture(scope="module")
def robustness_runs():
    config = SimConfig(n_source=200, n_target=800, seed=260_000)
    start = time.perf_counter()
    rows = _replication_estimates(config, reps=2000)
    elapsed = time.perf_counter() - start
    truth_value = population_reward(config, FIXED_POLICY, scope="target", n_draws=2_000_000, seed=9_090)
    return rows, truth_value, elapsed


def test_criterion_2_double_robustness(robustness_runs):
    rows, truth_value, elapsed = robustness_runs

    def bias_ratio(values):
        bias = values.mean() - truth_value
        mc_se = values.std(ddof=1) / np.sqrt(len(values))
        return abs(bias) / mc_se, bias

    se_a, _ = bias_ratio(rows["se_a"])
    ipw_a, ipw_bias = bias_ratio(rows["ipw_a"])
    se_b, _ = bias_ratio(rows["se_b"])
    dir_b, dir_bias = bias_ratio(rows["direct_b"])
    ok = report(
        "2",
        se_a < 3.0 and ipw_a > 3.0 and se_b < 3.0 and dir_b > 3.0 and elapsed < 120.0,
        f"(a) |bias|/MCSE se={se_a:.2f} ipw={ipw_a:.1f} (ipw bias {ipw_bias:+.1f}); "
        f"(b) se={se_b:.2f} direct={dir_b:.1f} (direct bias {dir_bias:+.2f}); {elapsed:.0f}s",
    )
    assert ok


def test_criterion_3_bias_identity(robustness_runs):
    rows, truth_value, _ = robustness_runs
    scale = max(1.0, abs(truth_value))
    exact_zero = float(np.max(rows["diag_a"])) <= 1e-12 * scale and float(np.max(rows["diag_b"])) <= 1e-12 * scale
    diff = rows["se_joint"] - truth_value - rows["prop3_joint"]
    mc_se = diff.std(ddof=1) / np.sqrt(len(diff))
    matched = abs(diff.mean()) < 3.0 * mc_se
    ok = report(
        "3",
        exact_zero and matched,
        f"max diag (a)={rows['diag_a'].max():.2e} (b)={rows['diag_b'].max():.2e}; "
        f"joint mean(SE-R)={rows['se_joint'].mean() - truth_value:+.3f} vs mean(prop3)={rows['prop3_joint'].mean():+.3f} "
        f"(paired gap {diff.mean():+.3f}, 3*MCSE {3 * mc_se:.3f})",
    )
    assert ok


def test_criterion_4_efficiency_and_coverage():
    config = SimConfig(n_source=800, n_target=3200, seed=471_000)
    truth_value = population_reward(config, FIXED_POLICY, scope="target", n_draws=2_000_000, seed=9_091)
    start = time.perf_counter()
    covered = 0
    se_values, ipw_values = [], []
    reps = 500
    for r in range(reps):
        sim = generate(replace(config, seed=config.seed + r))
        pi = FIXED_POLICY.decide(sim.dataset.covariates)
        se_est = estimate(reward_coefficients(sim.dataset, sim.truth, "se", "r"), pi)
        ipw_est = estimate(reward_coefficients(sim.dataset, sim.truth, "ipw", "r"), pi)
        se_values.append(se_est.value)
        ipw_values.append(ipw_est.value)
        covered += se_est.ci_low <= truth_value <= se_est.ci_high
    elapsed = time.perf_counter() - start
    coverage = covered / reps
    var_se = float(np.var(se_values, ddof=1))
    var_ipw = float(np.var(ipw_values, ddof=1))
    ok = report(
        "4",
        var_se <= var_ipw and 0.92 <= coverage <= 0.98 and elapsed < 180.0,
        f"coverage {coverage:.3f}, var(se) {var_se:.2f} <= var(ipw) {var_ipw:.1f}, {elapsed:.0f}s",
    )
    assert ok


@pytest.fixture(scope="module")
def full_scale_table():
    config = ExperimentConfig(welfare_scope="target")
    start = time.perf_counter()
    table = run_table(config, replications=50)
    return table, time.perf_counter() - start


def test_criterion_5_table_reproduction(full_scale_table):
    table, elapsed = full_scale_table
    mean = {m: table.aggregates[m]["true_reward"]["mean"] for m in table.methods}
    sd = {m: table.aggregates[m]["true_reward"]["sd"] for m in table.methods}
    perr = table.aggregates["se"]["policy_error"]["mean"]
    welfare = table.aggregates["se"]["welfare_change"]["mean"]

    # se must score strictly above both baselines. How ipw ranks against
    # direct is not asserted: the target covariance is twice the source
    # covariance, so the density ratio has infinite variance under the source
    # and only the score clip keeps the ipw weights finite.
    clauses = {
        "se reward highest": mean["se"] > max(mean["ipw"], mean["direct"]),
        "se reward in [480,500]": 480.0 <= mean["se"] <= 500.0,
        "se policy error < 0.15": perr < 0.15,
        "ipw reward sd largest": sd["ipw"] > max(sd["direct"], sd["se"]),
        "se target welfare in [280k,295k]": 280_000.0 <= welfare <= 295_000.0,
        "runtime < 600s": elapsed < 600.0,
    }
    detail = (
        f"reward direct={mean['direct']:.2f} ipw={mean['ipw']:.2f} se={mean['se']:.2f}; "
        f"sd direct={sd['direct']:.2f} ipw={sd['ipw']:.2f} se={sd['se']:.2f}; "
        f"se perr={perr:.3f}; se welfare={welfare:.0f}; {elapsed:.0f}s"
    )
    failed = [name for name, good in clauses.items() if not good]
    ok = report("5", not failed, detail + (f"; failed clauses: {failed}" if failed else ""))
    assert ok, f"failed clauses: {failed} ({detail})"


def test_criterion_6_generalization_bound_holds():
    rng = np.random.default_rng(42)
    thetas = rng.standard_normal((1000, 4))
    config = ExperimentConfig()
    held = 0
    reps = 200
    for r in range(reps):
        sim = generate(replace(config.sim, seed=600_000 + r))
        ds = sim.dataset
        nuisances = fit_nuisances(ds, config.nuisance)
        coeffs = reward_coefficients(ds, nuisances, "se", "r")
        decisions = (FeatureMap("raw", 3).expand(ds.covariates) @ thetas.T >= 0).astype(float)
        values = (decisions * coeffs.a[:, None] + coeffs.b[:, None]).mean(axis=0)
        best = int(np.argmax(values))
        chosen = LinearPolicy(theta=thetas[best], fmap=FeatureMap("raw", 3))
        estimated = float(values[best])
        true_reward = population_reward(config.sim, chosen, scope="target", n_draws=200_000, seed=9_092)
        pi = decisions[:, best]
        diag = bias_diagnostic(ds, sim.truth, nuisances, pi)
        bound = generalization_bound(ds, nuisances, eta=0.05, policy_class_size=1000, bias=diag)
        held += true_reward <= estimated + diag + bound.bound_term
    rate = held / reps
    ok = report("6", rate >= 0.95, f"bound held in {held}/{reps} replications ({rate:.3f})")
    assert ok


def _paired_series(table, metric, method, rival):
    """Per-replication metric values of two methods, over the replications where both succeeded."""
    pairs = [
        (rec["methods"][method]["metrics"][metric], rec["methods"][rival]["metrics"][metric])
        for rec in table.replications
        if "methods" in rec
        and "error" not in rec["methods"].get(method, {"error": True})
        and "error" not in rec["methods"].get(rival, {"error": True})
    ]
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def _se_loses(se_errors, rival_errors, level):
    """Whether se's policy error is significantly above the rival's, with the paired t-test.

    se loses when its mean paired gap is positive and the test rejects equality
    at ``level``. A positive gap whose differences have zero variance (reported
    as degenerate, with p = 1) is a loss too. A positive gap the test cannot
    tell from zero is a tie: with a few dozen replications the drawn seeds, not
    the method, decide which side of a tie the two means fall on.
    """
    test = paired_t_test(se_errors, rival_errors)
    return test.mean_difference > 0 and (test.degenerate or test.p_value < level), test


def _sweep_point(kind, value, table, rivals, level):
    """The detail line of one sweep point, with se's violations and ties against each rival.

    A method that never completed shows its mean as n/a. A rival with fewer
    than 2 paired replications cannot be tested, which counts as a violation,
    so no point is skipped silently.
    """
    means = {m: table.aggregates[m]["policy_error"]["mean"] for m in ("direct", "ipw", "se")}
    shown = " ".join(f"{m}={'n/a' if mean is None else f'{mean:.3f}'}" for m, mean in means.items())
    line = f"{kind}={value}: {shown} (n={min(table.completed.values())})"
    failures, ties = [], []
    for rival in rivals:
        se_errors, rival_errors = _paired_series(table, "policy_error", "se", rival)
        if len(se_errors) < 2:
            failures.append(f"{kind}@{value}: se vs {rival} has fewer than 2 paired replications")
            continue
        lost, test = _se_loses(se_errors, rival_errors, level)
        if test.mean_difference <= 0:
            continue
        gap_se = float((se_errors - rival_errors).std(ddof=1) / np.sqrt(len(se_errors)))
        (failures if lost else ties).append(
            f"{kind}@{value}: se vs {rival} paired gap {test.mean_difference:+.4f} "
            f"(se {gap_se:.4f}, t {test.t_stat:.2f}, p {test.p_value:.2g})"
        )
    return line, failures, ties


def test_criterion_7_sweep_point_reports_a_fully_failed_point():
    failed = {"replication": 0, "seed": 0, "error": "FitError: outcome model for arm 1: 2 source rows, need at least 4"}
    empty = {"policy_error": {"mean": None, "sd": None}}
    table = ExperimentReport(
        config={},
        methods=("direct", "ipw", "se"),
        replications=[failed, {**failed, "replication": 1, "seed": 1}],
        aggregates={m: empty for m in ("direct", "ipw", "se")},
        relative_improvement={},
        paired_t_tests={},
        completed={m: 0 for m in ("direct", "ipw", "se")},
    )
    line, failures, ties = _sweep_point("treatment", 1.0, table, ("direct", "ipw"), 0.05)
    assert line == "treatment=1.0: direct=n/a ipw=n/a se=n/a (n=0)"
    assert failures == [f"treatment@1.0: se vs {r} has fewer than 2 paired replications" for r in ("direct", "ipw")]
    assert ties == []


def test_criterion_7_loss_rule_on_synthetic_pairs():
    level = 0.05 / 18
    # binary fractions, so the constant differences have exactly zero variance
    rival = np.full(20, 0.125)
    alternating = np.tile([1.0, -1.0], 10)

    def gap_of(t_stat, mean_gap):
        # differences mean_gap + c * (+1, -1, ...) have t = mean_gap * sqrt(19) / c
        return rival + mean_gap + (mean_gap * np.sqrt(19) / t_stat) * alternating

    cases = {
        "significant positive gap": (gap_of(10.0, 0.02), True),
        "constant positive gap": (np.full(20, 0.25), True),
        "tie at t = 0.6": (gap_of(0.6, 0.0005), False),
        "negative gap": (gap_of(-10.0, -0.02), False),
        "constant negative gap": (np.full(20, 0.0625), False),
    }
    tests = {}
    for name, (se_errors, expected) in cases.items():
        tests[name] = _se_loses(se_errors, rival, level)
        lost, test = tests[name]
        assert lost == expected, f"{name}: t={test.t_stat}, p={test.p_value}, degenerate={test.degenerate}"
    assert tests["tie at t = 0.6"][1].t_stat == pytest.approx(0.6)
    assert tests["constant positive gap"][1].degenerate


def test_criterion_7_sweeps_keep_se_weakly_best():
    config = ExperimentConfig(sim=SimConfig(seed=700_000))
    sweeps = (
        ("shift", run_sweep("shift", (0.0, 1.0, 2.0, 3.0), config, replications=20)),
        ("treatment", run_sweep("treatment", (0.0, 0.25, 0.5, 0.75, 1.0), config, replications=20)),
    )
    rivals = ("direct", "ipw")
    # Bonferroni over every (grid point, rival) comparison made below
    level = 0.05 / sum(len(results) * len(rivals) for _, results in sweeps)
    failures, ties, lines = [], [], []
    for kind, results in sweeps:
        for value, table in results:
            line, point_failures, point_ties = _sweep_point(kind, value, table, rivals, level)
            lines.append(line)
            failures += point_failures
            ties += point_ties
    detail = "; ".join(lines) + f"; level {level:.2g}"
    if ties:
        detail += f"; not significant: {ties}"
    if failures:
        detail += f"; violations: {failures}"
    ok = report("7", not failures, detail)
    assert ok, failures


def test_criterion_8_learner_recovers_realizable_oracle():
    config = SimConfig(noise_sd=0.0, seed=800_000)
    sim = generate(config)
    ds = sim.dataset
    coeffs = reward_coefficients(ds, sim.truth, "se", "r")
    tgt = ds.target_mask
    v = sim.truth.values(ds.covariates)
    oracle_decisions = (v.mu1 - v.mu0 >= 0.0)[tgt]

    # (a) linear policy on the raw covariates: the oracle boundary is not in
    # this class, so the agreement is reported rather than presumed
    policy_a, _ = learn_policy(coeffs, ds.covariates, seed=1)
    agree_a = float(np.mean(policy_a.decide(ds.covariates[tgt]) == oracle_decisions))

    # (b) quadratic policy over the generator's transformed covariates: the
    # oracle boundary is exactly realizable in this class
    transformed = feature_transform(ds.covariates)
    coeffs_b = reward_coefficients(ds, sim.truth, "se", "r")
    policy_b, _ = learn_policy(coeffs_b, transformed, LearnerConfig(feature_map="quadratic"), seed=1)
    agree_b = float(np.mean(policy_b.decide(transformed[tgt]) == oracle_decisions))

    ok = report(
        "8",
        agree_b >= 0.90 and agree_a >= 0.90,
        f"agreement: realizable quadratic-on-transformed {agree_b:.3f}, raw-linear {agree_a:.3f} "
        f"(disagreement {1 - agree_a:.3f} reported)",
    )
    assert ok


def test_criterion_9_reports_are_byte_identical_across_workers():
    config = ExperimentConfig(
        sim=SimConfig(n_source=128, n_target=256, seed=900_000),
        learner=LearnerConfig(max_epochs=60),
    )
    serial = run_table(config, replications=4, workers=1).to_json()
    serial_again = run_table(config, replications=4, workers=1).to_json()
    parallel = run_table(config, replications=4, workers=8).to_json()
    ok = report(
        "9",
        serial == serial_again == parallel,
        f"report bytes {len(serial)}; workers=1 rerun identical: {serial == serial_again}; workers=8 identical: {serial == parallel}",
    )
    assert ok
