import numpy as np
import pytest

from policyshift import (
    CombinedDataset,
    bias_diagnostic,
    coefficients_direct_r,
    coefficients_ipw_r,
    coefficients_se_r,
    coefficients_se_v,
    estimate,
    generalization_bound,
    reward_coefficients,
)
from policyshift.estimators import Z_95

from reference import (
    bound_reference,
    direct_r_reference,
    fixed_value_nuisances,
    ipw_r_reference,
    random_small_dataset,
    se_r_reference,
    se_v_reference,
)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_every_estimator_matches_brute_force_on_random_data():
    rng = np.random.default_rng(123)
    for _ in range(60):
        ds, vals, pi = random_small_dataset(rng)
        ns = fixed_value_nuisances(**vals)
        assert close(estimate(coefficients_direct_r(ds, ns), pi).value, direct_r_reference(ds, vals["mu0"], vals["mu1"], pi))
        assert close(estimate(coefficients_ipw_r(ds, ns), pi).value, ipw_r_reference(ds, vals["e1"], vals["s"], pi))
        assert close(
            estimate(coefficients_se_r(ds, ns), pi).value,
            se_r_reference(ds, vals["mu0"], vals["mu1"], vals["e1"], vals["s"], pi),
        )
        assert close(
            estimate(coefficients_se_v(ds, ns), pi).value,
            se_v_reference(ds, vals["mu0"], vals["mu1"], vals["e1"], vals["s"], pi),
        )
        assert close(
            generalization_bound(ds, ns, eta=0.05, policy_class_size=100).bound_term,
            bound_reference(ds, vals["mu0"], vals["mu1"], vals["e1"], vals["s"], 0.05, 100),
        )


def test_coefficient_support_patterns():
    rng = np.random.default_rng(5)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    direct = coefficients_direct_r(ds, ns)
    src = ds.source_mask
    assert np.all(direct.a[src] == 0) and np.all(direct.b[src] == 0)
    ipw = coefficients_ipw_r(ds, ns)
    assert np.all(ipw.a[~src] == 0) and np.all(ipw.b[~src] == 0)


def test_direct_null_and_constant_policies():
    rng = np.random.default_rng(6)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    coeffs = coefficients_direct_r(ds, ns)
    tgt = ds.target_mask
    null_value = estimate(coeffs, np.zeros(ds.n)).value
    assert close(null_value, vals["mu0"][tgt].mean())
    ns_const = fixed_value_nuisances(vals["mu0"], np.full(ds.n, 7.25), vals["e1"], vals["s"])
    const_value = estimate(coefficients_direct_r(ds, ns_const), np.ones(ds.n)).value
    assert close(const_value, 7.25)


def test_ipw_hand_instance():
    # one source row (A=1, Y=2, s=0.5, e1=0.5) plus one target row; pi = 1
    ds = CombinedDataset(
        covariates=np.array([[0.0], [1.0]]),
        group=np.array([1, 0]),
        treatment=np.array([1.0, np.nan]),
        outcome=np.array([2.0, np.nan]),
    )
    ns = fixed_value_nuisances(np.zeros(2), np.zeros(2), np.full(2, 0.5), np.full(2, 0.5))
    value = estimate(coefficients_ipw_r(ds, ns), np.ones(2)).value
    assert close(value, 0.5 * 2.0 * 1.0 / (0.5 * 0.5))


def test_ipw_zero_outcomes_give_zero():
    rng = np.random.default_rng(7)
    ds, vals, pi = random_small_dataset(rng)
    zero_y = np.where(ds.source_mask, 0.0, np.nan)
    ds0 = CombinedDataset(covariates=ds.covariates, group=ds.group, treatment=ds.treatment, outcome=zero_y)
    ns = fixed_value_nuisances(**vals)
    assert estimate(coefficients_ipw_r(ds0, ns), pi).value == 0.0


def test_ipw_with_true_scores_recovers_treated_target_mean():
    from policyshift import SimConfig, generate

    # identical domain distributions: the true sampling score is the constant
    # source fraction, so the weights are bounded and the estimate is clean
    config = SimConfig(
        n_source=6000,
        n_target=24000,
        seed=33,
        mu_target=(10.0, 3.0, 7.0),
        cov_target=tuple(tuple(2.0 ** (-abs(i - j)) for j in range(3)) for i in range(3)),
    )
    sim = generate(config)
    s_vals = sim.truth.values(sim.dataset.covariates).s
    assert np.allclose(s_vals, config.source_fraction, atol=1e-12)
    est = estimate(coefficients_ipw_r(sim.dataset, sim.truth), np.ones(sim.dataset.n))
    y1_target = sim.potential.y1[sim.dataset.target_mask]
    assert abs(est.value - y1_target.mean()) < 3.0 * est.std_error + 3.0 * y1_target.std(ddof=1) / np.sqrt(
        len(y1_target)
    )


def test_fitted_probabilities_respect_clipping_everywhere():
    from policyshift import SimConfig, fit_nuisances, generate
    from policyshift.nuisance import NuisanceConfig

    sim = generate(SimConfig(n_source=128, n_target=512, seed=34, mu_target=(6.0, 7.0, 3.0)))
    nuisances = fit_nuisances(sim.dataset, NuisanceConfig(clip=0.05))
    v = nuisances.values(sim.dataset.covariates)
    for probs in (v.e1, v.s):
        assert probs.min() >= 0.05 and probs.max() <= 0.95


def test_se_v_is_finite_with_a_single_target_row():
    ds = CombinedDataset(
        covariates=np.array([[0.0], [1.0], [2.0]]),
        group=np.array([1, 1, 0]),
        treatment=np.array([1.0, 0.0, np.nan]),
        outcome=np.array([5.0, 1.0, np.nan]),
    )
    ns = fixed_value_nuisances(np.zeros(3), np.ones(3), np.full(3, 0.5), np.full(3, 2 / 3))
    est = estimate(coefficients_se_v(ds, ns), np.ones(3))
    assert np.isfinite(est.value) and np.isfinite(est.std_error)


def exact_fit_surfaces(ds, vals):
    """The drawn surfaces with every source row's own-arm value set to its outcome."""
    mu0, mu1 = np.array(vals["mu0"]), np.array(vals["mu1"])
    src = ds.source_mask
    mu1[src & (ds.treatment == 1)] = ds.outcome[src & (ds.treatment == 1)]
    mu0[src & (ds.treatment == 0)] = ds.outcome[src & (ds.treatment == 0)]
    return mu0, mu1


def test_se_reduces_to_direct_when_residuals_vanish():
    rng = np.random.default_rng(8)
    for _ in range(60):
        ds, vals, pi = random_small_dataset(rng)
        mu0, mu1 = exact_fit_surfaces(ds, vals)
        ns = fixed_value_nuisances(mu0, mu1, vals["e1"], vals["s"])
        se = coefficients_se_r(ds, ns)
        direct = coefficients_direct_r(ds, ns)
        src, tgt = ds.source_mask, ds.target_mask
        assert np.array_equal(se.a[tgt], direct.a[tgt]) and np.array_equal(se.b[tgt], direct.b[tgt])
        assert np.all(se.a[src] == 0) and np.all(se.b[src] == 0)
        assert close(estimate(se, pi).value, estimate(direct, pi).value)


def test_se_reduces_to_ipw_when_surfaces_are_zero():
    rng = np.random.default_rng(9)
    for _ in range(60):
        ds, vals, pi = random_small_dataset(rng)
        ns = fixed_value_nuisances(np.zeros(ds.n), np.zeros(ds.n), vals["e1"], vals["s"])
        se = coefficients_se_r(ds, ns)
        ipw = coefficients_ipw_r(ds, ns)
        assert np.array_equal(se.a, ipw.a) and np.array_equal(se.b, ipw.b)


def test_se_v_with_zero_residuals_is_regression_mean_over_all_rows():
    rng = np.random.default_rng(10)
    for _ in range(60):
        ds, vals, pi = random_small_dataset(rng)
        mu0, mu1 = exact_fit_surfaces(ds, vals)
        ns = fixed_value_nuisances(mu0, mu1, vals["e1"], vals["s"])
        value = estimate(coefficients_se_v(ds, ns), pi).value
        assert close(value, float(np.mean(pi * mu1 + (1 - pi) * mu0)))


def test_estimate_constant_coefficients():
    from policyshift import RewardCoefficients

    n = 8
    coeffs = RewardCoefficients(
        a=np.zeros(n), b=np.full(n, 2.5), center_weight=np.ones(n), kind="se", estimand="v"
    )
    est = estimate(coeffs, np.linspace(0, 1, n))
    assert est.value == 2.5
    # constant contributions under a constant centering weight: no dispersion
    assert est.std_error == 0.0 and est.ci_low == est.ci_high == 2.5


def test_estimate_is_linear_in_policy():
    rng = np.random.default_rng(12)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    coeffs = coefficients_se_r(ds, ns)
    forward = estimate(coeffs, pi).value
    flipped = estimate(coeffs, 1.0 - pi).value
    assert close(forward - flipped, float(np.mean(coeffs.a * (2 * pi - 1))), tol=1e-10)


def test_estimate_rejects_length_mismatch():
    rng = np.random.default_rng(13)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    with pytest.raises(ValueError, match="policy values"):
        estimate(coefficients_se_r(ds, ns), np.ones(ds.n + 1))


def test_se_influence_values_have_exactly_zero_mean_and_advertised_ci():
    rng = np.random.default_rng(14)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    est = estimate(coefficients_se_r(ds, ns), pi)
    assert est.influence_values is not None
    assert abs(est.influence_values.mean()) < 1e-12 * max(1.0, abs(est.value))
    sd = est.influence_values.std(ddof=1)
    assert close(est.std_error, sd / np.sqrt(ds.n), tol=1e-12)
    assert close(est.ci_high - est.value, Z_95 * est.std_error, tol=1e-12)
    assert estimate(coefficients_direct_r(ds, ns), pi).influence_values is None


def test_reward_coefficients_dispatch_and_unknown_kind():
    rng = np.random.default_rng(15)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    assert reward_coefficients(ds, ns, "direct").kind == "direct"
    with pytest.raises(ValueError, match="no estimator"):
        reward_coefficients(ds, ns, "direct", "v")


def test_bias_diagnostic_zero_when_either_side_correct():
    rng = np.random.default_rng(16)
    ds, vals, pi = random_small_dataset(rng)
    truth = fixed_value_nuisances(**vals)
    # (i) exact outcome surfaces, arbitrary scores
    fitted = fixed_value_nuisances(vals["mu0"], vals["mu1"], vals["e1"] * 0 + 0.3, vals["s"] * 0 + 0.6)
    assert bias_diagnostic(ds, truth, fitted, pi) == 0.0
    # (ii) exact scores, arbitrary surfaces
    fitted = fixed_value_nuisances(vals["mu0"] + 3.0, vals["mu1"] - 1.0, vals["e1"], vals["s"])
    assert abs(bias_diagnostic(ds, truth, fitted, pi)) < 1e-14
    # both wrong: nonzero, and signed version carries the sign
    fitted = fixed_value_nuisances(vals["mu0"] + 3.0, vals["mu1"] - 1.0, vals["e1"] * 0 + 0.3, vals["s"] * 0 + 0.6)
    assert bias_diagnostic(ds, truth, fitted, pi) > 0
    signed = bias_diagnostic(ds, truth, fitted, pi, signed=True)
    assert abs(signed) == bias_diagnostic(ds, truth, fitted, pi)


def test_bound_zero_when_residuals_vanish():
    rng = np.random.default_rng(17)
    ds, vals, _ = random_small_dataset(rng)
    mu0, mu1 = exact_fit_surfaces(ds, vals)
    ns = fixed_value_nuisances(mu0, mu1, vals["e1"], vals["s"])
    assert generalization_bound(ds, ns, eta=0.05, policy_class_size=100).bound_term == 0.0


def test_bound_scales_with_class_size_log():
    rng = np.random.default_rng(18)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    b1 = generalization_bound(ds, ns, eta=0.05, policy_class_size=100).bound_term
    b2 = generalization_bound(ds, ns, eta=0.05, policy_class_size=200).bound_term
    expected = np.sqrt(np.log(2 * 200 / 0.05) / np.log(2 * 100 / 0.05))
    assert close(b2 / b1, expected, tol=1e-10)


def test_bound_two_row_hand_instance():
    # two source rows with chosen residuals, one target row
    ds = CombinedDataset(
        covariates=np.array([[0.0], [1.0], [2.0]]),
        group=np.array([1, 1, 0]),
        treatment=np.array([1.0, 0.0, np.nan]),
        outcome=np.array([3.0, -1.0, np.nan]),
    )
    mu1 = np.array([1.0, 9.0, 0.0])  # residual on row 0: 3 - 1 = 2
    mu0 = np.array([9.0, -2.0, 0.0])  # residual on row 1: -1 + 2 = 1
    e1 = np.array([0.4, 0.25, 0.5])
    s = np.array([0.5, 0.2, 0.5])
    ns = fixed_value_nuisances(mu0, mu1, e1, s)
    report = generalization_bound(ds, ns, eta=0.05, policy_class_size=100)
    n, q = 3, 2 / 3
    term_row0 = 2.0**2 * (1 - 0.5) ** 2 / ((1 - q) ** 2 * 0.4**2 * 0.5**2)
    term_row1 = 1.0**2 * (1 - 0.2) ** 2 / ((1 - q) ** 2 * 0.75**2 * 0.2**2)
    by_hand = np.sqrt(np.log(2 * 100 / 0.05) / (2 * n * n) * (term_row0 + term_row1))
    assert close(report.bound_term, by_hand, tol=1e-12)
    assert close(report.bound_term, bound_reference(ds, mu0, mu1, e1, s, 0.05, 100), tol=1e-12)


def test_bound_validates_inputs():
    rng = np.random.default_rng(19)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    with pytest.raises(ValueError, match="eta"):
        generalization_bound(ds, ns, eta=1.5, policy_class_size=10)
    with pytest.raises(ValueError, match="policy_class_size"):
        generalization_bound(ds, ns, eta=0.05, policy_class_size=0)
