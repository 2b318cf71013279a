import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyshift import (
    CombinedDataset,
    FeatureMap,
    LinearPolicy,
    NuisanceConfig,
    SimConfig,
    bias_diagnostic,
    estimate,
    fit_nuisances,
    generalization_bound,
    generate,
    RewardCoefficients,
    population_reward,
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
        assert close(estimate(reward_coefficients(ds, ns, "direct", "r"), pi).value, direct_r_reference(ds, vals["mu0"], vals["mu1"], pi))
        assert close(estimate(reward_coefficients(ds, ns, "ipw", "r"), pi).value, ipw_r_reference(ds, vals["e1"], vals["s"], pi))
        assert close(
            estimate(reward_coefficients(ds, ns, "se", "r"), pi).value,
            se_r_reference(ds, vals["mu0"], vals["mu1"], vals["e1"], vals["s"], pi),
        )
        assert close(
            estimate(reward_coefficients(ds, ns, "se", "v"), pi).value,
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
    direct = reward_coefficients(ds, ns, "direct", "r")
    src = ds.source_mask
    assert np.all(direct.a[src] == 0) and np.all(direct.b[src] == 0)
    ipw = reward_coefficients(ds, ns, "ipw", "r")
    assert np.all(ipw.a[~src] == 0) and np.all(ipw.b[~src] == 0)


def test_direct_null_and_constant_policies():
    rng = np.random.default_rng(6)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    coeffs = reward_coefficients(ds, ns, "direct", "r")
    tgt = ds.target_mask
    null_value = estimate(coeffs, np.zeros(ds.n)).value
    assert close(null_value, vals["mu0"][tgt].mean())
    ns_const = fixed_value_nuisances(vals["mu0"], np.full(ds.n, 7.25), vals["e1"], vals["s"])
    const_value = estimate(reward_coefficients(ds, ns_const, "direct", "r"), np.ones(ds.n)).value
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
    value = estimate(reward_coefficients(ds, ns, "ipw", "r"), np.ones(2)).value
    assert close(value, 0.5 * 2.0 * 1.0 / (0.5 * 0.5))


def test_ipw_zero_outcomes_give_zero():
    rng = np.random.default_rng(7)
    ds, vals, pi = random_small_dataset(rng)
    zero_y = np.where(ds.source_mask, 0.0, np.nan)
    ds0 = CombinedDataset(covariates=ds.covariates, group=ds.group, treatment=ds.treatment, outcome=zero_y)
    ns = fixed_value_nuisances(**vals)
    assert estimate(reward_coefficients(ds0, ns, "ipw", "r"), pi).value == 0.0


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
    est = estimate(reward_coefficients(sim.dataset, sim.truth, "ipw", "r"), np.ones(sim.dataset.n))
    y1_target = sim.y1[sim.dataset.target_mask]
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
    est = estimate(reward_coefficients(ds, ns, "se", "v"), np.ones(3))
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
        se = reward_coefficients(ds, ns, "se", "r")
        direct = reward_coefficients(ds, ns, "direct", "r")
        src, tgt = ds.source_mask, ds.target_mask
        assert np.array_equal(se.a[tgt], direct.a[tgt]) and np.array_equal(se.b[tgt], direct.b[tgt])
        assert np.all(se.a[src] == 0) and np.all(se.b[src] == 0)
        assert close(estimate(se, pi).value, estimate(direct, pi).value)


def test_se_reduces_to_ipw_when_surfaces_are_zero():
    rng = np.random.default_rng(9)
    for _ in range(60):
        ds, vals, pi = random_small_dataset(rng)
        ns = fixed_value_nuisances(np.zeros(ds.n), np.zeros(ds.n), vals["e1"], vals["s"])
        se = reward_coefficients(ds, ns, "se", "r")
        ipw = reward_coefficients(ds, ns, "ipw", "r")
        assert np.array_equal(se.a, ipw.a) and np.array_equal(se.b, ipw.b)


def test_se_v_with_zero_residuals_is_regression_mean_over_all_rows():
    rng = np.random.default_rng(10)
    for _ in range(60):
        ds, vals, pi = random_small_dataset(rng)
        mu0, mu1 = exact_fit_surfaces(ds, vals)
        ns = fixed_value_nuisances(mu0, mu1, vals["e1"], vals["s"])
        value = estimate(reward_coefficients(ds, ns, "se", "v"), pi).value
        assert close(value, float(np.mean(pi * mu1 + (1 - pi) * mu0)))


def test_estimate_constant_coefficients():
    from policyshift import RewardCoefficients

    n = 8
    coeffs = RewardCoefficients(a=np.zeros(n), b=np.full(n, 2.5), center_weight=np.ones(n))
    est = estimate(coeffs, np.linspace(0, 1, n))
    assert est.value == 2.5
    # constant contributions under a constant centering weight: no dispersion
    assert est.std_error == 0.0 and est.ci_low == est.ci_high == 2.5


def test_estimate_stays_finite_when_the_mean_of_finite_contributions_would_overflow():
    a = np.array([1e308, 1e308, 1.0])
    coeffs = RewardCoefficients(a=a, b=np.zeros(3), center_weight=np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        est = estimate(coeffs, np.ones(3))
    scaled = a / 1e308
    assert close(est.value, 1e308 * scaled.mean()) and close(est.std_error, 1e308 * scaled.std(ddof=1) / np.sqrt(3))
    assert np.isfinite([est.ci_low, est.ci_high]).all()
    # a value or interval beyond the float range cannot be reported, so it is refused
    for a, b in [(np.full(3, 1e308), np.full(3, 1e308)), (np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308]), np.zeros(4))]:
        with pytest.raises(FloatingPointError, match="the reward estimate or its interval overflows"):
            estimate(RewardCoefficients(a=a, b=b, center_weight=np.ones(len(a))), np.ones(len(a)))


def test_estimate_is_linear_in_policy():
    rng = np.random.default_rng(12)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    coeffs = reward_coefficients(ds, ns, "se", "r")
    forward = estimate(coeffs, pi).value
    flipped = estimate(coeffs, 1.0 - pi).value
    assert close(forward - flipped, float(np.mean(coeffs.a * (2 * pi - 1))), tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_estimate_is_invariant_to_row_permutation(seed):
    rng = np.random.default_rng(seed)
    ds, vals, pi = random_small_dataset(rng, max_n=40)
    perm = rng.permutation(ds.n)
    shuffled = CombinedDataset(
        covariates=ds.covariates[perm], group=ds.group[perm], treatment=ds.treatment[perm], outcome=ds.outcome[perm]
    )
    nuis = fixed_value_nuisances(**vals)
    nuis_shuffled = fixed_value_nuisances(**{name: v[perm] for name, v in vals.items()})
    for kind, estimand in (("direct", "r"), ("ipw", "r"), ("se", "r"), ("se", "v")):
        before = estimate(reward_coefficients(ds, nuis, kind, estimand), pi)
        after = estimate(reward_coefficients(shuffled, nuis_shuffled, kind, estimand), pi[perm])
        assert close(after.value, before.value)
        assert close(after.std_error, before.std_error)


def test_estimate_rejects_length_mismatch():
    rng = np.random.default_rng(13)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    with pytest.raises(ValueError, match="policy values"):
        estimate(reward_coefficients(ds, ns, "se", "r"), np.ones(ds.n + 1))


@pytest.mark.parametrize("bad", [2.0, -0.5, np.nan, np.inf])
def test_estimate_and_bias_diagnostic_refuse_policy_values_outside_0_1(bad):
    rng = np.random.default_rng(13)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    pi = pi.copy()
    pi[1] = bad
    with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
        estimate(reward_coefficients(ds, ns, "se", "r"), pi)
    with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
        bias_diagnostic(ds, ns, ns, pi)


def test_bias_diagnostic_refuses_a_policy_vector_of_the_wrong_length():
    rng = np.random.default_rng(13)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    with pytest.raises(ValueError, match="policy values have shape"):
        bias_diagnostic(ds, ns, ns, pi[:-1])


def test_se_influence_values_have_exactly_zero_mean_and_advertised_ci():
    rng = np.random.default_rng(14)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    coeffs = reward_coefficients(ds, ns, "se", "r")
    est = estimate(coeffs, pi)
    influence = pi * coeffs.a + coeffs.b - est.value * coeffs.center_weight
    assert abs(influence.mean()) < 1e-12 * max(1.0, abs(est.value))
    sd = influence.std(ddof=1)
    assert close(est.std_error, sd / np.sqrt(ds.n), tol=1e-12)
    assert close(est.ci_high - est.value, Z_95 * est.std_error, tol=1e-12)


def test_reward_coefficients_dispatch_and_unknown_kind():
    rng = np.random.default_rng(15)
    ds, vals, pi = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    mu, scores = (vals["mu0"], vals["mu1"]), (vals["e1"], vals["s"])
    references = {
        ("direct", "r"): direct_r_reference(ds, *mu, pi),
        ("ipw", "r"): ipw_r_reference(ds, *scores, pi),
        ("se", "r"): se_r_reference(ds, *mu, *scores, pi),
        ("se", "v"): se_v_reference(ds, *mu, *scores, pi),
    }

    def nearest(coeffs):
        value = estimate(coeffs, pi).value
        return min(references, key=lambda pair: abs(references[pair] - value))

    # each pair's estimate is nearest its own brute-force reference, so each reaches its own builder
    for pair in references:
        assert nearest(reward_coefficients(ds, ns, *pair)) == pair
    assert nearest(reward_coefficients(ds, ns, "se")) == ("se", "r")
    for kind, estimand in (("direct", "v"), ("ipw", "v"), ("dr", "r"), ("se", "t")):
        with pytest.raises(ValueError, match=f"no estimator for kind='{kind}', estimand='{estimand}'"):
            reward_coefficients(ds, ns, kind, estimand)


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


def test_bound_refuses_coefficients_that_overflow_as_reward_coefficients_does():
    rng = np.random.default_rng(1)
    g = np.r_[np.ones(100, dtype=int), np.zeros(300, dtype=int)]
    ds = CombinedDataset(
        covariates=rng.normal(size=(400, 2)),
        group=g,
        treatment=np.where(g == 1, np.arange(400) % 2, np.nan),
        outcome=np.r_[1e307 * rng.normal(size=100), np.full(300, np.nan)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        ns = fit_nuisances(ds)
        with pytest.raises(FloatingPointError, match="^se reward coefficients for r overflow"):
            generalization_bound(ds, ns, eta=0.05, policy_class_size=100)


def test_bound_stays_finite_when_the_squared_residuals_would_overflow():
    rng = np.random.default_rng(1)
    g = np.r_[np.ones(100, dtype=int), np.zeros(300, dtype=int)]
    ds = CombinedDataset(
        covariates=rng.normal(size=(400, 2)),
        group=g,
        treatment=np.where(g == 1, np.arange(400) % 2, np.nan),
        outcome=np.r_[1e160 * rng.normal(size=100), np.full(300, np.nan)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        ns = fit_nuisances(ds)
        report = generalization_bound(ds, ns, eta=0.05, policy_class_size=100)
        r = reward_coefficients(ds, ns, "se", "r").a[ds.source_mask]
    scale = np.max(np.abs(r))
    assert scale > np.sqrt(np.finfo(float).max)  # so the unscaled squares would overflow
    scaled = scale * np.sqrt(np.log(2 * 100 / 0.05) / (2 * ds.n**2) * np.sum((r / scale) ** 2))
    assert np.isfinite(report.bound_term) and close(report.bound_term, scaled, tol=1e-12)


def test_bound_validates_inputs():
    rng = np.random.default_rng(19)
    ds, vals, _ = random_small_dataset(rng)
    ns = fixed_value_nuisances(**vals)
    with pytest.raises(ValueError, match="eta"):
        generalization_bound(ds, ns, eta=1.5, policy_class_size=10)
    with pytest.raises(ValueError, match="policy_class_size"):
        generalization_bound(ds, ns, eta=0.05, policy_class_size=0)


@st.composite
def small_problems(draw, max_n=12):
    """A tiny two-domain dataset, interior nuisance values and policy values, drawn value by value."""
    n = draw(st.integers(2, max_n))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    group = np.array(draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2)) + [0, 1])
    real = st.floats(-1e3, 1e3, allow_nan=False)
    arm, y = column(st.sampled_from([0.0, 1.0])), column(real)
    ds = CombinedDataset(
        covariates=column(real).reshape(n, 1),
        group=group,
        treatment=np.where(group == 1, arm, np.nan),
        outcome=np.where(group == 1, y, np.nan),
    )
    interior = st.floats(0.02, 0.98)
    vals = {"mu0": column(real), "mu1": column(real), "e1": column(interior), "s": column(interior)}
    return ds, vals, column(st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(small_problems())
def test_se_is_direct_whenever_residuals_vanish(problem):
    ds, vals, pi = problem
    mu0, mu1 = exact_fit_surfaces(ds, vals)
    ns = fixed_value_nuisances(mu0, mu1, vals["e1"], vals["s"])
    se = reward_coefficients(ds, ns, "se", "r")
    direct = reward_coefficients(ds, ns, "direct", "r")
    src, tgt = ds.source_mask, ds.target_mask
    assert np.array_equal(se.a[tgt], direct.a[tgt]) and np.array_equal(se.b[tgt], direct.b[tgt])
    assert np.all(se.a[src] == 0) and np.all(se.b[src] == 0)
    assert estimate(se, pi).value == estimate(direct, pi).value


@settings(max_examples=100, deadline=None)
@given(small_problems())
def test_se_is_ipw_whenever_the_surfaces_are_zero(problem):
    ds, vals, _ = problem
    ns = fixed_value_nuisances(np.zeros(ds.n), np.zeros(ds.n), vals["e1"], vals["s"])
    se = reward_coefficients(ds, ns, "se", "r")
    ipw = reward_coefficients(ds, ns, "ipw", "r")
    assert np.array_equal(se.a, ipw.a) and np.array_equal(se.b, ipw.b)


# extreme weights: scores far outside (clip, 1 - clip) on many rows are served at the clip
@settings(max_examples=60, deadline=None)
@given(
    problem=small_problems(max_n=40),
    clip=st.floats(1e-9, 0.49),
    pinned=st.lists(st.sampled_from(["e1 low", "e1 high", "s low", "s high", None]), min_size=40, max_size=40),
)
def test_scores_pinned_at_the_clip_give_finite_coefficients_estimates_and_bound(problem, clip, pinned):
    ds, vals, pi = problem
    e1, s = vals["e1"].copy(), vals["s"].copy()
    for i, how in enumerate(pinned[: ds.n]):
        if how is not None:
            name, side = how.split()
            (e1 if name == "e1" else s)[i] = 0.0 if side == "low" else 1.0
    ns = fixed_value_nuisances(vals["mu0"], vals["mu1"], e1, s, clip=clip)
    served = ns.values(ds.covariates)
    assert served.e1.min() >= clip and served.e1.max() <= 1 - clip
    assert served.s.min() >= clip and served.s.max() <= 1 - clip
    for kind, estimand in (("direct", "r"), ("ipw", "r"), ("se", "r"), ("se", "v")):
        coeffs = reward_coefficients(ds, ns, kind, estimand)
        assert np.all(np.isfinite(coeffs.a)) and np.all(np.isfinite(coeffs.b))
        est = estimate(coeffs, pi)
        assert np.isfinite(est.value) and np.isfinite(est.std_error)
    assert np.isfinite(generalization_bound(ds, ns, eta=0.05, policy_class_size=10**4).bound_term)


def test_se_interval_covers_the_truth_on_the_fitted_path_with_a_quadratic_outcome_map():
    """se's 95% CI of a fixed policy's target reward, with fitted nuisances, at the default design.

    Criterion 4 checks coverage with the true nuisances. Here the outcome
    regressions are quadratic; the pass rule, 0.95 - 3 * sqrt(0.95 * 0.05 / 200),
    is fixed in advance, and the seeds lie apart from the acceptance seeds.
    """
    config = SimConfig()
    policy = LinearPolicy(theta=np.array([-2.0, 0.3, -0.5, 0.2]), fmap=FeatureMap("raw", 3))
    truth = population_reward(config, policy, "target", 2_000_000, seed=9_093)
    reps, covered = 200, 0
    for seed in range(910_000, 910_000 + reps):
        ds = generate(replace(config, seed=seed)).dataset
        nuisances = fit_nuisances(ds, NuisanceConfig(outcome_map="quadratic"))
        est = estimate(reward_coefficients(ds, nuisances, "se", "r"), policy.decide(ds.covariates))
        covered += est.ci_low <= truth <= est.ci_high
    assert covered / reps >= 0.95 - 3 * np.sqrt(0.95 * 0.05 / reps)
