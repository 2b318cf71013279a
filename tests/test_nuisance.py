from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from policyshift import (
    CombinedDataset,
    FeatureMap,
    FitError,
    NuisanceConfig,
    fit_logistic,
    LearnerConfig,
    fit_nuisances,
    fit_ridge,
    generate,
    learn_policy,
    reward_coefficients,
    sigmoid,
)
from policyshift import nuisance
from policyshift.nuisance import NuisanceSet, crossfit_folds
from policyshift.simulate import SimConfig

RAW1 = FeatureMap("raw", 1)
INT1 = FeatureMap("intercept", 1)


# intercept-only models for whatever a test does not look at
INTERCEPTS = dict(outcome_map="intercept", propensity_map="intercept", sampling_map="intercept")


def two_domain_dataset(x, a, y, x_target):
    """Source rows (x, a, y) followed by covariate-only target rows."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    x_target = np.asarray(x_target, dtype=float).reshape(len(x_target), -1)
    n, m = len(x), len(x_target)
    return CombinedDataset(
        covariates=np.vstack([x, x_target]),
        group=np.array([1] * n + [0] * m),
        treatment=np.concatenate([np.asarray(a, dtype=float), np.full(m, np.nan)]),
        outcome=np.concatenate([np.asarray(y, dtype=float), np.full(m, np.nan)]),
    )


def test_ridge_exact_line():
    model = fit_ridge(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]), RAW1, ridge=0.0)
    assert np.allclose(model.beta, [1.0, 2.0], atol=1e-12)
    assert np.allclose(model(np.array([[10.0]])), [21.0], atol=1e-10)


def test_ridge_constant_outcomes_give_constant_predictor():
    x = np.linspace(-2, 2, 7).reshape(-1, 1)
    for ridge in (0.0, 1.0, 100.0):
        model = fit_ridge(x, np.full(7, 3.5), RAW1, ridge=ridge)
        assert np.allclose(model(x), 3.5, atol=1e-9)


def test_huge_ridge_shrinks_to_mean():
    # intercept is unpenalized, so the infinite-ridge limit is the sample mean
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.0, 2.0, 0.5, 4.0, 3.0])
    model = fit_ridge(x, y, RAW1, ridge=1e12)
    assert np.allclose(model(x), y.mean(), atol=1e-6)


def test_singular_system_advises_positive_ridge():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # collinear columns
    with pytest.raises(FitError, match="positive ridge"):
        fit_ridge(x, np.array([1.0, 2.0, 3.0]), FeatureMap("raw", 2), ridge=0.0)


def test_ridge_refuses_normal_equations_that_overflow():
    x = np.random.default_rng(0).normal(size=(100, 2))
    y = np.random.default_rng(1).uniform(1e307, 1.7e308, size=100)  # finite, but their sum is not
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FitError, match="overflow"):
        fit_ridge(x, y, FeatureMap("raw", 2), ridge=0.0)


def test_outcome_fit_requires_enough_arm_rows():
    ds = two_domain_dataset([[0.0], [1.0], [2.0]], [1, 1, 0], [1.0, 2.0, 3.0], [[0.5], [1.5]])
    config = NuisanceConfig(outcome_map="raw", propensity_map="intercept", sampling_map="intercept")
    with pytest.raises(FitError, match=r"^outcome model for arm 0: 1 source rows, need at least 2$"):
        fit_nuisances(ds, config)


def test_outcome_fit_selects_matching_arm():
    ds = two_domain_dataset([[0.0], [1.0], [2.0], [0.0], [1.0]], [1, 1, 1, 0, 0], [1.0, 3.0, 5.0, 9.0, 9.0], [[4.0]])
    ns = fit_nuisances(ds, NuisanceConfig(**{**INTERCEPTS, "outcome_map": "raw"}, outcome_ridge=0.0))
    assert np.allclose(ns.mu1.beta, [1.0, 2.0], atol=1e-10)
    assert np.allclose(ns.mu0.beta, [9.0, 0.0], atol=1e-10)


def test_scores_are_fitted_on_source_rows_and_on_the_group_label():
    # the same logistic fits, called directly, give exactly the same coefficients
    ds = generate(SimConfig(n_source=128, n_target=160, seed=11)).dataset
    config = NuisanceConfig(propensity_map="raw", sampling_map="quadratic", logistic_ridge=0.1)
    ns = fit_nuisances(ds, config)
    src = ds.source_mask
    e1 = fit_logistic(ds.covariates[src], ds.treatment[src], FeatureMap("raw", 3), ridge=0.1)
    s = fit_logistic(ds.covariates, ds.group.astype(float), FeatureMap("quadratic", 3), ridge=0.1)
    assert np.array_equal(ns.e1.beta, e1.beta)
    assert np.array_equal(ns.s.beta, s.beta)


def test_ridge_residuals_have_zero_mean():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    model = fit_ridge(x, y, FeatureMap("quadratic", 2), ridge=0.5)
    resid = y - model(x)
    assert abs(resid.mean()) < 1e-10


def test_logistic_intercept_only_matches_label_mean():
    rng = np.random.default_rng(1)
    labels = (rng.random(200) < 0.3).astype(float)
    model = fit_logistic(rng.normal(size=(200, 1)), labels, INT1, ridge=0.0)
    assert abs(model(np.zeros((1, 1)))[0] - labels.mean()) < 1e-8


def test_logistic_penalized_matches_generic_optimizer():
    # separable 4-point set; ridge keeps the optimum finite
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = fit_logistic(x, y, RAW1, ridge=1.0)
    Phi = RAW1.expand(x)

    def neg_penalized(beta):
        eta = Phi @ beta
        ll = np.sum(y * eta - np.logaddexp(0.0, eta))
        return -(ll - 0.5 * 1.0 * beta[1] ** 2)

    ref = optimize.minimize(neg_penalized, np.zeros(2), method="BFGS", options={"gtol": 1e-12})
    assert np.allclose(model.beta, ref.x, atol=1e-6)
    assert np.all(np.isfinite(model.beta))
    probs = model(x)
    assert np.all(np.diff(probs) > 0)  # monotone in the separating direction


def test_logistic_invariant_to_row_duplication():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 2))
    y = (rng.random(30) < 0.5).astype(float)
    fmap = FeatureMap("raw", 2)
    once = fit_logistic(x, y, fmap, ridge=0.0)
    twice = fit_logistic(np.vstack([x, x]), np.concatenate([y, y]), fmap, ridge=0.0)
    assert np.allclose(once.beta, twice.beta, atol=1e-6)


def test_logistic_single_class_rejected():
    with pytest.raises(FitError, match="single class"):
        fit_logistic(np.ones((5, 1)), np.ones(5), RAW1, ridge=1.0)


def test_logistic_separation_without_ridge_errors():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(FitError, match="positive ridge"):
        fit_logistic(x, y, RAW1, ridge=0.0)


def test_irls_objective_is_nondecreasing():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(120, 3))
    y = (rng.random(120) < 0.4).astype(float)
    trace: list[float] = []
    fit_logistic(x, y, FeatureMap("quadratic", 3), ridge=0.01, trace=trace)
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs >= -1e-10)


def test_irls_keeps_its_coefficients_when_every_step_goes_downhill(monkeypatch):
    def falls_with_size(Phi, y, beta, ridge):
        return -float(np.sum(np.abs(beta)))

    monkeypatch.setattr(nuisance, "_penalized_loglik", falls_with_size)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 2))
    y = (rng.random(60) < 0.3).astype(float)
    trace: list[float] = []
    model = fit_logistic(x, y, FeatureMap("raw", 2), ridge=0.01, trace=trace)
    assert np.array_equal(model.beta, np.zeros(3))
    assert trace == [0.0]


def test_propensity_near_half_under_fair_coin():
    sim = generate(SimConfig(n_source=512, n_target=64, seed=5))
    ns = fit_nuisances(sim.dataset, NuisanceConfig(**INTERCEPTS, logistic_ridge=0.0))
    p = ns.e1(sim.dataset.covariates[:1])[0]
    assert abs(p - 0.5) < 3.0 * np.sqrt(0.25 / 512)


def test_propensity_two_rows_penalized_stays_interior():
    ds = two_domain_dataset([[0.0], [1.0]], [0, 1], [0.0, 1.0], [[0.5]])
    ns = fit_nuisances(ds, NuisanceConfig(**{**INTERCEPTS, "propensity_map": "raw"}, logistic_ridge=1.0))
    probs = ns.e1(ds.covariates[ds.source_mask])
    assert np.all((probs > 0.05) & (probs < 0.95))


def test_propensity_slope_recovery():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 1))
    a = (rng.random(200) < sigmoid(-0.5 * x[:, 0])).astype(float)
    ds = two_domain_dataset(x, a, np.zeros(200), rng.normal(size=(50, 1)))
    ns = fit_nuisances(ds, NuisanceConfig(**{**INTERCEPTS, "propensity_map": "raw"}, logistic_ridge=1e-6))
    assert abs(ns.e1.beta[1] - (-0.5)) < 0.3


def test_sampling_score_no_shift_is_source_fraction():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 1))
    ds = two_domain_dataset(x[:100], (rng.random(100) < 0.5).astype(float), rng.normal(size=100), x[100:])
    ns = fit_nuisances(ds, NuisanceConfig(**INTERCEPTS, logistic_ridge=0.0))
    assert abs(ns.s(x[:1])[0] - ds.source_fraction) < 1e-8


def test_sampling_score_monotone_in_separation():
    ds = two_domain_dataset([[1.0]] * 6, [1, 0, 1, 0, 1, 0], [1.0] * 6, [[0.0]] * 6)
    ns = fit_nuisances(ds, NuisanceConfig(**{**INTERCEPTS, "sampling_map": "raw"}, logistic_ridge=1.0))
    assert ns.s(np.array([[1.0]]))[0] > ns.s(np.array([[0.0]]))[0]


def test_sampling_score_detects_default_covariate_shift():
    sim = generate(SimConfig(seed=9))
    ns = fit_nuisances(sim.dataset, NuisanceConfig(sampling_map="raw", logistic_ridge=1e-2))
    scores = ns.s(sim.dataset.covariates)
    src = scores[sim.dataset.source_mask]
    tgt = scores[sim.dataset.target_mask]
    # AUC of the fitted score as a domain classifier via the rank statistic
    combined = np.concatenate([src, tgt])
    ranks = np.argsort(np.argsort(combined)) + 1
    auc = (ranks[: len(src)].sum() - len(src) * (len(src) + 1) / 2) / (len(src) * len(tgt))
    assert auc > 0.6


@pytest.mark.parametrize("folds", [1, 5])
def test_a_constant_covariate_column_gives_finite_values_and_policy(folds):
    sim = generate(SimConfig(n_source=256, n_target=512, seed=12))
    x = sim.dataset.covariates.copy()
    x[:, 1] = 3.0
    ds = replace(sim.dataset, covariates=x)
    ns = fit_nuisances(ds, NuisanceConfig(folds=folds))
    v = ns.values(ds.covariates)
    assert all(np.all(np.isfinite(getattr(v, name))) for name in ("mu0", "mu1", "e1", "s"))
    policy, _ = learn_policy(reward_coefficients(ds, ns, "se", "r"), ds.covariates, LearnerConfig(max_epochs=20))
    assert np.all(np.isfinite(policy.theta))


def test_separated_treatment_labels_are_clipped_or_rejected():
    sim = generate(SimConfig(n_source=200, n_target=200, seed=13))
    ds = sim.dataset
    # treat exactly the source rows with a large first covariate
    separated = np.where(ds.source_mask, (ds.covariates[:, 0] > np.median(ds.covariates[:, 0])).astype(float), np.nan)
    ds = replace(ds, treatment=separated)
    v = fit_nuisances(ds).values(ds.covariates)
    assert v.e1.min() == 0.01 and v.e1.max() == 0.99
    with pytest.raises(FitError, match="diverged"):
        fit_nuisances(ds, NuisanceConfig(logistic_ridge=0.0))


def test_five_treated_rows_fit_with_five_folds_but_not_with_two():
    ds = generate(SimConfig(n_source=512, n_target=512, seed=14)).dataset
    treated = np.flatnonzero(ds.source_mask & (ds.treatment == 1))
    keep = np.ones(ds.n, dtype=bool)
    keep[treated[5:]] = False
    ds = CombinedDataset(ds.covariates[keep], ds.group[keep], ds.treatment[keep], ds.outcome[keep])
    assert np.sum(ds.treatment == 1) == 5
    v = fit_nuisances(ds, NuisanceConfig(folds=5)).values(ds.covariates)
    assert np.all(np.isfinite(v.mu1))
    with pytest.raises(FitError, match=r"^outcome model for arm 1: 2 source rows, need at least 4$"):
        fit_nuisances(ds, NuisanceConfig(folds=2))


def test_predict_clipped_floors_and_interior():
    ns = NuisanceSet(
        mu0=lambda x: np.zeros(len(np.atleast_2d(x))),
        mu1=lambda x: np.ones(len(np.atleast_2d(x))),
        e1=lambda x: np.full(len(np.atleast_2d(x)), 0.001),
        s=lambda x: np.full(len(np.atleast_2d(x)), 0.5),
        clip=0.01,
    )
    v = ns.values(np.array([0.0]))
    assert (v.mu0[0], v.mu1[0], v.e1[0], v.s[0]) == (0.0, 1.0, 0.01, 0.5)


def test_crossfit_prediction_comes_from_complementary_fold():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    group = np.array([1, 1, 1, 1, 0, 0])
    treatment = np.array([1.0, 0.0, 1.0, 0.0, np.nan, np.nan])
    outcome = np.array([1.0, 0.5, 3.0, 1.5, np.nan, np.nan])
    ds = CombinedDataset(covariates=x, group=group, treatment=treatment, outcome=outcome)
    config = NuisanceConfig(outcome_map="intercept", propensity_map="intercept", sampling_map="intercept", folds=2)
    fitted = fit_nuisances(ds, config)

    assignment = crossfit_folds(ds, 2)
    vals = fitted.values(ds.covariates)

    # hand refit: each row must be predicted by models trained on the other fold only
    for row in range(ds.n):
        keep = assignment != assignment[row]
        src = keep & (group == 1)
        assert vals.mu1[row] == pytest.approx(outcome[src & (treatment == 1.0)].mean(), abs=1e-12)
        assert vals.mu0[row] == pytest.approx(outcome[src & (treatment == 0.0)].mean(), abs=1e-12)
        assert vals.e1[row] == pytest.approx(treatment[src].mean(), abs=1e-8)
        assert vals.s[row] == pytest.approx(group[keep].mean(), abs=1e-8)


def test_crossfit_set_applied_to_other_data_uses_full_data_models():
    # out-of-fold values belong to the training rows only; any other dataset,
    # smaller or larger, gets the full-data models, exactly as without folds
    training = generate(SimConfig(seed=5)).dataset
    crossfit = fit_nuisances(training, NuisanceConfig(folds=5))
    single = fit_nuisances(training, NuisanceConfig(folds=1))
    for n_source, n_target in ((60, 240), (1024, 4096)):
        other = generate(SimConfig(n_source=n_source, n_target=n_target, seed=6)).dataset
        got = reward_coefficients(other, crossfit, "se", "r")
        want = reward_coefficients(other, single, "se", "r")
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
    # equal covariates, not the same array object, select the out-of-fold values
    own = crossfit.values(training.covariates.copy())
    assert not np.array_equal(own.mu1, single.values(training.covariates).mu1)
    assert not own.mu1.flags.writeable


def count_fits(monkeypatch) -> dict[str, int]:
    """Calls of ``fit_logistic`` and ``fit_ridge`` from here on, by name."""
    calls = {"fit_logistic": 0, "fit_ridge": 0}
    for name in calls:

        def counted(*args, _fit=getattr(nuisance, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fit(*args, **kwargs)

        monkeypatch.setattr(nuisance, name, counted)
    return calls


@pytest.mark.parametrize("first_use", ["values", "coefficients"])
def test_a_crossfit_set_fits_its_full_data_models_once_on_first_use(monkeypatch, first_use):
    training = generate(SimConfig(seed=5)).dataset
    other = generate(SimConfig(n_source=60, n_target=240, seed=6)).dataset.covariates
    calls = count_fits(monkeypatch)
    crossfit = fit_nuisances(training, NuisanceConfig(folds=5))
    # two outcome regressions and two scores per fold
    assert calls == {"fit_logistic": 10, "fit_ridge": 10}
    crossfit.values(training.covariates)
    assert calls == {"fit_logistic": 10, "fit_ridge": 10}
    if first_use == "values":
        crossfit.values(other)
    else:
        crossfit.coefficients()
    assert calls == {"fit_logistic": 12, "fit_ridge": 12}
    crossfit.values(other)
    crossfit.coefficients()
    assert calls == {"fit_logistic": 12, "fit_ridge": 12}
    assert crossfit.coefficients() == fit_nuisances(training, NuisanceConfig(folds=1)).coefficients()


def test_crossfit_folds_are_stratified():
    sim = generate(SimConfig(n_source=40, n_target=40, seed=1))
    assignment = crossfit_folds(sim.dataset, 2)
    src_treated = sim.dataset.source_mask & (sim.dataset.treatment == 1)
    for k in (0, 1):
        assert np.sum(src_treated & (assignment == k)) >= 1
        assert np.sum(sim.dataset.target_mask & (assignment == k)) >= 1


@settings(max_examples=60, deadline=None)
@given(
    treated=st.integers(0, 30),
    control=st.integers(0, 30),
    target=st.integers(1, 30),
    folds=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_crossfit_folds_balance_every_stratum(treated, control, target, folds, seed):
    assume(treated + control > 0)  # a dataset has a source row
    treatment = np.array([1.0] * treated + [0.0] * control + [np.nan] * target)
    perm = np.random.default_rng(seed).permutation(len(treatment))
    group = np.isfinite(treatment).astype(int)
    ds = CombinedDataset(
        covariates=np.zeros((len(treatment), 1)),
        group=group[perm],
        treatment=treatment[perm],
        outcome=np.where(group == 1, 0.0, np.nan)[perm],
    )
    assignment = crossfit_folds(ds, folds)
    assert set(np.unique(assignment)) <= set(range(folds))
    for stratum in (ds.treatment == 1, ds.treatment == 0, ds.target_mask):
        counts = np.bincount(assignment[stratum], minlength=folds)
        assert counts.max() - counts.min() <= 1


def test_clip_must_be_in_range():
    with pytest.raises(ValueError, match="clip"):
        NuisanceSet(mu0=lambda x: x, mu1=lambda x: x, e1=lambda x: x, s=lambda x: x, clip=0.7)


@pytest.mark.parametrize(
    "options, named",
    [
        ({"folds": 0}, "folds"),
        ({"folds": -2}, "folds"),
        ({"outcome_ridge": -1e-4}, "outcome_ridge"),
        ({"logistic_ridge": float("nan")}, "logistic_ridge"),
        ({"logistic_ridge": float("inf")}, "logistic_ridge"),
        ({"clip": 0.0}, "clip"),
        ({"clip": 0.5}, "clip"),
        ({"clip": 0.7}, "clip"),
        ({"outcome_map": "bogus"}, "outcome_map"),
        ({"propensity_map": "cubic"}, "propensity_map"),
        ({"sampling_map": "Quadratic"}, "sampling_map"),
    ],
)
def test_nuisance_config_refuses_out_of_range_values(options, named):
    with pytest.raises(ValueError, match=named):
        NuisanceConfig(**options)
    NuisanceConfig(folds=1, outcome_ridge=0.0, logistic_ridge=0.0, clip=0.49)
