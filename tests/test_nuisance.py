import numpy as np
import pytest
from scipy import optimize

from policyshift import (
    CombinedDataset,
    FeatureMap,
    FitError,
    NuisanceConfig,
    fit_logistic,
    fit_nuisances,
    fit_outcome,
    fit_propensity,
    fit_ridge,
    fit_sampling_score,
    generate,
    reward_coefficients,
)
from policyshift.nuisance import NuisanceSet, crossfit_folds
from policyshift.simulate import SimConfig

RAW1 = FeatureMap("raw", 1)
INT1 = FeatureMap("intercept", 1)


def source_only_dataset(x, a, y):
    n = len(x)
    return CombinedDataset(
        covariates=np.asarray(x, dtype=float).reshape(n, -1),
        group=np.ones(n, dtype=int),
        treatment=np.asarray(a, dtype=float),
        outcome=np.asarray(y, dtype=float),
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


def test_outcome_fit_requires_enough_arm_rows():
    ds = source_only_dataset([[0.0], [1.0], [2.0]], [1, 1, 0], [1.0, 2.0, 3.0])
    with pytest.raises(FitError, match="arm 0"):
        fit_outcome(ds, 0, RAW1)


def test_outcome_fit_selects_matching_arm():
    ds = source_only_dataset([[0.0], [1.0], [2.0], [0.0], [1.0]], [1, 1, 1, 0, 0], [1.0, 3.0, 5.0, 9.0, 9.0])
    model = fit_outcome(ds, 1, RAW1, ridge=0.0)
    assert np.allclose(model.beta, [1.0, 2.0], atol=1e-10)


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


def test_propensity_near_half_under_fair_coin():
    sim = generate(SimConfig(n_source=512, n_target=64, seed=5))
    model = fit_propensity(sim.dataset, FeatureMap("intercept", 3), ridge=0.0)
    p = model(sim.dataset.covariates[:1])[0]
    assert abs(p - 0.5) < 3.0 * np.sqrt(0.25 / 512)


def test_propensity_two_rows_penalized_stays_interior():
    ds = source_only_dataset([[0.0], [1.0]], [0, 1], [0.0, 1.0])
    model = fit_propensity(ds, RAW1, ridge=1.0)
    probs = model(ds.covariates)
    assert np.all((probs > 0.05) & (probs < 0.95))


def test_propensity_slope_recovery():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 1))
    from policyshift import sigmoid

    a = (rng.random(200) < sigmoid(-0.5 * x[:, 0])).astype(float)
    ds = CombinedDataset(covariates=x, group=np.ones(200, dtype=int), treatment=a, outcome=np.zeros(200))
    model = fit_propensity(ds, RAW1, ridge=1e-6)
    assert abs(model.beta[1] - (-0.5)) < 0.3


def test_sampling_score_no_shift_is_source_fraction():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 1))
    group = np.concatenate([np.ones(100, dtype=int), np.zeros(200, dtype=int)])
    ds = CombinedDataset(
        covariates=x,
        group=group,
        treatment=np.where(group == 1, (rng.random(300) < 0.5).astype(float), np.nan),
        outcome=np.where(group == 1, rng.normal(size=300), np.nan),
    )
    model = fit_sampling_score(ds, INT1, ridge=0.0)
    assert abs(model(x[:1])[0] - ds.source_fraction) < 1e-8


def test_sampling_score_monotone_in_separation():
    x = np.array([[1.0]] * 6 + [[0.0]] * 6)
    group = np.array([1] * 6 + [0] * 6)
    ds = CombinedDataset(
        covariates=x,
        group=group,
        treatment=np.where(group == 1, [1.0, 0, 1, 0, 1, 0] + [np.nan] * 6, np.nan),
        outcome=np.where(group == 1, 1.0, np.nan),
    )
    model = fit_sampling_score(ds, RAW1, ridge=1.0)
    assert model(np.array([[1.0]]))[0] > model(np.array([[0.0]]))[0]


def test_sampling_score_detects_default_covariate_shift():
    sim = generate(SimConfig(seed=9))
    model = fit_sampling_score(sim.dataset, FeatureMap("raw", 3), ridge=1e-2)
    scores = model(sim.dataset.covariates)
    src = scores[sim.dataset.source_mask]
    tgt = scores[sim.dataset.target_mask]
    # AUC of the fitted score as a domain classifier via the rank statistic
    combined = np.concatenate([src, tgt])
    ranks = np.argsort(np.argsort(combined)) + 1
    auc = (ranks[: len(src)].sum() - len(src) * (len(src) + 1) / 2) / (len(src) * len(tgt))
    assert auc > 0.6


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


def test_crossfit_folds_are_stratified():
    sim = generate(SimConfig(n_source=40, n_target=40, seed=1))
    assignment = crossfit_folds(sim.dataset, 2)
    src_treated = sim.dataset.source_mask & (sim.dataset.treatment == 1)
    for k in (0, 1):
        assert np.sum(src_treated & (assignment == k)) >= 1
        assert np.sum(sim.dataset.target_mask & (assignment == k)) >= 1


def test_clip_must_be_in_range():
    with pytest.raises(ValueError, match="clip"):
        NuisanceSet(mu0=lambda x: x, mu1=lambda x: x, e1=lambda x: x, s=lambda x: x, clip=0.7)
