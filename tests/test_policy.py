import numpy as np
import pytest

from policyshift import (
    FeatureMap,
    LearnerConfig,
    LinearPolicy,
    OraclePolicy,
    RewardCoefficients,
    SimConfig,
    learn_policy,
    policy_error,
    true_nuisances,
)
from policyshift.simulate import conditional_effect, feature_transform


def coeffs_from(a, b=None, estimand="r"):
    a = np.asarray(a, dtype=float)
    b = np.zeros_like(a) if b is None else np.asarray(b, dtype=float)
    return RewardCoefficients(a=a, b=b, center_weight=np.ones_like(a), kind="se", estimand=estimand)


def test_oracle_decision_rule():
    # ties treat: a zero effect counts as a reason to treat
    oracle = OraclePolicy(cate=lambda x: x[:, 0])
    assert oracle.decide(np.array([[0.0], [-0.1], [2.5]])).tolist() == [1.0, 0.0, 1.0]


def test_oracle_decision_from_generator_truth():
    x = np.array([10.0, 3.0, 7.0])
    t = feature_transform(x)
    by_hand = 5.0 + 0.4 * t[0] * t[1] + 0.7 * t[2] - 0.1 * t[0] - 0.5 * t[1] * t[2]
    assert by_hand == pytest.approx(conditional_effect(x[None, :])[0], rel=1e-12)
    truth = true_nuisances(SimConfig())
    tau = float(truth.mu1(x[None, :])[0] - truth.mu0(x[None, :])[0])
    assert tau == pytest.approx(by_hand, rel=1e-12)
    oracle = OraclePolicy(cate=conditional_effect)
    assert oracle.decide(x)[0] == (1.0 if by_hand >= 0 else 0.0) == 1.0


def test_positive_gains_learn_to_treat_everyone():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    policy, _ = learn_policy(coeffs_from(np.ones(200)), x, LearnerConfig(max_epochs=60, seed=1))
    assert np.all(policy.decide(x) == 1.0)


def test_negative_gains_learn_to_treat_no_one():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    policy, _ = learn_policy(coeffs_from(-np.ones(200)), x, LearnerConfig(max_epochs=60, seed=1))
    assert np.all(policy.decide(x) == 0.0)


def test_sign_boundary_is_recovered_and_matches_grid_search():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 1))
    a = np.sign(x[:, 0])
    coeffs = coeffs_from(a)
    # annealing sharpens the relaxation enough to resolve near-boundary points
    policy, _ = learn_policy(coeffs, x, LearnerConfig(max_epochs=150, seed=3, anneal_to=0.05))
    decisions = policy.decide(x)
    assert policy.theta[1] > 0
    assert np.mean(decisions == (a > 0)) == 1.0
    # independent argmax oracle: enumerate hard policies over a theta grid
    grid = [(t0, t1) for t0 in np.linspace(-3, 3, 61) for t1 in np.linspace(-3, 3, 61)]
    hard_values = [np.mean(((t0 + t1 * x[:, 0]) >= 0) * a) for t0, t1 in grid]
    assert np.mean(decisions * a) == pytest.approx(max(hard_values), abs=1e-12)


def test_rescaled_gains_with_rescaled_step_leave_decisions_unchanged():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(150, 2))
    a = rng.normal(size=150)
    base, _ = learn_policy(coeffs_from(a), x, LearnerConfig(max_epochs=40, step_size=0.05, seed=5))
    scaled, _ = learn_policy(coeffs_from(10.0 * a), x, LearnerConfig(max_epochs=40, step_size=0.005, seed=5))
    assert np.array_equal(base.decide(x), scaled.decide(x))
    assert np.allclose(base.theta, scaled.theta, rtol=1e-9, atol=1e-12)


def test_hard_decisions_ignore_temperature():
    theta = np.array([0.2, -1.0, 0.5])
    fmap = FeatureMap("raw", 2)
    x = np.random.default_rng(6).normal(size=(50, 2))
    cold = LinearPolicy(theta=theta, fmap=fmap, temperature=0.1)
    hot = LinearPolicy(theta=theta, fmap=fmap, temperature=10.0)
    assert np.array_equal(cold.decide(x), hot.decide(x))
    assert not np.allclose(cold.smooth_value(x), hot.smooth_value(x))


def test_best_epoch_objective_dominates_initialization():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 2))
    a = rng.normal(size=120)
    b = rng.normal(size=120)
    _, trace = learn_policy(coeffs_from(a, b), x, LearnerConfig(max_epochs=30, seed=8, batch_size=64))
    assert trace.best_objective >= trace.initial_objective
    assert len(trace.objectives) == 31


def test_annealing_reaches_configured_temperature():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 1))
    policy, _ = learn_policy(
        coeffs_from(rng.normal(size=60)), x, LearnerConfig(max_epochs=20, temperature=1.0, anneal_to=0.1, seed=10, batch_size=32)
    )
    assert policy.temperature == pytest.approx(0.1, rel=1e-9)


def test_learner_input_validation():
    x = np.zeros((10, 1))
    with pytest.raises(ValueError, match="aligned"):
        learn_policy(coeffs_from(np.ones(9)), x, LearnerConfig())
    with pytest.raises(ValueError, match="batch_size"):
        learn_policy(coeffs_from(np.ones(10)), x, LearnerConfig(batch_size=11))


def test_policy_round_trip_serialization():
    policy = LinearPolicy(theta=np.array([0.5, -2.0]), fmap=FeatureMap("raw", 1), temperature=0.3)
    clone = LinearPolicy.from_dict(policy.to_dict())
    x = np.random.default_rng(11).normal(size=(20, 1))
    assert np.array_equal(policy.decide(x), clone.decide(x))
    assert clone.temperature == policy.temperature


def test_policy_error_identity_and_complement():
    oracle = OraclePolicy(cate=lambda x: x[:, 0])
    agree = LinearPolicy(theta=np.array([0.0, 1.0]), fmap=FeatureMap("raw", 1))
    disagree = LinearPolicy(theta=np.array([-1e-9, -1.0]), fmap=FeatureMap("raw", 1))
    x = np.linspace(-2, 2, 101).reshape(-1, 1)
    x = x[x[:, 0] != 0].reshape(-1, 1)  # avoid the tie point, where the rules differ by convention
    assert policy_error(agree, oracle, x) == 0.0
    assert policy_error(disagree, oracle, x) == 1.0
    with pytest.raises(ValueError, match="nonempty"):
        policy_error(agree, oracle, np.zeros((0, 1)))
