import functools
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyshift import (
    FeatureMap,
    LearnerConfig,
    LinearPolicy,
    NuisanceConfig,
    RewardCoefficients,
    SimConfig,
    fit_nuisances,
    generate,
    learn_policy,
    reward_coefficients,
    true_nuisances,
)
from policyshift.features import FEATURE_KINDS
from policyshift import policy as policy_module
from policyshift.policy import _ascend
from policyshift.simulate import feature_transform
from reference import stepwise_learner


def coeffs_from(a, b=None):
    a = np.asarray(a, dtype=float)
    b = np.zeros_like(a) if b is None else np.asarray(b, dtype=float)
    return RewardCoefficients(a=a, b=b, center_weight=np.ones_like(a))


def test_oracle_decision_from_generator_truth():
    x = np.array([10.0, 3.0, 7.0])
    t = feature_transform(x)
    by_hand = 5.0 + 0.4 * t[0] * t[1] + 0.7 * t[2] - 0.1 * t[0] - 0.5 * t[1] * t[2]
    truth = true_nuisances(SimConfig())
    tau = float(truth.mu1(x[None, :])[0] - truth.mu0(x[None, :])[0])
    assert tau == pytest.approx(by_hand, rel=1e-12)
    assert tau >= 0.0  # the oracle treats at the source mean


def test_positive_gains_learn_to_treat_everyone():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2))
    policy, _ = learn_policy(coeffs_from(np.ones(200)), x, LearnerConfig(max_epochs=60), seed=1)
    assert np.all(policy.decide(x) == 1.0)


def test_negative_gains_learn_to_treat_no_one():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    policy, _ = learn_policy(coeffs_from(-np.ones(200)), x, LearnerConfig(max_epochs=60), seed=1)
    assert np.all(policy.decide(x) == 0.0)


def test_sign_boundary_is_recovered_and_matches_grid_search():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 1))
    a = np.sign(x[:, 0])
    coeffs = coeffs_from(a)
    # a large step is a sharp relaxation (temperature 0.05 at step 0.05), which resolves near-boundary points
    policy, _ = learn_policy(coeffs, x, LearnerConfig(max_epochs=150, step_size=20.0), seed=3)
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
    base, _ = learn_policy(coeffs_from(a), x, LearnerConfig(max_epochs=40, step_size=0.05), seed=5)
    scaled, _ = learn_policy(coeffs_from(10.0 * a), x, LearnerConfig(max_epochs=40, step_size=0.005), seed=5)
    assert np.array_equal(base.decide(x), scaled.decide(x))
    assert np.allclose(base.theta, scaled.theta, rtol=1e-9, atol=1e-12)


def test_best_epoch_objective_dominates_initialization():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 2))
    a = rng.normal(size=120)
    b = rng.normal(size=120)
    _, trace = learn_policy(coeffs_from(a, b), x, LearnerConfig(max_epochs=30, batch_size=64), seed=8)
    assert trace.best_objective >= trace.objectives[0]
    assert len(trace.objectives) == 31


def test_learner_input_validation():
    x = np.zeros((10, 1))
    with pytest.raises(ValueError, match="aligned"):
        learn_policy(coeffs_from(np.ones(9)), x, LearnerConfig())
    with pytest.raises(ValueError, match="batch_size"):
        learn_policy(coeffs_from(np.ones(10)), x, LearnerConfig(batch_size=11))


def test_policy_round_trip_serialization():
    policy = LinearPolicy(theta=np.array([0.5, -2.0]), fmap=FeatureMap("raw", 1))
    clone = LinearPolicy.from_dict(policy.to_dict())
    x = np.random.default_rng(11).normal(size=(20, 1))
    assert np.array_equal(policy.decide(x), clone.decide(x))
    assert np.array_equal(clone.theta, policy.theta)


@pytest.mark.parametrize("theta", [[np.nan, 1.0], [0.5, np.inf], [-np.inf, 0.0], [[0.5], [-2.0]]])
def test_a_linear_policy_refuses_a_theta_that_is_not_a_finite_vector(theta):
    with pytest.raises(ValueError, match="theta must be a finite 1-D vector"):
        LinearPolicy(theta=np.array(theta), fmap=FeatureMap("raw", 1))


def test_a_policy_file_with_a_temperature_loads_and_decides_as_before():
    payload = {"theta": [0.2, -1.0, 0.5], "feature_map": "raw", "p_in": 2, "temperature": 0.3}
    policy = LinearPolicy.from_dict(payload)
    x = np.random.default_rng(6).normal(size=(50, 2))
    assert np.array_equal(policy.decide(x), LinearPolicy(theta=np.array([0.2, -1.0, 0.5]), fmap=FeatureMap("raw", 2)).decide(x))
    assert policy.to_dict() == {"theta": [0.2, -1.0, 0.5], "feature_map": "raw", "p_in": 2}


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"theta": {"a": 1}}, "theta"),
        ({"theta": ["0.2", -1.0, 0.5]}, "theta"),
        ({"theta": [True, -1.0, 0.5]}, "theta"),
        ({"theta": [0.2, 10**400, 0.5]}, "theta"),
        ({"feature_map": 1}, "feature_map"),
        ({"feature_map": None}, "feature_map"),
        ({"p_in": None}, "p_in"),
        ({"p_in": "2"}, "p_in"),
        ({"p_in": 2.7}, "p_in"),
        ({"p_in": True}, "p_in"),
    ],
)
def test_a_policy_file_value_of_the_wrong_json_type_is_refused_by_name(changes, named):
    payload = {"theta": [0.2, -1.0, 0.5], "feature_map": "raw", "p_in": 2} | changes
    with pytest.raises(ValueError, match=named):
        LinearPolicy.from_dict(payload)


def test_a_policy_file_takes_integer_thetas_and_an_integral_float_p_in():
    policy = LinearPolicy.from_dict({"theta": [0, -1, 0.5], "feature_map": "raw", "p_in": 2.0})
    assert policy.fmap == FeatureMap("raw", 2) and type(policy.fmap.p_in) is int
    assert np.array_equal(policy.theta, [0.0, -1.0, 0.5]) and policy.theta.dtype == float


def same_result(result, other):
    (policy, trace), (policy_o, trace_o) = result, other
    return (
        np.array_equal(policy.theta, policy_o.theta)
        and np.array_equal(trace.objectives, trace_o.objectives)
        and trace.best_epoch == trace_o.best_epoch
    )


def matches_stepwise(result, coeffs, x, config, seed):
    policy, trace = result
    theta, objectives, best_epoch = stepwise_learner(coeffs.a, coeffs.b, x, config, seed)
    return np.array_equal(policy.theta, theta) and trace.objectives == objectives and trace.best_epoch == best_epoch


def default_replication_inputs(seed):
    """Covariates and direct/ipw/se coefficients of a default replication with this seed."""
    sim = generate(SimConfig(seed=seed))
    nuisances = fit_nuisances(sim.dataset, NuisanceConfig())
    coeffs = [reward_coefficients(sim.dataset, nuisances, method, "r") for method in ("direct", "ipw", "se")]
    return sim.dataset.covariates, coeffs


# on seed 2000025 a matrix-matrix fusion of the methods moves the se theta by 0.65
@pytest.mark.parametrize("seed", [2_000_025, 2_000_000, 2_000_101])
def test_batched_learner_is_bitwise_separate_runs_on_default_replications(seed):
    x, coeffs = default_replication_inputs(seed)
    config = LearnerConfig()
    (batched,) = _ascend([(coeffs, x, seed)], config)
    for coeffs_j, result in zip(coeffs, batched):
        assert same_result(result, learn_policy(coeffs_j, x, config, seed=seed))
    if seed == 2_000_025:
        assert all(matches_stepwise(result, c, x, config, seed) for c, result in zip(coeffs, batched))


# a power-of-two temperature scales exactly, so (step eta, temperature T) is bitwise (eta / T**2, 1) with theta / T
@pytest.mark.parametrize("temperature", [0.25, 0.5, 2.0])
def test_a_temperature_is_a_rescaled_step_size_bit_for_bit(temperature):
    x, coeffs = default_replication_inputs(2_000_024)
    config, seed = LearnerConfig(max_epochs=200), 2_000_024
    (rescaled,) = _ascend([(coeffs, x, seed)], replace(config, step_size=config.step_size / temperature**2))
    for coeffs_j, (policy, trace) in zip(coeffs, rescaled):
        theta, objectives, best_epoch = stepwise_learner(coeffs_j.a, coeffs_j.b, x, config, seed, temperature=temperature)
        assert np.array_equal(theta / temperature, policy.theta)
        assert objectives == trace.objectives and best_epoch == trace.best_epoch


# each case's config is the learner settings and the seed of its mini-batch order
@pytest.mark.parametrize(
    "n,p,config",
    [
        (203, 2, (LearnerConfig(max_epochs=25, batch_size=16), 1)),
        (150, 3, (LearnerConfig(max_epochs=20, batch_size=64, step_size=0.2), 2)),
        (97, 2, (LearnerConfig(feature_map="quadratic", max_epochs=15, batch_size=10), 3)),
        (40, 1, (LearnerConfig(feature_map="intercept", max_epochs=10, batch_size=40), 4)),
    ],
)
def test_batched_learner_matches_the_stepwise_reference_on_small_cases(n, p, config):
    config, seed = config
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p) + rng.normal(size=p)
    coeffs = [coeffs_from(rng.normal(scale=s, size=n), rng.normal(size=n)) for s in (1.0, 5.0, 30.0)]
    (batched,) = _ascend([(coeffs, x, seed)], config)
    for coeffs_j, result in zip(coeffs, batched):
        assert matches_stepwise(result, coeffs_j, x, config, seed)
        assert same_result(result, learn_policy(coeffs_j, x, config, seed=seed))


def test_a_non_finite_set_fails_alone():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(90, 2))
    clean = [coeffs_from(rng.normal(size=90), rng.normal(size=90)) for _ in range(2)]
    bad_a = rng.normal(size=90)
    bad_a[17] = np.nan
    config, seed = LearnerConfig(max_epochs=12, batch_size=32), 14
    (expected,) = _ascend([(clean, x, seed)], config)
    (results,) = _ascend([([clean[0], coeffs_from(bad_a), clean[1]], x, seed)], config)
    assert isinstance(results[1], FloatingPointError)
    assert str(results[1]) == "non-finite policy gradient; check reward coefficients"
    assert same_result(results[0], expected[0]) and same_result(results[2], expected[1])
    with pytest.raises(FloatingPointError, match="non-finite policy gradient"):
        learn_policy(coeffs_from(bad_a), x, config, seed=seed)
    with pytest.raises(FloatingPointError, match="non-finite policy gradient"):
        stepwise_learner(bad_a, np.zeros(90), x, config, seed)


def test_shared_learner_errors_raise_for_every_set():
    x = np.zeros((10, 1))
    with pytest.raises(ValueError, match="aligned"):
        _ascend([([coeffs_from(np.ones(10)), coeffs_from(np.ones(9))], x, 0)], LearnerConfig())
    with pytest.raises(ValueError, match="batch_size"):
        _ascend([([coeffs_from(np.ones(10))] * 2, x, 0)], LearnerConfig(batch_size=11))
    assert _ascend([([], x, 0)], LearnerConfig(batch_size=4)) == [[]]


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 3),
    n=st.integers(2, 40),
    batch_fraction=st.floats(0.0, 1.0),
    max_epochs=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_trace_has_one_entry_per_epoch_and_never_ends_below_its_start(m, n, batch_fraction, max_epochs, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    coeffs = [coeffs_from(rng.normal(scale=10.0, size=n), rng.normal(size=n)) for _ in range(m)]
    config = LearnerConfig(max_epochs=max_epochs, batch_size=1 + int(batch_fraction * (n - 1)))
    for _, trace in _ascend([(coeffs, x, seed)], config)[0]:
        assert len(trace.objectives) == max_epochs + 1
        assert trace.best_objective >= trace.objectives[0]
        assert trace.best_objective == max(trace.objectives)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    p=st.integers(1, 3),
    feature_map=st.sampled_from(FEATURE_KINDS),
    batch_size=st.integers(2, 9),
    full_batches=st.integers(1, 4),
    short_fraction=st.floats(0.0, 1.0),
    max_epochs=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_set_of_every_group_is_the_stepwise_reference_bit_for_bit(
    sizes, p, feature_map, batch_size, full_batches, short_fraction, max_epochs, seed
):
    # the last batch is short: 1 to batch_size - 1 rows
    n = full_batches * batch_size + 1 + int(short_fraction * (batch_size - 2))
    rng = np.random.default_rng(seed)
    groups = [(
        [coeffs_from(rng.normal(scale=10.0, size=n), rng.normal(size=n)) for _ in range(m)],
        rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0, size=p) + rng.normal(size=p),
        int(rng.integers(1 << 30)),
    ) for m in sizes]
    config = LearnerConfig(feature_map=feature_map, batch_size=batch_size, max_epochs=max_epochs)
    stacked = _ascend(groups, config)
    assert [len(results) for results in stacked] == sizes
    for (coeffs, x, group_seed), results in zip(groups, stacked):
        assert all(matches_stepwise(r, c, x, config, group_seed) for c, r in zip(coeffs, results))


ENGINE_SEEDS = (2_000_025, 2_000_000, 2_000_101, 2_000_024, 2_000_050)


@functools.lru_cache(maxsize=None)
def default_replication_run(seed, max_epochs):
    """A default replication's inputs and the result of its own ascent."""
    x, coeffs = default_replication_inputs(seed)
    return x, coeffs, _ascend([(coeffs, x, seed)], LearnerConfig(max_epochs=max_epochs))[0]


# each replication keeps its covariates, standardization and permutation stream inside the stack
@pytest.mark.parametrize("seeds", [ENGINE_SEEDS[:1], ENGINE_SEEDS[1:3], ENGINE_SEEDS], ids=["R1", "R2", "R5"])
def test_the_engine_learns_each_replication_bit_for_bit_as_alone(seeds):
    config = LearnerConfig(max_epochs=200)
    runs = [default_replication_run(seed, config.max_epochs) for seed in seeds]
    stacked = _ascend([(coeffs, x, seed) for seed, (x, coeffs, _) in zip(seeds, runs)], config)
    for (_, _, alone), results in zip(runs, stacked):
        assert len(results) == len(alone) == 3
        assert all(same_result(r, a) for r, a in zip(results, alone))


def small_groups(rng, sizes, n=60):
    return [(
        [coeffs_from(rng.normal(scale=5.0, size=n), rng.normal(size=n)) for _ in range(m)],
        rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0, size=2),
        int(rng.integers(1 << 30)),
    ) for m in sizes]


def test_the_engine_pads_groups_with_fewer_sets_and_reports_only_real_sets():
    groups = small_groups(np.random.default_rng(3), (3, 0, 1, 2))
    config = LearnerConfig(max_epochs=15, batch_size=16)
    stacked = _ascend(groups, config)
    assert [len(results) for results in stacked] == [3, 0, 1, 2]
    for (coeffs, x, seed), results in zip(groups, stacked):
        (alone,) = _ascend([(coeffs, x, seed)], config)
        assert all(same_result(r, a) for r, a in zip(results, alone))


def test_a_non_finite_set_fails_alone_across_groups():
    groups = small_groups(np.random.default_rng(4), (3, 2, 3))
    config = LearnerConfig(max_epochs=10, batch_size=20)
    expected = [_ascend([group], config)[0] for group in groups]
    bad = groups[1][0][1]
    groups[1][0][1] = coeffs_from(np.where(np.arange(bad.n) == 7, np.inf, bad.a), bad.b)
    with np.errstate(invalid="ignore"):  # inf - inf in the broken set's products
        stacked = _ascend(groups, config)
    assert isinstance(stacked[1][1], FloatingPointError)
    assert str(stacked[1][1]) == "non-finite policy gradient; check reward coefficients"
    for g, (results, alone) in enumerate(zip(stacked, expected)):
        for j, (result, result_alone) in enumerate(zip(results, alone)):
            if (g, j) != (1, 1):
                assert same_result(result, result_alone)


def test_the_ascent_leaves_no_thread_behind_when_it_ends_or_every_set_dies():
    groups = small_groups(np.random.default_rng(8), (3, 2))
    before = threading.active_count()
    _ascend(groups, LearnerConfig(max_epochs=6, batch_size=16))
    assert threading.active_count() == before
    dying = [([coeffs_from(np.full(60, np.nan)) for _ in coeffs], x, seed) for coeffs, x, seed in groups]
    with np.errstate(invalid="ignore"):
        stacked = _ascend(dying, LearnerConfig(max_epochs=50, batch_size=16))
    assert all(isinstance(result, FloatingPointError) for results in stacked for result in results)
    assert threading.active_count() == before


def test_the_ascent_starts_no_thread(monkeypatch):
    started, start = [], threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    groups = small_groups(np.random.default_rng(12), (3, 2))
    stacked = _ascend(groups, LearnerConfig(max_epochs=6, batch_size=16))
    assert started == []
    assert all(len(trace.objectives) == 7 for results in stacked for _, trace in results)


def test_zero_epochs_start_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    groups = small_groups(np.random.default_rng(9), (2,))
    before = threading.active_count()
    ((policy, trace), _) = _ascend(groups, LearnerConfig(max_epochs=0, batch_size=16))[0]
    assert started == [] and threading.active_count() == before
    assert np.array_equal(policy.theta, np.zeros(3)) and len(trace.objectives) == 1


def test_an_error_while_stepping_reaches_the_caller(monkeypatch):
    calls = []

    def failing_sigmoid(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # the second batch of epoch 1
            raise RuntimeError("sigmoid failed")
        return sigmoid(*args, **kwargs)

    sigmoid = policy_module.sigmoid
    monkeypatch.setattr(policy_module, "sigmoid", failing_sigmoid)
    groups = small_groups(np.random.default_rng(10), (3,))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="sigmoid failed"):
        _ascend(groups, LearnerConfig(max_epochs=20, batch_size=16))
    assert threading.active_count() == before


def test_an_error_while_drawing_an_epoch_reaches_the_caller(monkeypatch):
    class FailingGenerator:
        def shuffle(self, rows):
            raise RuntimeError("draw failed")

    groups = small_groups(np.random.default_rng(11), (2,))
    monkeypatch.setattr(policy_module.np.random, "default_rng", lambda seed: FailingGenerator())
    before = threading.active_count()
    raised = []

    def run():
        try:
            _ascend(groups, LearnerConfig(max_epochs=5, batch_size=16))
        except RuntimeError as exc:
            raised.append(exc)

    # the ascent runs on a thread of its own, so a caller left waiting fails this test instead of hanging it
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["draw failed"]
    assert threading.active_count() == before


def test_a_misaligned_group_or_an_oversized_batch_fails_the_whole_ascent(monkeypatch):
    groups = small_groups(np.random.default_rng(5), (2, 2, 2))
    config = LearnerConfig(max_epochs=8, batch_size=30)
    expanded = []
    monkeypatch.setattr(FeatureMap, "expand", lambda self, x: expanded.append(x))
    coeffs, x, seed = groups[1]
    misaligned = groups[:1] + [([coeffs[0], coeffs_from(coeffs[1].a[1:])], x, seed)] + groups[2:]
    with pytest.raises(ValueError, match="coefficients and covariates are not aligned"):
        _ascend(misaligned, config)
    with pytest.raises(ValueError, match=r"batch_size must lie in \[1, n\]"):
        _ascend(groups, replace(config, batch_size=61))
    with pytest.raises(ValueError, match="covariate shape"):
        _ascend([groups[0], (groups[2][0][:1], groups[2][1][:, :1], 0)], config)
    assert expanded == []  # every check comes before any work


@pytest.mark.parametrize(
    "options, named",
    [
        ({"max_epochs": -1}, "max_epochs"),
        ({"batch_size": 0}, "batch_size"),
        ({"step_size": 0.0}, "step_size"),
        ({"step_size": -0.05}, "step_size"),
        ({"step_size": float("inf")}, "step_size"),
        ({"step_size": float("nan")}, "step_size"),
        ({"feature_map": "bogus"}, "feature_map"),
        ({"feature_map": ""}, "feature_map"),
    ],
)
def test_learner_config_refuses_out_of_range_values(options, named):
    with pytest.raises(ValueError, match=named):
        LearnerConfig(**options)


def test_zero_epochs_return_the_indifferent_policy():
    x = np.random.default_rng(6).normal(size=(20, 2))
    policy, trace = learn_policy(coeffs_from(np.ones(20)), x, LearnerConfig(max_epochs=0, batch_size=5))
    assert np.array_equal(policy.theta, np.zeros(3)) and len(trace.objectives) == 1 and trace.best_epoch == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("value", [1.0, 0.1, 3.7])
def test_a_constant_covariate_column_keeps_a_zero_coefficient(seed, value):
    # 0.1 and 3.7 repeated have a mean and spread that round away from the value and 0
    sim = generate(SimConfig(n_source=128, n_target=256, seed=seed))
    coeffs = reward_coefficients(sim.dataset, fit_nuisances(sim.dataset), "se", "r")
    x = np.column_stack([sim.dataset.covariates, np.full(sim.dataset.n, value)])
    policy, _ = learn_policy(coeffs, x, LearnerConfig(max_epochs=50), seed=seed)
    assert policy.theta[-1] == 0.0
    assert np.isfinite(policy.theta).all() and np.abs(policy.theta).max() < 1e6
