import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from policyshift import (
    ExperimentConfig,
    SimConfig,
    feature_transform,
    generate,
    population_reward,
    shift_sweep_config,
    true_nuisances,
    write_truth_csv,
)
from policyshift import simulate
from policyshift.policy import LinearPolicy
from policyshift.features import FeatureMap

from reference import SurfaceOracle, population_draws_reference, population_reward_reference, reward_reference


def test_feature_transform_fixed_points():
    assert np.array_equal(feature_transform(np.zeros(3)), np.zeros(3))
    assert np.allclose(feature_transform(np.ones(3)), 3.0)
    assert np.allclose(feature_transform(-np.ones(3)), -3.0)  # odd function


def test_feature_transform_componentwise():
    x = np.array([2.0, -2.0])
    expected = 2.0 * (2**0.1 + 2**0.3 + 2**0.5)
    assert feature_transform(x)[0] == pytest.approx(expected, rel=1e-14)
    assert feature_transform(x)[1] == pytest.approx(-expected, rel=1e-14)


def test_observed_outcome_consistency_is_exact():
    sim = generate(SimConfig(n_source=128, n_target=32, seed=2))
    src = sim.dataset.source_mask
    a = sim.dataset.treatment[src]
    composed = a * sim.y1[src] + (1 - a) * sim.y0[src]
    assert np.array_equal(sim.dataset.outcome[src], composed)


def test_fair_coin_treatment_fraction():
    config = SimConfig(n_source=512, n_target=8, seed=3, beta_treatment=0.0)
    sim = generate(config)
    frac = sim.dataset.treatment[sim.dataset.source_mask].mean()
    assert abs(frac - 0.5) < 3.0 * np.sqrt(0.25 / 512)


def test_treatment_probability_declines_in_beta():
    lo = generate(SimConfig(n_source=2000, n_target=8, seed=4, beta_treatment=0.0))
    hi = generate(SimConfig(n_source=2000, n_target=8, seed=4, beta_treatment=0.25))
    assert hi.dataset.treatment[hi.dataset.source_mask].mean() < lo.dataset.treatment[lo.dataset.source_mask].mean()


def test_noise_free_effect_matches_closed_form():
    sim = generate(SimConfig(n_source=64, n_target=64, seed=5, noise_sd=0.0))
    tau_drawn = sim.y1 - sim.y0
    v = sim.truth.values(sim.dataset.covariates)
    assert np.allclose(tau_drawn, v.mu1 - v.mu0, atol=1e-12)


def test_shared_noise_cancels_in_effect():
    shared = generate(SimConfig(n_source=64, n_target=64, seed=6))
    v = shared.truth.values(shared.dataset.covariates)
    assert np.allclose(shared.y1 - shared.y0, v.mu1 - v.mu0, atol=1e-12)


def test_generation_is_deterministic():
    a = generate(SimConfig(seed=7, n_source=96, n_target=96))
    b = generate(SimConfig(seed=7, n_source=96, n_target=96))
    assert np.array_equal(a.dataset.covariates, b.dataset.covariates)
    assert np.array_equal(a.dataset.outcome, b.dataset.outcome, equal_nan=True)
    assert np.array_equal(a.y1, b.y1)
    c = generate(SimConfig(seed=8, n_source=96, n_target=96))
    assert not np.array_equal(a.dataset.covariates, c.dataset.covariates)


def test_shift_sweep_displacement_pattern():
    base = SimConfig()
    assert shift_sweep_config(base, 0.0).mu_target == base.mu_source
    assert shift_sweep_config(base, 1.0).mu_target == (9.0, 4.0, 6.0)
    assert shift_sweep_config(base, 2.0).mu_target == (8.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        shift_sweep_config(base, -1.0)


def test_true_sampling_score_integrates_to_source_fraction():
    config = SimConfig(n_source=4000, n_target=16000, seed=9)
    sim = generate(config)
    s = sim.truth.values(sim.dataset.covariates).s
    q = config.source_fraction
    mc_se = s.std(ddof=1) / np.sqrt(len(s))
    assert abs(s.mean() - q) < 3.0 * mc_se + 3.0 * np.sqrt(q * (1 - q) / len(s))


def test_gaussian_sampler_moments():
    config = SimConfig(n_source=100_000, n_target=1, seed=10)
    sim = generate(config)
    x = sim.dataset.covariates[sim.dataset.source_mask]
    mu = np.asarray(config.mu_source)
    cov = np.asarray(config.cov_source)
    n = len(x)
    for j in range(3):
        assert abs(x[:, j].mean() - mu[j]) < 3.0 * np.sqrt(cov[j, j] / n)
    sample_cov = np.cov(x.T)
    for i in range(3):
        for j in range(3):
            se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
            assert abs(sample_cov[i, j] - cov[i, j]) < 3.0 * se


def test_true_propensity_closed_form():
    config = SimConfig(beta_treatment=0.4)
    truth = true_nuisances(config)
    x = np.array([[10.0, 3.0, 7.0]])
    expected = 1.0 / (1.0 + np.exp(0.4 * feature_transform(np.array([3.0]))[0]))
    assert truth.e1(x)[0] == pytest.approx(expected, rel=1e-12)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        SimConfig(cov_source=((1.0, 2.0, 0.0), (2.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="at least one row"):
        SimConfig(n_source=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SimConfig(seed=-3)
    with pytest.raises(ValueError, match="noise_sd must be nonnegative"):
        SimConfig(noise_sd=-1.0)
    with pytest.raises(ValueError, match="cov_source must be symmetric"):
        SimConfig(cov_source=((1.0, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    # the outcome surfaces read exactly three covariates
    with pytest.raises(ValueError, match=r"mu_source must have shape \(3,\)"):
        SimConfig(mu_source=(1.0, 2.0))
    with pytest.raises(ValueError, match=r"mu_target must have shape \(3,\)"):
        SimConfig(mu_target=((9.0, 4.0, 6.0),))
    with pytest.raises(ValueError, match=r"cov_source must have shape \(3, 3\)"):
        SimConfig(cov_source=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match=r"cov_target must have shape \(3, 3\)"):
        SimConfig(cov_target=((2.0, 0.0, 0.0), (0.0, 2.0)))


def test_non_finite_simulation_values_are_refused():
    nan, inf = float("nan"), float("inf")
    for options in (
        {"beta_treatment": nan},
        {"noise_sd": inf},
        {"noise_sd": nan},
        {"mu_target": (nan, 4.0, 6.0)},
        {"mu_source": (10.0, -inf, 7.0)},
        {"cov_target": ((2.0, 1.0, 0.5), (1.0, inf, 1.0), (0.5, 1.0, 2.0))},
    ):
        (name,) = options
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig(**options)
    for distance in (nan, inf, -1.0):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            shift_sweep_config(SimConfig(), distance)


def test_from_dict_takes_json_types_and_refuses_to_coerce():
    config = ExperimentConfig.from_dict({"sim": {"n_source": 64, "n_target": 128.0, "seed": 3}}).sim
    assert (config.n_source, config.n_target, config.seed) == (64, 128, 3)
    assert isinstance(config.n_target, int)
    for key, value in (
        ("n_source", 512.9),
        ("n_target", "2048"),
        ("seed", True),
        ("seed", None),
    ):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict({"sim": {key: value}})


def test_population_reward_scopes():
    config = SimConfig(seed=11)
    treat_all = LinearPolicy(theta=np.array([1.0, 0.0, 0.0, 0.0]), fmap=FeatureMap("raw", 3))
    r_target = population_reward(config, treat_all, scope="target", n_draws=50_000)
    r_entire = population_reward(config, treat_all, scope="entire", n_draws=50_000)
    assert r_entire != r_target
    with pytest.raises(ValueError, match="scope"):
        population_reward(config, treat_all, scope="both")


RAW_POLICY = LinearPolicy(theta=np.array([0.3, -0.1, 0.2, -0.05]), fmap=FeatureMap("raw", 3))
ORACLE = SurfaceOracle()


def test_population_reward_needs_at_least_one_draw():
    config = SimConfig()
    population_reward(config, RAW_POLICY, n_draws=1_000)
    kept = simulate._population_cache
    for n_draws in (0, -5):
        with pytest.raises(ValueError, match="n_draws"):
            population_reward(config, RAW_POLICY, n_draws=n_draws)
    assert simulate._population_cache is kept


def test_population_reward_never_reuses_draws_of_another_call():
    base = SimConfig()
    wide = replace(base, cov_target=tuple(tuple(2.0 * v for v in row) for row in base.cov_target))
    each = (base, "entire", 3_001, 2)
    variants = [
        (base, "target", 3_001, 2),
        (replace(base, n_source=100), "target", 3_001, 2),
        (base, "entire", 3_001, 3),
        (base, "entire", 3_000, 2),
        (replace(base, n_source=100), "entire", 3_001, 2),
        (replace(base, mu_source=(9.0, 4.0, 6.0)), "entire", 3_001, 2),
        (replace(base, cov_source=base.cov_target), "entire", 3_001, 2),
        (shift_sweep_config(base, 2.0), "entire", 3_001, 2),
        (wide, "entire", 3_001, 2),
        (replace(base, seed=5, noise_sd=3.0, beta_treatment=0.5), "entire", 3_001, 2),
    ]
    calls = [call for variant in variants for call in (each, variant)] + [each]
    for config, scope, n_draws, seed in calls:
        for policy in (RAW_POLICY, ORACLE):
            expected = population_reward_reference(config, policy, scope, n_draws, seed)
            assert population_reward(config, policy, scope, n_draws, seed) == expected


def test_population_reward_passes_the_same_read_only_draws_while_the_key_holds():
    seen = []

    class Recording:
        def decide(self, x):
            seen.append(x)
            return np.ones(len(x))

    base = SimConfig()
    n_draws = 2 * simulate.SURFACE_BLOCK_ROWS + 5  # two full blocks and a short one
    kept = []
    for config, seed in ((base, 3), (replace(base, seed=9, noise_sd=2.0, beta_treatment=0.5), 3), (base, 4)):
        population_reward(config, Recording(), "entire", n_draws, seed)
        kept.append(simulate._population_cache[1][0])
    assert kept[0] is kept[1] and kept[2] is not kept[1]
    assert len(seen) == 9 and not any(x.flags.writeable for x in seen)
    # each call passes its draws in order, as views of the one cached X of its key
    for blocks, X, other in ((seen[:3], kept[0], kept[2]), (seen[3:6], kept[0], kept[2]), (seen[6:], kept[2], kept[0])):
        assert np.array_equal(np.concatenate(blocks), X)
        assert all(np.shares_memory(x, X) and not np.shares_memory(x, other) for x in blocks)


def test_population_reward_is_the_same_for_list_array_and_tuple_configs():
    tuple_config = SimConfig(seed=4)
    cov = [list(row) for row in tuple_config.cov_target]
    list_config = SimConfig(mu_target=[9.0, 4.0, 6.0], cov_target=cov, seed=4)
    array_config = SimConfig(mu_target=np.array([9.0, 4.0, 6.0]), cov_target=np.array(cov), seed=4)
    expected = population_reward_reference(tuple_config, RAW_POLICY, "entire", 4_000)
    for config in (list_config, tuple_config, array_config, list_config):
        assert population_reward(config, RAW_POLICY, "entire", 4_000) == expected


def test_a_policy_writing_into_the_draws_is_refused_and_leaves_them_intact():
    class Writing:
        def decide(self, x):
            x[0, 0] = 0.0
            return np.ones(len(x))

    config = SimConfig()
    expected = population_reward_reference(config, RAW_POLICY, "target", 2_000, 8)
    population_reward(config, RAW_POLICY, "target", 2_000, 8)
    with pytest.raises(ValueError, match="read-only"):
        population_reward(config, Writing(), "target", 2_000, 8)
    assert population_reward(config, RAW_POLICY, "target", 2_000, 8) == expected


QUADRATIC_POLICY = LinearPolicy(
    theta=np.array([0.5, -0.2, 0.1, 0.3, 0.01, -0.02, 0.015, 0.02, -0.01, 0.005]), fmap=FeatureMap("quadratic", 3)
)
BLOCK = simulate.SURFACE_BLOCK_ROWS


@pytest.mark.parametrize("scope", ["target", "entire"])
@pytest.mark.parametrize("n_draws", [1, 2, BLOCK, 2 * BLOCK + 5, 200_000])
def test_truth_cache_is_bitwise_the_whole_array_build(monkeypatch, scope, n_draws):
    config = SimConfig()
    n_src = 0 if scope == "target" else int(round(n_draws * config.source_fraction))
    monkeypatch.setattr(simulate, "_population_cache", None)
    built = simulate._population_draws(config, n_src, n_draws, 20_000_000)
    expected = population_draws_reference(config, n_src, n_draws, 20_000_000)
    for got, want in zip(built, expected):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("scope", ["target", "entire"])
@pytest.mark.parametrize("n_draws", [1, 2 * BLOCK + 5, 200_000])
def test_population_reward_is_bitwise_the_four_temporary_reward(scope, n_draws):
    config = shift_sweep_config(SimConfig(), 2.0)
    n_src = 0 if scope == "target" else int(round(n_draws * config.source_fraction))
    X, mu1, mu0 = population_draws_reference(config, n_src, n_draws, 20_000_000)
    for policy in (RAW_POLICY, QUADRATIC_POLICY, ORACLE):
        expected = reward_reference(policy.decide(X), mu1, mu0)
        assert population_reward(config, policy, scope, n_draws) == expected


def test_building_the_truth_holds_little_beyond_what_it_keeps(monkeypatch):
    config = SimConfig()
    monkeypatch.setattr(simulate, "_population_cache", None)
    tracemalloc.start()
    try:
        kept = simulate._population_draws(config, 0, 200_000, 20_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept_bytes = sum(a.nbytes for a in kept)
    assert kept_bytes == 200_000 * 5 * 8  # X and two surfaces
    assert peak <= 1.5 * kept_bytes, f"peak {peak} bytes for {kept_bytes} kept"


@pytest.mark.parametrize("policy", [RAW_POLICY, QUADRATIC_POLICY], ids=["raw", "quadratic"])
def test_scoring_a_policy_on_the_cached_draws_holds_at_most_5_mib(policy):
    config = SimConfig()
    population_reward(config, policy)  # builds the cache outside the traced call
    tracemalloc.start()
    try:
        population_reward(config, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, f"peak {peak} bytes"


def test_truth_sidecar_round_trip(tmp_path):
    sim = generate(SimConfig(n_source=16, n_target=16, seed=12))
    path = tmp_path / "truth.csv"
    write_truth_csv(sim, path)
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == simulate.SIDECAR_COLUMNS
    back = dict(zip(header, np.array(rows, dtype=float).T))
    assert np.array_equal(back["y1"], sim.y1)
    assert np.array_equal(back["y0"], sim.y0)
    v = sim.truth.values(sim.dataset.covariates)
    assert np.array_equal(back["s_true"], v.s)
    assert np.array_equal(back["mu1_true"], v.mu1)
