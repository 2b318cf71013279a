import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from policyshift import betainc, paired_t_test, t_sf_two_sided


def test_betainc_matches_scipy_to_1e10():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = rng.uniform(0.5, 100.0)
        b = rng.uniform(0.5, 100.0)
        x = rng.uniform(0.0, 1.0)
        assert betainc(a, b, x) == pytest.approx(special.betainc(a, b, x), abs=1e-10)
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0


@pytest.mark.parametrize("a, b, x", [(2.0, 0.5, math.nan), (math.nan, 0.5, 0.3), (2.0, math.nan, 0.3)], ids=["x", "a", "b"])
def test_betainc_refuses_a_nan_argument(a, b, x):
    with pytest.raises(ValueError, match="a and b must be positive and x a number"):
        betainc(a, b, x)


def test_t_tail_refuses_a_nan_statistic():
    with pytest.raises(ValueError, match="x a number"):
        t_sf_two_sided(math.nan, 5)


def test_t_tail_refuses_fewer_than_one_degree_of_freedom():
    with pytest.raises(ValueError, match="degrees of freedom must be >= 1"):
        t_sf_two_sided(1.0, 0)


def test_t_tail_matches_scipy_to_1e10():
    rng = np.random.default_rng(1)
    for _ in range(300):
        t = rng.normal(scale=3.0)
        df = int(rng.integers(1, 250))
        assert t_sf_two_sided(t, df) == pytest.approx(2.0 * stats.t.sf(abs(t), df), abs=1e-10)


@pytest.mark.parametrize(
    "t, df, pinned",
    [
        (0.75, 19, "0x1.d98a453539aacp-2"),
        (1.25, 2, "0x1.59d6e517d2dcdp-2"),
        (1.5, 9, "0x1.57c215b304b04p-3"),
        (2.0, 120, "0x1.873ce42104c5ep-5"),
        (2.25, 1, "0x1.10a3ced1a020ep-2"),
        (3.0, 3, "0x1.d86c6b37d8215p-5"),
        (4.0, 19, "0x1.91b4983f2a866p-11"),
    ],
)
def test_t_tail_keeps_its_last_bit(t, df, pinned):
    # the Lentz update d = 1/(1 + aa*d), c = 1 + aa/c, h *= d*c, even coefficient first and convergence checked
    # after each pair; any other order moves the last bits of these values
    assert t_sf_two_sided(t, df).hex() == pinned


def test_paired_identical_series_degenerate():
    a = np.array([1.0, 2.0, 3.0])
    result = paired_t_test(a, a)
    assert result.degenerate and result.p_value == 1.0


def test_paired_alternating_differences_give_p_one():
    a = np.array([1.0, -1.0, 1.0, -1.0])
    result = paired_t_test(a, np.zeros(4))
    assert result.t_stat == pytest.approx(0.0, abs=1e-15)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_paired_hand_computed_example():
    # differences 1..5: t = 3 / (sqrt(2.5)/sqrt(5)) = 4.242640687...
    result = paired_t_test(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros(5))
    assert result.t_stat == pytest.approx(3.0 / (math.sqrt(2.5) / math.sqrt(5)), rel=1e-12)
    assert result.t_stat == pytest.approx(4.242640687119285, rel=1e-12)
    assert result.p_value == pytest.approx(0.013235599563682, rel=1e-9)
    assert result.df == 4 and not result.degenerate


def test_paired_constant_nonzero_difference_is_degenerate():
    result = paired_t_test(np.array([2.0, 2.0, 2.0]), np.zeros(3))
    assert result.degenerate and result.p_value == 1.0 and result.mean_difference == 2.0


def test_paired_input_validation():
    with pytest.raises(ValueError):
        paired_t_test(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        paired_t_test(np.ones(3), np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_paired_refuses_non_finite_series(bad):
    with pytest.raises(ValueError, match="finite"):
        paired_t_test(np.array([1.0, bad, 2.0]), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        paired_t_test(np.zeros(3), np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize(
    "a, b",
    [
        ([1e308, -1e308, 0.0], [-1e308, 1e308, 0.0]),  # a difference overflows
        ([1e308, 1e308, 1e308], [0.0, 0.0, 1.0]),  # finite differences whose sum overflows
    ],
    ids=["difference", "sum"],
)
def test_paired_refuses_differences_that_overflow(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(ValueError, match="overflow"):
            paired_t_test(np.array(a), np.array(b))


def test_paired_matches_scipy_on_random_series():
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = int(rng.integers(3, 40))
        a = rng.normal(size=k)
        b = rng.normal(size=k)
        mine = paired_t_test(a, b)
        ref = stats.ttest_rel(a, b)
        assert mine.t_stat == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-8)
