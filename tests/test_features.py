import numpy as np
import pytest

from policyshift import FeatureMap, sigmoid
from reference import expand_reference, masked_sigmoid


@pytest.mark.parametrize(
    "kind,p_in,expected",
    [("intercept", 3, 1), ("raw", 3, 4), ("raw", 1, 2), ("quadratic", 3, 10), ("quadratic", 2, 6)],
)
def test_output_dimension(kind, p_in, expected):
    assert FeatureMap(kind, p_in).p_out == expected


def test_quadratic_expansion_values():
    fmap = FeatureMap("quadratic", 2)
    row = fmap.expand(np.array([2.0, 3.0]))[0]
    assert row.tolist() == [1.0, 2.0, 3.0, 4.0, 9.0, 6.0]


def test_expansion_is_deterministic():
    fmap = FeatureMap("quadratic", 3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(fmap.expand(x), fmap.expand(x.copy()))


@pytest.mark.parametrize("kind", ["intercept", "raw", "quadratic"])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_expansion_is_bitwise_the_stacked_columns(kind, p):
    rng = np.random.default_rng(p)
    fmap = FeatureMap(kind, p)
    for x in (rng.normal(size=(37, p)), 1e150 * rng.normal(size=(4, p)), rng.normal(size=p), np.zeros((0, p))):
        got, want = fmap.expand(x), expand_reference(kind, x)
        assert got.shape == want.shape == (len(np.atleast_2d(x)), fmap.p_out)
        assert got.flags.c_contiguous and np.array_equal(got, want)
    column = rng.normal(size=(50, 2 * p))[:, ::2]  # strided input
    assert np.array_equal(fmap.expand(column), expand_reference(kind, column))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="expected 3 covariates"):
        FeatureMap("raw", 3).expand(np.ones((4, 2)))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown feature map kind"):
        FeatureMap("cubic", 2)


def test_sigmoid_is_stable_and_symmetric():
    z = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    p = sigmoid(z)
    assert np.all((p >= 0) & (p <= 1))
    assert p[2] == 0.5
    assert np.allclose(p + sigmoid(-z), 1.0)


def test_sigmoid_is_bitwise_the_masked_two_branch_form():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 745.0, -745.0, 36.0, -36.0, 1e-300, -1e-300]
    rng = np.random.default_rng(12)
    z = np.concatenate([special, 50.0 * rng.normal(size=10_000), 5.0 * rng.normal(size=10_000)])
    assert np.array_equal(sigmoid(z), masked_sigmoid(z), equal_nan=True)
    grid = z[5:].reshape(-1, 4)  # shape is kept for 2-D input
    assert np.array_equal(sigmoid(grid), masked_sigmoid(grid))
