import math

import numpy as np
import pytest

from fgbo.errors import ContractViolationError
from fgbo.kernels import (
    AdditiveKernel,
    FactorKernel,
    cross_additive,
    cross_factor,
    eval_additive,
    eval_factor,
    gram,
)


def _rbf(u, v, sv, ls):
    q = sum(((a - b) / l) ** 2 for a, b, l in zip(u, v, ls))
    return sv * math.exp(-0.5 * q)


def test_factor_kernel_hand_value():
    f = FactorKernel(subset=(0, 2), signal_variance=1.7, lengthscales=(0.3, 0.9))
    x = np.array([0.1, 0.5, 0.4])
    z = np.array([0.2, 0.9, 0.7])
    # depends only on dims 0 and 2
    want = _rbf((0.1, 0.4), (0.2, 0.7), 1.7, (0.3, 0.9))
    assert eval_factor(f, f.restrict(x), f.restrict(z)) == pytest.approx(want, rel=1e-14)
    assert eval_factor(f, f.restrict(x), f.restrict(x)) == pytest.approx(1.7)


def test_factor_kernel_validation():
    with pytest.raises(ContractViolationError):
        FactorKernel(subset=(), signal_variance=1.0, lengthscales=())
    with pytest.raises(ContractViolationError):
        FactorKernel(subset=(0, 0), signal_variance=1.0, lengthscales=(0.1, 0.1))
    with pytest.raises(ContractViolationError):
        FactorKernel(subset=(0,), signal_variance=0.0, lengthscales=(0.1,))
    with pytest.raises(ContractViolationError):
        FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(-0.1,))
    with pytest.raises(ContractViolationError):
        FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.1,))


def test_restrict_picks_subset_columns():
    f = FactorKernel(subset=(1, 3), signal_variance=1.0, lengthscales=(0.2, 0.2))
    X = np.arange(12.0).reshape(3, 4)
    np.testing.assert_array_equal(f.restrict(X), X[:, [1, 3]])


def test_cross_factor_matches_pointwise():
    rng = np.random.default_rng(11)
    f = FactorKernel(subset=(0, 1), signal_variance=0.8, lengthscales=(0.4, 0.6))
    U = rng.uniform(size=(5, 2))
    V = rng.uniform(size=(7, 2))
    K = cross_factor(f, U, V)
    assert K.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            want = _rbf(U[i], V[j], 0.8, (0.4, 0.6))
            assert K[i, j] == pytest.approx(want, rel=1e-12)


def test_additive_kernel_sum_and_prior_variance():
    rng = np.random.default_rng(5)
    k = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0,), signal_variance=0.5, lengthscales=(0.3,)),
            FactorKernel(subset=(1, 2), signal_variance=1.5, lengthscales=(0.2, 0.7)),
        )
    )
    assert k.num_factors == 2
    x, z = rng.uniform(size=3), rng.uniform(size=3)
    want = _rbf((x[0],), (z[0],), 0.5, (0.3,)) + _rbf(
        (x[1], x[2]), (z[1], z[2]), 1.5, (0.2, 0.7)
    )
    assert eval_additive(k, x, z) == pytest.approx(want, rel=1e-12)
    assert k.prior_variance(x) == pytest.approx(2.0)


def test_gram_symmetric_and_psd():
    rng = np.random.default_rng(42)
    k = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.5, 0.5)),
            FactorKernel(subset=(1, 2), signal_variance=2.0, lengthscales=(0.3, 0.3)),
        )
    )
    X = rng.uniform(size=(20, 3))
    K = gram(k, X)
    # symmetrized exactly by construction
    np.testing.assert_array_equal(K, K.T)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-10
    np.testing.assert_allclose(np.diag(K), 3.0, rtol=1e-12)


def test_cross_additive_consistent_with_gram():
    rng = np.random.default_rng(3)
    k = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.4,)),
            FactorKernel(subset=(0, 1), signal_variance=0.6, lengthscales=(0.2, 0.9)),
        )
    )
    X = rng.uniform(size=(6, 2))
    C = cross_additive(k, X, X)
    np.testing.assert_allclose(C, gram(k, X), atol=1e-12)


def test_additive_kernel_requires_factors():
    with pytest.raises(ContractViolationError):
        AdditiveKernel(factors=())


def _cartesian(axes):
    """C-order Cartesian product rows of 1-D axes (the dense oracle's input)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_cross_factor_axes_match_cartesian_points(arity):
    rng = np.random.default_rng(40 + arity)
    f = FactorKernel(
        subset=tuple(range(arity)),
        signal_variance=1.7,
        lengthscales=tuple(rng.uniform(0.1, 0.9, size=arity).tolist()),
    )
    V = rng.uniform(-0.2, 1.2, size=(13, arity))
    equal = tuple(np.linspace(0.0, 1.0, 6) for _ in range(arity))
    unequal = tuple(np.sort(rng.uniform(size=n)) for n in (5, 2, 7, 3)[:arity])
    for axes in (equal, unequal):
        got = cross_factor(f, axes, V)
        want = cross_factor(f, _cartesian(axes), V)
        assert got.shape == want.shape == (math.prod(len(a) for a in axes), 13)
        assert np.abs(got - want).max() <= 1e-14
    if arity == 1:  # one axis is the point form, bit for bit
        np.testing.assert_array_equal(cross_factor(f, unequal, V), want)


def test_cross_additive_axes_match_cartesian_points():
    rng = np.random.default_rng(12)
    k = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1, 2), signal_variance=1.1, lengthscales=(0.3, 0.5, 0.2)),
            FactorKernel(subset=(1, 3), signal_variance=0.6, lengthscales=(0.4, 0.7)),
            FactorKernel(subset=(0, 3), signal_variance=0.9, lengthscales=(0.25, 0.35)),
            FactorKernel(subset=(2,), signal_variance=0.4, lengthscales=(0.3,)),
        )
    )
    Y = rng.uniform(size=(11, 4))
    axes = tuple(np.sort(rng.uniform(size=n)) for n in (4, 3, 5, 2))
    got = cross_additive(k, axes, Y)
    want = cross_additive(k, _cartesian(axes), Y)
    assert got.shape == want.shape == (120, 11)
    assert np.abs(got - want).max() <= 1e-14


def test_axes_count_must_match_arity():
    f = FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.2, 0.2))
    k = AdditiveKernel(factors=(f,))
    V = np.zeros((3, 2))
    with pytest.raises(ContractViolationError):
        cross_factor(f, (np.linspace(0, 1, 4),), V)
    with pytest.raises(ContractViolationError):
        cross_additive(k, (np.linspace(0, 1, 4),) * 3, V)
