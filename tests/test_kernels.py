import math

import numpy as np
import pytest

from fgbo.errors import ContractViolationError
from fgbo.kernels import (
    AdditiveKernel,
    FactorKernel,
    GramBlocks,
    cross_additive,
    cross_factor,
    cross_factors,
    gram,
    split_cross_factor,
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
    X, Z = f.restrict(x.reshape(1, -1)), f.restrict(z.reshape(1, -1))
    assert cross_factor(f, X, Z)[0, 0] == pytest.approx(want, rel=1e-14)
    assert cross_factor(f, X, X)[0, 0] == pytest.approx(1.7)


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
    with pytest.raises(ContractViolationError, match="subset indices must be integers"):
        FactorKernel(subset=(0.5, 1.7), signal_variance=1.0, lengthscales=(0.1, 0.1))


@pytest.mark.parametrize(
    "signal_variance,lengthscale",
    [
        (math.nan, 0.1), (1.0, math.nan), (0.0, 0.1), (1.0, -0.1),
        (math.inf, 0.1), (1.0, math.inf),
    ],
    ids=[
        "nan_variance", "nan_lengthscale", "zero_variance", "negative_lengthscale",
        "inf_variance", "inf_lengthscale",
    ],
)
def test_factor_kernel_refuses_nan_and_nonpositive_hypers(signal_variance, lengthscale):
    with pytest.raises(ContractViolationError, match="must be positive"):
        FactorKernel((0, 1), signal_variance, (0.2, lengthscale))

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
    K = cross_additive(k, x.reshape(1, -1), z.reshape(1, -1))
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(want, rel=1e-12)
    assert k.prior_variance() == pytest.approx(2.0)


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


def test_axes_count_must_match_arity():
    f = FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.2, 0.2))
    V = np.zeros((3, 2))
    with pytest.raises(ContractViolationError):
        cross_factor(f, (np.linspace(0, 1, 4),), V)


def test_cross_factor_axes_must_be_one_dimensional():
    f = FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.2, 0.2))
    V = np.zeros((3, 2))
    axis = np.linspace(0, 1, 4)
    for bad in (np.float64(0.5), axis.reshape(2, 2)):
        with pytest.raises(ContractViolationError, match="1-D"):
            cross_factor(f, (axis, bad), V)


@pytest.mark.parametrize("shape", [(2, 1, 1), (1, 2, 2), (2, 1, 2, 1)])
def test_cross_factor_points_must_be_a_matrix(shape):
    f = FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.2,))
    V = np.zeros((3, 1))
    with pytest.raises(ContractViolationError, match=r"\(m, arity\) array"):
        cross_factor(f, np.zeros(shape), V)
    with pytest.raises(ContractViolationError, match=r"\(n, arity\) array"):
        cross_factor(f, np.zeros((2, 1)), np.zeros(shape))
    with pytest.raises(ContractViolationError, match=r"\(n, arity\) array"):
        cross_factor(f, (np.zeros(2),), np.zeros(shape))


def _fresh_gram(kernel, X):
    """The per-factor reference: sum_f cross_factor(f, U_f, U_f) in factor
    order, which gram equals when no two factors share a signal variance."""
    K = np.zeros((len(X), len(X)))
    for f in kernel.factors:
        U = f.restrict(X)
        K += cross_factor(f, U, U)
    return K


def _grouped_gram(kernel, X):
    """The reference: sum_g s2_g * S_g over the groups of factors that share
    a signal variance, in order of their first factor, where S_g sums the
    group's unscaled (signal variance 1.0) cross_factor blocks in factor
    order."""
    sums = {}
    for f in kernel.factors:
        U = f.restrict(X)
        B = cross_factor(FactorKernel(f.subset, 1.0, f.lengthscales), U, U)
        if f.signal_variance in sums:
            sums[f.signal_variance] += B
        else:
            sums[f.signal_variance] = B
    K = np.zeros((len(X), len(X)))
    for s2, S in sums.items():
        K += s2 * S
    return K


def _scaled(kernel, s2):
    return AdditiveKernel(
        factors=tuple(
            FactorKernel(f.subset, s2 * f.signal_variance, f.lengthscales) for f in kernel.factors
        )
    )


CACHE_KERNELS = {
    "ten_1d": AdditiveKernel(
        factors=tuple(
            FactorKernel(subset=(j,), signal_variance=0.1, lengthscales=(0.2,))
            for j in range(10)
        )
    ),
    "three_overlapping_3d": AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1, 2), signal_variance=0.5, lengthscales=(0.2, 0.3, 0.4)),
            FactorKernel(subset=(2, 3, 4), signal_variance=0.9, lengthscales=(0.5, 0.3, 0.2)),
            FactorKernel(subset=(0, 4, 5), signal_variance=1.3, lengthscales=(0.1, 0.3, 0.7)),
        )
    ),
    "one_4d": AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1, 2, 3), signal_variance=2.1, lengthscales=(0.2, 0.3, 0.4, 0.25)),
        )
    ),
    # two interleaved signal-variance groups of mixed arity
    "two_groups": AdditiveKernel(
        factors=(
            FactorKernel(subset=(0,), signal_variance=0.4, lengthscales=(0.3,)),
            FactorKernel(subset=(1, 2), signal_variance=0.7, lengthscales=(0.2, 0.5)),
            FactorKernel(subset=(2,), signal_variance=0.4, lengthscales=(0.15,)),
            FactorKernel(subset=(3, 4), signal_variance=0.7, lengthscales=(0.4, 0.3)),
            FactorKernel(subset=(0, 5), signal_variance=0.4, lengthscales=(0.6, 0.25)),
        )
    ),
}


@pytest.mark.parametrize("name", sorted(CACHE_KERNELS))
def test_gram_blocks_grown_row_by_row_equal_fresh_gram(name):
    kernel = CACHE_KERNELS[name]
    d = 1 + max(f.subset[-1] for f in kernel.factors)
    X = np.random.default_rng(17).uniform(size=(310, d))
    blocks = GramBlocks(310)
    # two signal variances share one cache: the sums are unscaled
    for t in range(1, 311):
        for s2 in (1.0, 3.7):
            scaled = _scaled(kernel, s2)
            K = gram(scaled, X[:t], blocks)
            np.testing.assert_array_equal(K, _grouped_gram(scaled, X[:t]))
            np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(gram(kernel, X), _grouped_gram(kernel, X))


@pytest.mark.parametrize("name", ["ten_1d", "three_overlapping_3d", "one_4d"])
def test_distinct_signal_variances_give_the_per_factor_sum(name):
    # every factor its own group: K is sum_f s2_f B_f, bit for bit
    kernel = CACHE_KERNELS[name]
    kernel = AdditiveKernel(
        factors=tuple(
            FactorKernel(f.subset, f.signal_variance * (1.0 + 0.1 * i), f.lengthscales)
            for i, f in enumerate(kernel.factors)
        )
    )
    d = 1 + max(f.subset[-1] for f in kernel.factors)
    X = np.random.default_rng(18).uniform(size=(60, d))
    blocks = GramBlocks(60)
    for t in range(1, 61):
        np.testing.assert_array_equal(gram(kernel, X[:t], blocks), _fresh_gram(kernel, X[:t]))
    np.testing.assert_array_equal(gram(kernel, X), _fresh_gram(kernel, X))


def test_gram_blocks_rebuild_on_changed_prefix():
    kernel = CACHE_KERNELS["two_groups"]
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 6))
    blocks = GramBlocks(40)
    gram(kernel, X[:20], blocks)
    Y = X.copy()
    Y[7, 2] += 0.125  # a changed row inside the cached prefix
    for t in (20, 25, 12):
        np.testing.assert_array_equal(gram(kernel, Y[:t], blocks), _grouped_gram(kernel, Y[:t]))
    # fewer rows than were built, then more again, after the prefix changed back
    for t in (10, 30):
        np.testing.assert_array_equal(gram(kernel, X[:t], blocks), _grouped_gram(kernel, X[:t]))


def test_gram_blocks_beyond_capacity_give_the_fresh_gram():
    kernel = CACHE_KERNELS["ten_1d"]
    X = np.random.default_rng(6).uniform(size=(12, 10))
    blocks = GramBlocks(5)
    for t in (4, 12, 5):
        np.testing.assert_array_equal(gram(kernel, X[:t], blocks), _grouped_gram(kernel, X[:t]))
    assert [S.shape for S, _, _ in blocks._sums.values()] == [(5, 5)]


def test_gram_blocks_serve_a_changing_structure():
    # refits under a changing structure equal the grouped Gram, keep the
    # first structure's sum, and grow it when that structure returns
    X = np.random.default_rng(7).uniform(size=(30, 10))
    ten = CACHE_KERNELS["ten_1d"]
    mixed = AdditiveKernel(factors=ten.factors[:4] + CACHE_KERNELS["three_overlapping_3d"].factors)
    blocks = GramBlocks(30)
    gram(ten, X[:20], blocks)
    ((S, _, _),) = blocks._sums.values()
    np.testing.assert_array_equal(gram(mixed, X[:25], blocks), _grouped_gram(mixed, X[:25]))
    # one sum for the ten singletons, then one per group of mixed
    assert len(blocks._sums) == 1 + 4
    np.testing.assert_array_equal(gram(ten, X[:30], blocks), _grouped_gram(ten, X[:30]))
    assert next(iter(blocks._sums.values()))[0] is S


def test_ten_singletons_keep_one_sum():
    # one signal variance over ten factors: one capacity x capacity sum, not ten
    X = np.random.default_rng(8).uniform(size=(305, 10))
    blocks = GramBlocks(305)
    for t in (1, 2, 150, 305):
        gram(CACHE_KERNELS["ten_1d"], X[:t], blocks)
    ((S, _, built),) = blocks._sums.values()
    assert S.shape == (305, 305) and built == 305


@pytest.mark.parametrize("capacity", [-3, 2.5, True, None], ids=["negative", "float", "bool", "none"])
def test_gram_blocks_refuse_a_capacity_not_a_count(capacity):
    with pytest.raises(ContractViolationError, match="capacity"):
        GramBlocks(capacity)


@pytest.mark.parametrize("blocks", [None, GramBlocks(10)], ids=["uncached", "cached"])
def test_gram_refuses_non_matrix_and_non_finite_inputs(blocks):
    kernel = CACHE_KERNELS["one_4d"]
    X = np.random.default_rng(9).uniform(size=(5, 4))
    with pytest.raises(ContractViolationError, match="3 dimensions"):
        gram(kernel, X[None], blocks)
    for bad in (math.nan, math.inf):
        Y = X.copy()
        Y[2, 1] = bad
        with pytest.raises(ContractViolationError, match="finite"):
            gram(kernel, Y, blocks)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_split_cross_factor_splits_after_half_the_axes(arity):
    rng = np.random.default_rng(arity)
    f = FactorKernel(tuple(range(arity)), 1.3, tuple(rng.uniform(0.2, 0.6, arity)))
    axes = tuple(np.linspace(0.0, 1.0, 3 + j) for j in range(arity))
    V = rng.uniform(size=(5, arity))
    KL, KR = split_cross_factor(f, axes, V)
    left = math.prod(len(axis) for axis in axes[: (arity + 1) // 2])
    assert KL.shape == (5, left) and KR.shape == (5, math.prod(len(a) for a in axes) // left)
    want = cross_factor(f, axes, V)
    got = 1.3 * (KL[:, :, None] * KR[:, None, :]).reshape(5, -1).T
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


AXIS = np.linspace(0.0, 1.0, 3)
ONE = FactorKernel((0,), 1.0, (0.3,))
TWO = FactorKernel((0, 1), 1.0, (0.3, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cross_factors((ONE,), (AXIS,), np.zeros((2, 2, 1))),
        lambda: cross_factors((ONE,), (AXIS[:, None],), np.zeros((1, 2, 1))),
        lambda: cross_factors((ONE,), (AXIS,), np.zeros((2, 1))),
        lambda: cross_factors((TWO,), (AXIS,), np.zeros((1, 2, 2))),
        lambda: cross_factors((ONE, TWO), (AXIS,), np.zeros((2, 2, 1))),
        lambda: cross_factors((), (AXIS,), np.zeros((0, 2, 1))),
        lambda: split_cross_factor(TWO, (AXIS,) * 3, np.zeros((2, 2))),
        lambda: split_cross_factor(TWO, (AXIS, AXIS[:, None]), np.zeros((2, 2))),
        lambda: split_cross_factor(TWO, (AXIS, AXIS), np.zeros((1, 2, 2))),
        lambda: split_cross_factor(TWO, (AXIS, AXIS), np.zeros((2, 3))),
        lambda: split_cross_factor(ONE, (AXIS,), np.zeros((2, 1))),
    ],
    ids=[
        "two_slices_one_factor", "axis_2d", "v_rank_2", "one_axis_two_ary",
        "mixed_arity", "no_factors", "split_three_axes_two_ary", "split_axis_2d",
        "split_v_rank_3", "split_v_three_columns", "split_one_ary",
    ],
)
def test_grid_cross_covariances_refuse_malformed_inputs(call):
    with pytest.raises(ContractViolationError):
        call()
