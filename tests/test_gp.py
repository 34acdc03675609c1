import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import fgbo
import fgbo.gp
from fgbo.errors import ContractViolationError, NumericalFailureError
from fgbo.gp import (
    MAX_JITTER_ESCALATIONS,
    ObservationSet,
    dense_cholesky_with_jitter,
    fit,
    log_marginal_likelihood,
)
from fgbo.kernels import AdditiveKernel, FactorKernel, GramBlocks, gram
from fgbo.acquisition import GridSpec, tabulate
from fgbo.selftest import (
    dense_posterior,
    grid_contraction_error,
    packed_table_mismatches,
)


def random_kernel(rng, d, max_factors=3, max_arity=3):
    dims = list(range(d))
    factors = []
    covered = set()
    n = int(rng.integers(1, max_factors + 1))
    for _ in range(n):
        arity = int(rng.integers(1, min(max_arity, d) + 1))
        subset = tuple(sorted(rng.choice(dims, size=arity, replace=False).tolist()))
        if any(f.subset == subset for f in factors):
            continue
        factors.append(
            FactorKernel(
                subset=subset,
                signal_variance=float(rng.uniform(0.3, 2.0)),
                lengthscales=tuple(rng.uniform(0.15, 0.8, size=arity).tolist()),
            )
        )
        covered.update(subset)
    for j in dims:
        if j not in covered:
            factors.append(
                FactorKernel(subset=(j,), signal_variance=0.5, lengthscales=(0.3,))
            )
    return AdditiveKernel(factors=tuple(factors))


def test_factor_posterior_matches_dense_inverse_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        kernel = random_kernel(rng, d)
        t = int(rng.integers(3, 15))
        obs = ObservationSet(
            rng.uniform(size=(t, d)), rng.normal(size=t), float(rng.uniform(0.01, 0.3))
        )
        post = fit(kernel, obs)
        x = rng.uniform(size=(1, d))
        for i, f in enumerate(kernel.factors):
            (mean,), (var,) = post.factor_mean_var_batch(i, f.restrict(x))
            omean, ovar = dense_posterior(kernel, obs, x, i)
            assert mean == pytest.approx(omean, rel=1e-8, abs=1e-10)
            assert var == pytest.approx(ovar, rel=1e-8, abs=1e-10)


def test_objective_posterior_matches_dense_inverse_oracle():
    rng = np.random.default_rng(7)
    kernel = random_kernel(rng, 3)
    obs = ObservationSet(rng.uniform(size=(10, 3)), rng.normal(size=10), 0.05)
    post = fit(kernel, obs)
    X = rng.uniform(size=(4, 3))
    mean, var = post.objective_mean_var_batch(X)
    for m in range(4):
        want_mean, want_var = dense_posterior(kernel, obs, X[m])
        assert mean[m] == pytest.approx(want_mean, rel=1e-8, abs=1e-10)
        assert var[m] == pytest.approx(want_var, rel=1e-8, abs=1e-10)


def test_mean_additivity():
    # sum of factor posterior means must equal the full posterior mean
    rng = np.random.default_rng(99)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        kernel = random_kernel(rng, d, max_factors=4)
        t = int(rng.integers(1, 20))
        obs = ObservationSet(rng.uniform(size=(t, d)), rng.normal(size=t), 0.1)
        post = fit(kernel, obs)
        x = rng.uniform(size=(1, d))
        total = sum(
            post.factor_mean_var_batch(i, f.restrict(x))[0][0]
            for i, f in enumerate(kernel.factors)
        )
        full, _ = dense_posterior(kernel, obs, x)
        assert abs(total - full) < 1e-8


def test_variance_never_negative_near_duplicates():
    rng = np.random.default_rng(17)
    kernel = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.1, 0.1)),
        )
    )
    base = rng.uniform(size=(1, 2))
    X = np.repeat(base, 8, axis=0) + rng.normal(scale=1e-9, size=(8, 2))
    obs = ObservationSet(X, rng.normal(size=8), 1e-6)
    post = fit(kernel, obs)
    _, var = post.factor_mean_var_batch(0, X[:, :2])
    assert (var >= 0.0).all()


def test_jitter_escalates_on_singular_gram():
    A = np.ones((4, 4))  # rank 1, cholesky fails without jitter
    L, jitter = dense_cholesky_with_jitter(A)
    assert jitter > 0
    np.testing.assert_allclose(L @ L.T, A + jitter * np.eye(4), atol=1e-12)


def test_jitter_gives_up_with_error():
    A = -np.eye(3)  # never positive definite at these jitter scales
    with pytest.raises(NumericalFailureError) as exc:
        dense_cholesky_with_jitter(A)
    assert exc.value.jitter is not None
    assert exc.value.jitter > 0


def test_jitter_escalation_count():
    calls = []
    orig = np.linalg.cholesky

    def spy(a):
        calls.append(1)
        return orig(a)

    np.linalg.cholesky = spy
    try:
        with pytest.raises(NumericalFailureError):
            dense_cholesky_with_jitter(-np.eye(2))
    finally:
        np.linalg.cholesky = orig
    assert len(calls) == MAX_JITTER_ESCALATIONS + 1


@pytest.mark.parametrize(
    "X, y", [(np.zeros((0, 2)), np.zeros(0)), ([], [])], ids=["no_rows", "empty_lists"]
)
def test_observation_set_refuses_an_empty_set(X, y):
    with pytest.raises(ContractViolationError, match="at least one observation"):
        ObservationSet(X, y, 0.1)


def test_observation_set_validation():
    with pytest.raises(ContractViolationError):
        ObservationSet(np.zeros((3, 2)), np.zeros(2), 0.1)
    with pytest.raises(ContractViolationError):
        ObservationSet(np.zeros((2, 2)), np.zeros(2), 0.0)
    # fitting such an X would raise numpy's einsum ValueError
    with pytest.raises(ContractViolationError, match="X must be a"):
        ObservationSet(np.zeros((2, 2, 2)), np.zeros(2), 0.1)


@pytest.mark.parametrize(
    "noise", [math.nan, 0.0, -0.1, math.inf], ids=["nan", "zero", "negative", "inf"]
)
def test_observation_set_refuses_nan_and_nonpositive_noise(noise):
    with pytest.raises(ContractViolationError, match="noise variance must be > 0"):
        ObservationSet(np.zeros((2, 1)), np.zeros(2), noise)

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observations_raise_contract_violation(bad):
    with pytest.raises(ContractViolationError, match="finite"):
        ObservationSet([[0.1], [bad]], [0.0, 1.0], 0.1)
    with pytest.raises(ContractViolationError, match="finite"):
        ObservationSet([[0.1], [0.2]], [0.0, bad], 0.1)


def test_log_marginal_likelihood_matches_mvn_logpdf():
    rng = np.random.default_rng(31)
    kernel = random_kernel(rng, 3)
    obs = ObservationSet(rng.uniform(size=(8, 3)), rng.normal(size=8), 0.2)
    C = gram(kernel, obs.X) + 0.2 * np.eye(8)
    want = stats.multivariate_normal(mean=np.zeros(8), cov=C).logpdf(obs.y)
    got = log_marginal_likelihood(kernel, obs)
    assert got == pytest.approx(want, rel=1e-10)


def test_log_marginal_likelihood_1x1_hand_value():
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=2.0, lengthscales=(0.5,)),)
    )
    obs = ObservationSet(np.array([[0.3]]), np.array([1.1]), 0.5)
    c = 2.0 + 0.5
    want = -0.5 * 1.1**2 / c - 0.5 * math.log(c) - 0.5 * math.log(2 * math.pi)
    assert log_marginal_likelihood(kernel, obs) == pytest.approx(want, rel=1e-12)


def test_log_marginal_likelihood_scores_a_given_gram_and_refuses_a_non_finite_one():
    rng = np.random.default_rng(32)
    kernel = random_kernel(rng, 3)
    obs = ObservationSet(rng.uniform(size=(8, 3)), rng.normal(size=8), 0.2)
    assert log_marginal_likelihood(gram(kernel, obs.X), obs) == log_marginal_likelihood(
        kernel, obs
    )
    for K in (np.full((8, 8), np.nan), np.full((8, 8), np.inf), np.eye(7)):
        with pytest.raises(ContractViolationError, match="finite"):
            log_marginal_likelihood(K, obs)


def test_the_cholesky_solve_is_scipys_and_checks_lapack_info(monkeypatch):
    # _factorize calls LAPACK's dpotrs itself; cho_solve makes the same call
    from scipy.linalg import cho_solve

    rng = np.random.default_rng(33)
    kernel = random_kernel(rng, 3)
    for t in (1, 2, 15, 60):
        obs = ObservationSet(rng.uniform(size=(t, 3)), rng.normal(size=t), 0.2)
        K = gram(kernel, obs.X)
        L, _, alpha = fgbo.gp._factorize(K.copy(), obs)
        want = cho_solve((L, True), obs.y, check_finite=False)
        assert np.array_equal(alpha.view(np.uint64), want.view(np.uint64))
    monkeypatch.setattr(fgbo.gp, "dpotrs", lambda c, b, lower: (b.copy(), -2))
    with pytest.raises(NumericalFailureError, match="LAPACK info -2"):
        fit(kernel, obs)


def test_log_marginal_likelihood_needs_data():
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.3,)),)
    )
    with pytest.raises(ContractViolationError):
        log_marginal_likelihood(kernel, ObservationSet(np.zeros((0, 1)), np.zeros(0), 0.1))


def test_batch_arity_is_checked():
    rng = np.random.default_rng(4)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0, 1, 2), signal_variance=1.0, lengthscales=(0.3,) * 3),)
    )
    axis = np.linspace(0.0, 1.0, 4)
    post = fit(kernel, ObservationSet(rng.uniform(size=(5, 3)), rng.normal(size=5), 0.1))
    for inputs in ((), (axis, axis), rng.uniform(size=(5, 2))):
        with pytest.raises(ContractViolationError, match="arity 3"):
            post.factor_mean_var_batch(0, inputs)


@pytest.mark.parametrize(
    "index",
    [1.5, True, -1, 2, np.float64(1.0)],
    ids=["float", "bool", "negative", "past_end", "np_float"],
)
def test_factor_index_must_be_an_integer_in_range(index):
    rng = np.random.default_rng(4)
    kernel = AdditiveKernel(factors=tuple(FactorKernel((j,), 1.0, (0.3,)) for j in range(2)))
    post = fit(kernel, ObservationSet(rng.uniform(size=(5, 2)), rng.normal(size=5), 0.1))
    U = rng.uniform(size=(3, 1))
    with pytest.raises(ContractViolationError, match=r"integer in \[0, 2\)"):
        post.factor_mean_var_batch(index, U)
    # a numpy integer is an index
    np.testing.assert_array_equal(
        post.factor_mean_var_batch(np.int64(1), U)[0], post.factor_mean_var_batch(1, U)[0]
    )


def test_batch_axes_must_be_one_dimensional():
    rng = np.random.default_rng(5)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3,) * 2),)
    )
    axis = np.linspace(0.0, 1.0, 4)
    post = fit(kernel, ObservationSet(rng.uniform(size=(5, 2)), rng.normal(size=5), 0.1))
    for bad in (np.float64(0.5), axis.reshape(2, 2)):
        with pytest.raises(ContractViolationError, match="1-D"):
            post.factor_mean_var_batch(0, (axis, bad))


@pytest.mark.parametrize("shape", [(2, 1, 1), (1, 2, 2), (2, 1, 2, 1)])
def test_batch_points_must_be_a_matrix(shape):
    rng = np.random.default_rng(6)
    kernel = AdditiveKernel((FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.3,)),))
    post = fit(kernel, ObservationSet(rng.uniform(size=(5, 1)), rng.normal(size=5), 0.1))
    points = np.zeros(shape)
    with pytest.raises(ContractViolationError, match=r"\(m, k\) array"):
        post.factor_mean_var_batch(0, points)
    with pytest.raises(ContractViolationError, match=r"\(m, k\) array"):
        post.objective_mean_var_batch(points)


def _cartesian(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_batch_posteriors_agree_between_axes_and_points():
    rng = np.random.default_rng(77)
    kernel = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1, 2), signal_variance=1.2, lengthscales=(0.3, 0.5, 0.4)),
            FactorKernel(subset=(1, 3), signal_variance=0.8, lengthscales=(0.4, 0.6)),
            FactorKernel(subset=(3,), signal_variance=0.5, lengthscales=(0.3,)),
        )
    )
    obs = ObservationSet(rng.uniform(size=(30, 4)), rng.normal(size=30), 0.1)
    post = fit(kernel, obs)
    axes = tuple(np.sort(rng.uniform(size=n)) for n in (5, 4, 6, 3))
    for i, f in enumerate(kernel.factors):
        sub = tuple(axes[j] for j in f.subset)
        for got, want in zip(
            post.factor_mean_var_batch(i, sub),
            post.factor_mean_var_batch(i, _cartesian(sub)),
        ):
            assert np.abs(got - want).max() <= 1e-12


def test_objective_posterior_refuses_axes():
    # d axes of length d would otherwise read as d points
    rng = np.random.default_rng(78)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3, 0.3)),)
    )
    axes = (np.array([0.1, 0.6]), np.array([0.2, 0.9]))
    post = fit(kernel, ObservationSet(rng.uniform(size=(5, 2)), rng.normal(size=5), 0.1))
    with pytest.raises(ContractViolationError, match="not axes"):
        post.objective_mean_var_batch(axes)
    assert post.objective_mean_var_batch(np.stack(axes))[0].shape == (2,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_batch_inputs_raise_contract_violation(bad):
    rng = np.random.default_rng(5)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3, 0.3)),)
    )
    post = fit(kernel, ObservationSet(rng.uniform(size=(6, 2)), rng.normal(size=6), 0.1))
    points = np.array([[0.2, 0.3], [0.4, bad]])
    axes = (np.array([0.2, bad]), np.array([0.1, 0.5]))
    for inputs in (points, axes, [[bad, 0.5]]):
        with pytest.raises(ContractViolationError):
            post.factor_mean_var_batch(0, inputs)
        with pytest.raises(ContractViolationError):
            post.objective_mean_var_batch(inputs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_variance_raises_numerical_failure(monkeypatch):
    import fgbo.gp

    rng = np.random.default_rng(6)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.3,)),)
    )
    post = fit(kernel, ObservationSet(rng.uniform(size=(5, 1)), rng.normal(size=5), 0.1))

    def overflowing(*args):  # a cross-covariance that overflowed
        K = np.ones((3, 5))
        K[1, 2] = math.inf
        return K

    monkeypatch.setattr(fgbo.gp, "cross_factor", overflowing)
    monkeypatch.setattr(fgbo.gp, "cross_additive", overflowing)
    axes = (np.linspace(0.0, 1.0, 3),)
    with pytest.raises(NumericalFailureError, match="not finite"):
        post.factor_mean_var_batch(0, axes)
    with pytest.raises(NumericalFailureError, match="not finite"):
        post.objective_mean_var_batch(axes[0].reshape(-1, 1))


PACK_CASES = [
    # (arities, tau, t).  OpenBLAS takes a factor's (tau^|I| x t)(t x t)
    # variance product with its small-matrix GEMM kernel when tau^|I| t^2 is
    # below about 1e6, so each arity runs at a t on either side
    ((1,) * 10, 15, 17),
    ((1,) * 10, 15, 300),
    ((1,) * 300, 15, 5),  # two packs: 273 singletons, then 27
    ((2,) * 4, 7, 17),
    ((2,) * 4, 7, 150),
    ((2, 2, 2), 17, 45),
    ((3, 3, 3), 7, 17),
    ((3, 3, 3), 7, 60),
    ((3, 3), 15, 45),  # 3375 rows: each factor alone
    ((1, 2, 3, 2, 1, 3), 6, 35),
]


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("arities, tau, t", PACK_CASES)
def test_packed_tables_are_bitwise_one_factor_at_a_time(arities, tau, t, weighted):
    seed = 7 * tau + t + len(arities)
    assert packed_table_mismatches(arities, tau, t, seed, weighted) == 0


def test_grid_posterior_packs_small_factors_of_one_arity():
    # sub-grids of 16, 256 and 4096 rows at tau 16: the singletons share one
    # pack, the pairs two packs of at most BLOCK_ROWS rows, and the 4096-row
    # triple is alone
    rng = np.random.default_rng(31)
    subsets = [(j,) for j in range(10)] + [(j, j + 1) for j in range(20)] + [(0, 1, 2)]
    kernel = AdditiveKernel(tuple(FactorKernel(s, 1.0, (0.3,) * len(s)) for s in subsets))
    post = fit(kernel, ObservationSet(rng.uniform(size=(9, 21)), rng.normal(size=9), 0.1))
    axis = np.linspace(0.0, 1.0, 16)
    packs = [(pack, len(mean), len(var)) for pack, mean, var in post.grid_mean_var(axis)]
    pairs = list(range(10, 30))
    assert packs == [
        (list(range(10)), 160, 160),
        (pairs[:16], 4096, 4096),
        (pairs[16:], 1024, 1024),
        ([30], 4096, 4096),
    ]


def test_a_pack_is_one_posterior_pass(monkeypatch):
    # ten singleton factors, as in a Michalewicz-10 additive run: one
    # cross-covariance, and no call of the one-factor path
    rng = np.random.default_rng(32)
    kernel = AdditiveKernel(tuple(FactorKernel((j,), 1.0, (0.2,)) for j in range(10)))
    post = fit(kernel, ObservationSet(rng.uniform(size=(12, 10)), rng.normal(size=12), 0.1))
    packed, single = [], []
    real = fgbo.gp.cross_factors
    monkeypatch.setattr(fgbo.gp, "cross_factors", lambda *a: packed.append(1) or real(*a))
    monkeypatch.setattr(fgbo.gp, "cross_factor", lambda *a: single.append(1))
    assert [pack for pack, _, _ in post.grid_mean_var(np.linspace(0.0, 1.0, 16))] == [
        list(range(10))
    ]
    assert (len(packed), len(single)) == (1, 0)


@pytest.mark.parametrize("lengths", [(0,), (0, 5), (5, 0, 3)])
def test_empty_axis_gives_empty_posteriors(lengths):
    rng = np.random.default_rng(3)
    k = len(lengths)
    kernel = AdditiveKernel((FactorKernel(tuple(range(k)), 1.0, (0.3,) * k),))
    axes = tuple(np.linspace(0.0, 1.0, n) for n in lengths)
    post = fit(kernel, ObservationSet(rng.uniform(size=(4, k)), rng.normal(size=4), 0.1))
    mean, var = post.factor_mean_var_batch(0, axes)
    assert mean.shape == var.shape == (0,)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "scale, message", [(1e200, "not finite"), (10.0, "below")]
)
def test_a_direct_product_checks_its_variances(monkeypatch, scale, message):
    # the one cross-covariance of a batch of points of a pair factor and of
    # one long axis of a singleton, corrupted: its variances are checked
    rng = np.random.default_rng(12)
    n = 4 * fgbo.gp.BLOCK_ROWS
    points = rng.uniform(size=(n, 2))
    axis = (np.linspace(0.0, 1.0, n),)
    assert not fgbo.gp._contracts([n])
    real = fgbo.gp.cross_factor
    calls = []

    def scaled(f, U, V):
        K = real(f, U, V)
        calls.append(len(K))
        return K * scale

    monkeypatch.setattr(fgbo.gp, "cross_factor", scaled)
    for U, t in ((points, 6), (axis, 32)):
        k = len(U) if isinstance(U, tuple) else U.shape[1]
        kernel = AdditiveKernel((FactorKernel(tuple(range(k)), 1.0, (0.3,) * k),))
        post = fit(kernel, ObservationSet(rng.uniform(size=(t, k)), rng.normal(size=t), 0.1))
        calls.clear()
        with pytest.raises(NumericalFailureError, match=message):
            post.factor_mean_var_batch(0, U)
        assert calls == [n]


@pytest.mark.parametrize("t", [1, 400])
@pytest.mark.parametrize(
    "lengths, contracts",
    [
        ((16,) * 4, True),
        ((32,) * 3, True),
        ((64, 64), True),
        ((64,) * 3, True),
        ((4096,), False),  # one axis
        ((16, 255), False),  # fewer than BLOCK_ROWS rows
        ((16, 0, 512), False),
    ],
)
def test_every_large_grid_of_several_axes_contracts(monkeypatch, lengths, contracts, t):
    # the rule reads only the axis lengths: at t = 1 and at t = 400 alike a
    # grid of two or more axes and at least BLOCK_ROWS rows is contracted
    # (stubbed here), and anything else is one direct product
    assert fgbo.gp._contracts(lengths) is contracts
    rng = np.random.default_rng(t + len(lengths))
    k = len(lengths)
    kernel = AdditiveKernel((FactorKernel(tuple(range(k)), 1.0, (0.3,) * k),))
    post = fit(kernel, ObservationSet(rng.uniform(size=(t, k)), rng.normal(size=t), 0.1))
    m = math.prod(lengths)
    taken = []

    def stub(f, axes, V):
        taken.append(len(V))
        return np.zeros(m), np.ones(m)

    monkeypatch.setattr(post, "_contraction_mean_var", stub)
    mean, var = post.factor_mean_var_batch(0, tuple(np.linspace(0.0, 1.0, n) for n in lengths))
    assert taken == ([t] if contracts else [])
    assert mean.shape == var.shape == (m,)


def test_contraction_matches_dense_inverse_oracle(monkeypatch):
    # a 3-ary factor of a two-factor kernel on a 16^3 grid, never building
    # its cross-covariance
    rng = np.random.default_rng(41)
    kernel = AdditiveKernel(
        (FactorKernel((0, 2, 3), 0.8, (0.3, 0.5, 0.4)), FactorKernel((1,), 0.6, (0.2,)))
    )
    obs = ObservationSet(rng.uniform(size=(20, 4)), rng.normal(size=20), 0.05)
    post = fit(kernel, obs)
    axes = tuple(np.linspace(0.0, 1.0, 16) for _ in range(3))
    assert fgbo.gp._contracts((16,) * 3)
    monkeypatch.setattr(fgbo.gp, "cross_factor", None)
    mean, var = post.factor_mean_var_batch(0, axes)
    for r in rng.choice(16**3, size=12, replace=False):
        x = np.zeros(4)
        x[[0, 2, 3]] = [axis[i] for axis, i in zip(axes, np.unravel_index(r, (16,) * 3))]
        want_mean, want_var = dense_posterior(kernel, obs, x, 0)
        assert mean[r] == pytest.approx(want_mean, rel=1e-8, abs=1e-10)
        assert var[r] == pytest.approx(want_var, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize(
    "lengths, t", [((5, 30, 40), 30), ((70, 64), 40), ((3, 16, 16, 17), 60), ((9, 5, 7, 13, 11), 25)]
)
def test_contraction_on_unequal_axes_is_the_one_block_product(lengths, t):
    assert fgbo.gp._contracts(lengths)
    error, low = grid_contraction_error(lengths, t, seed=sum(lengths) + t)
    assert error <= 1e-10 and low > 0.0


def test_tabulate_with_weights_through_the_contraction(monkeypatch):
    # the 3-ary factor at tau 16 is contracted, the singleton and the pair
    # share a pack: every table equals one factor at a time, and the
    # contracted table is close to the direct product's
    assert packed_table_mismatches((3, 1, 2), 16, 17, seed=5, weighted=True) == 0
    rng = np.random.default_rng(6)
    kernel = AdditiveKernel(
        (FactorKernel((0, 1, 2), 1.2, (0.3, 0.4, 0.5)), FactorKernel((3,), 0.7, (0.2,)))
    )
    post = fit(kernel, ObservationSet(rng.uniform(size=(17, 4)), rng.normal(size=17), 0.01))
    grid = GridSpec(per_dim_points=16, num_dims=4)
    contracted = tabulate(post, grid, 2.5, [0.4, 1.7]).tables
    monkeypatch.setattr(fgbo.gp, "_contracts", lambda lengths: False)
    blocked = tabulate(post, grid, 2.5, [0.4, 1.7]).tables
    np.testing.assert_allclose(contracted[0], blocked[0], rtol=0, atol=1e-10)
    np.testing.assert_array_equal(contracted[1], blocked[1])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scale, message", [(1e200, "not finite"), (10.0, "below")])
def test_contraction_checks_its_variances(monkeypatch, scale, message):
    rng = np.random.default_rng(13)
    kernel = AdditiveKernel((FactorKernel((0, 1), 1.0, (0.3, 0.3)),))
    post = fit(kernel, ObservationSet(rng.uniform(size=(6, 2)), rng.normal(size=6), 0.1))
    axes = (np.linspace(0.0, 1.0, 64), np.linspace(0.0, 1.0, 64))
    assert fgbo.gp._contracts((64, 64))
    real = fgbo.gp.split_cross_factor

    def scaled(*args):
        KL, KR = real(*args)
        return KL * scale, KR

    monkeypatch.setattr(fgbo.gp, "split_cross_factor", scaled)
    with pytest.raises(NumericalFailureError, match=message):
        post.factor_mean_var_batch(0, axes)


def test_tabulation_peak_allocation():
    # 65536-row grids, both contracted: a 4-ary factor at tau 16, and a
    # 3-ary one whose 2048-wide left side takes MIN_CHUNK_PAIRS pairs per
    # chunk.  The contraction's chunks, not the (m x t) arrays, set the peak
    for lengths, t in (((16,) * 4, 45), ((64, 32, 32), 64)):
        assert fgbo.gp._contracts(lengths)
        k = len(lengths)
        rng = np.random.default_rng(10)
        kernel = AdditiveKernel((FactorKernel(tuple(range(k)), 1.0, (0.3,) * k),))
        post = fit(kernel, ObservationSet(rng.uniform(size=(t, k)), rng.normal(size=t), 0.01))
        axes = tuple(np.linspace(0.0, 1.0, n) for n in lengths)
        tracemalloc.start()
        try:
            post.factor_mean_var_batch(0, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (math.prod(lengths) * t * 8) < 0.5


@pytest.mark.parametrize(
    "lengths, pairs",
    [
        ((64, 64, 64), fgbo.gp.MIN_CHUNK_PAIRS),  # 4096 wide: the floor binds
        ((16,) * 4, fgbo.gp.PAIR_CHUNK_ENTRIES // 256),
    ],
)
def test_a_pair_chunk_holds_at_least_min_chunk_pairs(lengths, pairs):
    # t = 20 gives 210 pairs, more than one chunk in both cases; the cached
    # pair weights a record the slice each chunk takes of them
    assert fgbo.gp.MIN_CHUNK_PAIRS == 32
    rng = np.random.default_rng(14)
    k = len(lengths)
    kernel = AdditiveKernel((FactorKernel(tuple(range(k)), 1.0, (0.3,) * k),))
    post = fit(kernel, ObservationSet(rng.uniform(size=(20, k)), rng.normal(size=20), 0.1))
    sizes = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            taken = np.asarray(self)[key]
            sizes.append(len(taken))
            return taken

    i, j, a = post._pairs
    post.__dict__["_pairs"] = (i, j, a.view(Recorded))
    post.factor_mean_var_batch(0, tuple(np.linspace(0.0, 1.0, n) for n in lengths))
    assert sizes == [pairs] * (210 // pairs) + [210 % pairs]


def test_warm_fit_peak_allocation():
    # one new row on a cache warmed at t - 1: K, L and L's column-major copy
    # are the only t x t arrays a fit holds at once
    t = 300
    rng = np.random.default_rng(8)
    kernel = AdditiveKernel(
        factors=tuple(
            FactorKernel(subset=(j,), signal_variance=0.1, lengthscales=(0.2,))
            for j in range(10)
        )
    )
    X, y = rng.uniform(size=(t, 10)), rng.normal(size=t)
    blocks = GramBlocks(t)
    fit(kernel, ObservationSet(X[:-1], y[:-1], 0.01), blocks)
    obs = ObservationSet(X, y, 0.01)
    tracemalloc.start()
    try:
        fit(kernel, obs, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three t x t arrays plus O(t) vectors
    assert peak / (t * t * 8) < 3.1


def test_fits_through_a_cache_equal_uncached():
    rng = np.random.default_rng(9)
    kernel = random_kernel(rng, 4)
    X, y = rng.uniform(size=(40, 4)), rng.normal(size=40)
    blocks = GramBlocks(40)
    for t in range(1, 41):
        obs = ObservationSet(X[:t], y[:t], 0.05)
        cached, fresh = fit(kernel, obs, blocks), fit(kernel, obs)
        np.testing.assert_array_equal(cached.weights, fresh.weights)
        np.testing.assert_array_equal(cached._Linv, fresh._Linv)
