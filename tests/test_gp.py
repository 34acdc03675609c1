import math

import numpy as np
import pytest
from scipy import stats

from fgbo.errors import ContractViolationError, NumericalFailureError
from fgbo.gp import (
    MAX_JITTER_ESCALATIONS,
    ObservationSet,
    dense_cholesky_with_jitter,
    fit,
    log_marginal_likelihood,
)
from fgbo.kernels import AdditiveKernel, FactorKernel, cross_factor, gram


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


def oracle_factor_posterior(kernel, i, obs, x):
    """Dense np.linalg.inv reference for one factor's posterior at x."""
    K = gram(kernel, obs.X) + obs.noise_variance * np.eye(len(obs))
    Kinv = np.linalg.inv(K)
    f = kernel.factors[i]
    u = f.restrict(np.asarray(x).reshape(1, -1))
    kx = cross_factor(f, u, f.restrict(obs.X)).ravel()
    mean = kx @ Kinv @ obs.y
    var = f.signal_variance - kx @ Kinv @ kx
    return mean, var


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
        x = rng.uniform(size=d)
        for i in range(kernel.num_factors):
            mean, var = post.factor_mean_var(i, x)
            omean, ovar = oracle_factor_posterior(kernel, i, obs, x)
            assert mean == pytest.approx(omean, rel=1e-8, abs=1e-10)
            assert var == pytest.approx(ovar, rel=1e-8, abs=1e-10)


def test_objective_posterior_matches_dense_inverse_oracle():
    rng = np.random.default_rng(7)
    kernel = random_kernel(rng, 3)
    obs = ObservationSet(rng.uniform(size=(10, 3)), rng.normal(size=10), 0.05)
    post = fit(kernel, obs)
    X = rng.uniform(size=(4, 3))
    mean, var = post.objective_mean_var_batch(X)
    K = gram(kernel, obs.X) + 0.05 * np.eye(10)
    Kinv = np.linalg.inv(K)
    for m in range(4):
        kx = np.array([sum(
            cross_factor(f, f.restrict(X[m : m + 1]), f.restrict(obs.X)).ravel()[j]
            for f in kernel.factors
        ) for j in range(10)])
        assert mean[m] == pytest.approx(kx @ Kinv @ obs.y, rel=1e-8, abs=1e-10)
        want_var = kernel.prior_variance(X[m]) - kx @ Kinv @ kx
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
        x = rng.uniform(size=d)
        total = sum(post.factor_mean_var(i, x)[0] for i in range(kernel.num_factors))
        full, _ = post.objective_mean_var(x)
        assert abs(total - full) < 1e-8


def test_empty_observation_set_returns_prior():
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.3, lengthscales=(0.2,)),)
    )
    obs = ObservationSet(np.zeros((0, 1)), np.zeros(0), 0.1)
    post = fit(kernel, obs)
    mean, var = post.factor_mean_var(0, np.array([0.4]))
    assert mean == 0.0
    assert var == pytest.approx(1.3)
    mean, var = post.objective_mean_var(np.array([0.4]))
    assert mean == 0.0
    assert var == pytest.approx(1.3)


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


def test_observation_set_validation():
    with pytest.raises(ContractViolationError):
        ObservationSet(np.zeros((3, 2)), np.zeros(2), 0.1)
    with pytest.raises(ContractViolationError):
        ObservationSet(np.zeros((2, 2)), np.zeros(2), 0.0)


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


def test_log_marginal_likelihood_needs_data():
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.3,)),)
    )
    with pytest.raises(ContractViolationError):
        log_marginal_likelihood(kernel, ObservationSet(np.zeros((0, 1)), np.zeros(0), 0.1))


def test_zero_observation_fit_has_zero_jitter():
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3, 0.3)),)
    )
    post = fit(kernel, ObservationSet(np.zeros((0, 2)), np.zeros(0), 0.1))
    assert post.jitter == 0.0
    mean, var = post.factor_mean_var_batch(0, (np.linspace(0, 1, 3), np.linspace(0, 1, 4)))
    np.testing.assert_array_equal(mean, np.zeros(12))
    np.testing.assert_array_equal(var, np.ones(12))


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
    for got, want in zip(
        post.objective_mean_var_batch(axes),
        post.objective_mean_var_batch(_cartesian(axes)),
    ):
        assert got.shape == (360,)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_batch_inputs_raise_contract_violation(bad):
    rng = np.random.default_rng(5)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0, 1), signal_variance=1.0, lengthscales=(0.3, 0.3)),)
    )
    for t in (0, 6):
        post = fit(kernel, ObservationSet(rng.uniform(size=(t, 2)), rng.normal(size=t), 0.1))
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
