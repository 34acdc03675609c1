"""Synthetic benchmark functions: published optima, bounds, noise, prior draws."""

import math

import numpy as np
import pytest

from fgbo.bench import (
    MAX_SAMPLE_GRID,
    OBJECTIVES,
    benchmark_constants,
    evaluate,
    evaluate_batch,
    hartmann6,
    make_objective,
    michalewicz10,
    noisy_evaluate,
    prior_sample_objective,
    shekel4,
)
from fgbo.errors import ConfigurationError, ContractViolationError
from fgbo.gp import dense_cholesky_with_jitter
from fgbo.kernels import AdditiveKernel, FactorKernel, cross_factor
from fgbo.selftest import michalewicz_per_dim_search


def test_shekel_known_optimum():
    obj = shekel4()
    assert evaluate(obj, obj.known_argmin) == pytest.approx(-10.5364, abs=1e-3)
    # the published argmin is rounded; a tiny local refinement must not
    # move the value by more than the quoted precision
    rng = np.random.default_rng(0)
    X = np.clip(np.array(obj.known_argmin) + 1e-3 * rng.standard_normal((256, 4)), 0, 10)
    assert evaluate_batch(obj, X).min() >= obj.known_optimum - 1e-3


def test_hartmann6_known_optimum():
    obj = hartmann6()
    assert evaluate(obj, obj.known_argmin) == pytest.approx(-3.32237, abs=1e-4)


def test_michalewicz_optimum_recovered_per_dimension():
    # the objective is separable: optimize each coordinate independently
    obj = michalewicz10()
    total, x_best = michalewicz_per_dim_search()
    assert total == pytest.approx(-9.66015, abs=1e-2)
    assert evaluate(obj, x_best) == pytest.approx(total, abs=1e-12)


def test_michalewicz_range():
    # every term is nonneg on [0, pi], so f <= 0 and f is bounded below
    # by the global optimum
    obj = michalewicz10()
    rng = np.random.default_rng(7)
    vals = evaluate_batch(obj, rng.uniform(0.0, math.pi, size=(300_000, 10)))
    assert vals.max() <= 0.0
    assert vals.min() > -9.67


def test_out_of_bounds_raises():
    obj = shekel4()
    with pytest.raises(ContractViolationError):
        evaluate(obj, (11.0, 4.0, 4.0, 4.0))
    with pytest.raises(ContractViolationError):
        evaluate(obj, (-0.5, 4.0, 4.0, 4.0))
    with pytest.raises(ContractViolationError):
        evaluate(obj, (4.0, 4.0, 4.0))  # wrong dimension count


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_evaluate_batch_of_no_rows_is_empty_and_nan_is_out_of_bounds(name):
    obj = make_objective(name)
    out = evaluate_batch(obj, np.empty((0, obj.dims)))
    assert out.shape == (0,)
    x = np.array([lo for lo, _ in obj.box])
    x[-1] = math.nan
    with pytest.raises(ContractViolationError, match="outside box"):
        evaluate_batch(obj, x)


@pytest.mark.parametrize(
    "noise", [math.nan, -0.1, math.inf], ids=["nan", "negative", "inf"]
)
def test_noisy_evaluate_refuses_nan_and_negative_variance(noise):
    obj = shekel4()
    with pytest.raises(ContractViolationError, match="noise variance must be >= 0"):
        noisy_evaluate(obj, (1.0, 2.0, 3.0, 4.0), noise, np.random.default_rng(0))

def test_noisy_evaluate_statistics():
    obj = hartmann6()
    x = (0.3, 0.4, 0.5, 0.6, 0.2, 0.1)
    clean = evaluate(obj, x)
    rng = np.random.default_rng(123)
    draws = np.array([noisy_evaluate(obj, x, 0.25, rng) for _ in range(10_000)])
    assert abs(draws.mean() - clean) < 0.02  # sd of mean is 0.005
    assert draws.var() == pytest.approx(0.25, rel=0.1)


def test_noisy_evaluate_zero_variance_and_rng_contract():
    obj = shekel4()
    x = (1.0, 2.0, 3.0, 4.0)
    rng = np.random.default_rng(5)
    assert noisy_evaluate(obj, x, 0.0, rng) == evaluate(obj, x)
    a = noisy_evaluate(obj, x, 1.0, np.random.default_rng(42))
    b = noisy_evaluate(obj, x, 1.0, np.random.default_rng(42))
    c = noisy_evaluate(obj, x, 1.0, np.random.default_rng(43))
    assert a == b
    assert a != c
    with pytest.raises(ContractViolationError):
        noisy_evaluate(obj, x, -0.1, rng)


def _two_factor_kernel():
    return AdditiveKernel(
        (
            FactorKernel((0, 1), 1.5, (0.4, 0.6)),
            FactorKernel((1, 2), 0.8, (0.5, 0.3)),
        )
    )


def test_prior_sample_matches_draws_at_grid_nodes():
    # replicate the construction with an identically seeded rng: posterior
    # mean interpolation must reproduce the sampled values on the grid
    kernel = _two_factor_kernel()
    box = ((0.0, 1.0),) * 3
    values = [np.linspace(0.0, 1.0, 6) for _ in range(3)]
    obj = prior_sample_objective(kernel, box, 6, np.random.default_rng(99))

    rng = np.random.default_rng(99)
    for f in kernel.factors:
        mesh = np.meshgrid(*(values[j] for j in f.subset), indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=-1)
        K = cross_factor(f, U, U)
        L, _ = dense_cholesky_with_jitter(K)
        draws = L @ rng.standard_normal(len(U))
        # embed the sub-grid into full inputs, off-subset coords at node 0
        X = np.zeros((len(U), 3))
        X[:, list(f.subset)] = U
        if f.subset == (0, 1):
            part_01 = draws
            X01 = X
        else:
            part_12 = draws

    # at x = (a, b, 0) the second factor contributes its value at (b, 0)
    g2 = np.zeros(len(X01))
    mesh12 = np.meshgrid(values[1], values[2], indexing="ij")
    U12 = np.stack([m.ravel() for m in mesh12], axis=-1)
    for i, x in enumerate(X01):
        j = np.argmin(np.abs(U12[:, 0] - x[1]) + np.abs(U12[:, 1] - x[2]))
        g2[i] = part_12[j]
    np.testing.assert_allclose(evaluate_batch(obj, X01), part_01 + g2, atol=1e-6)


def test_prior_sample_disjoint_factor_additivity():
    # disjoint subsets: f(a0, b1) + f(b0, a1) == f(a0, a1) + f(b0, b1)
    kernel = AdditiveKernel(
        (
            FactorKernel((0,), 1.0, (0.3,)),
            FactorKernel((1,), 2.0, (0.5,)),
        )
    )
    obj = prior_sample_objective(kernel, ((0.0, 1.0), (0.0, 1.0)), 9, np.random.default_rng(3))
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0, 1, 2)
        b = rng.uniform(0, 1, 2)
        lhs = evaluate(obj, (a[0], b[1])) + evaluate(obj, (b[0], a[1]))
        rhs = evaluate(obj, (a[0], a[1])) + evaluate(obj, (b[0], b[1]))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_prior_sample_reproducible():
    kernel = _two_factor_kernel()
    box = ((0.0, 1.0),) * 3
    obj1 = prior_sample_objective(kernel, box, 5, np.random.default_rng(17))
    obj2 = prior_sample_objective(kernel, box, 5, np.random.default_rng(17))
    X = np.random.default_rng(1).uniform(0, 1, size=(40, 3))
    np.testing.assert_array_equal(evaluate_batch(obj1, X), evaluate_batch(obj2, X))
    obj3 = prior_sample_objective(kernel, box, 5, np.random.default_rng(18))
    assert not np.array_equal(evaluate_batch(obj1, X), evaluate_batch(obj3, X))


def test_prior_sample_validation():
    kernel = _two_factor_kernel()
    box = ((0.0, 1.0),) * 3
    # the cap holds per factor: 64 points on a 2-ary factor is 4096 > cap,
    # while 20 points on each axis (8000 joint, 400 per factor) is fine
    with pytest.raises(ContractViolationError):
        prior_sample_objective(kernel, box, 64, np.random.default_rng(0))
    assert 64**2 > MAX_SAMPLE_GRID >= 20**2
    assert prior_sample_objective(kernel, box, 20, np.random.default_rng(0)).dims == 3
    with pytest.raises(ContractViolationError):
        prior_sample_objective(
            kernel, ((0.0, 1.0),) * 2, 5, np.random.default_rng(0)
        )  # subset (1, 2) outside a 2-d box


@pytest.mark.parametrize("grid_points", [0, -2, 2.5, True, "5"])
def test_prior_sample_refuses_a_grid_that_is_not_a_positive_integer(grid_points):
    with pytest.raises(ContractViolationError, match="grid_points must be"):
        prior_sample_objective(
            _two_factor_kernel(), ((0.0, 1.0),) * 3, grid_points, np.random.default_rng(0)
        )


def test_make_objective():
    assert make_objective("shekel4").kind == "shekel4"
    assert make_objective("hartmann6").dims == 6
    with pytest.raises(ConfigurationError):
        make_objective("rosenbrock")


def test_benchmark_constants_structure():
    consts = benchmark_constants()
    assert set(consts) == {"shekel4", "hartmann6", "michalewicz10"}
    assert np.asarray(consts["shekel4"]["C"]).shape == (4, 10)
    assert consts["shekel4"]["published_optimum"] == -10.5364
    assert consts["hartmann6"]["published_optimum"] == -3.32237
    assert consts["michalewicz10"]["published_optimum"] == -9.66015
    assert len(consts["hartmann6"]["argmin"]) == 6
