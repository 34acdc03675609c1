import math

import numpy as np
import pytest

from fgbo.acquisition import (
    BetaMode,
    BetaSchedule,
    DiscretizedAcquisition,
    GridSpec,
    beta,
    grid_for_iteration,
    tabulate,
)
from fgbo.errors import ConfigurationError, ContractViolationError
from fgbo.gp import ObservationSet, fit
from fgbo.kernels import AdditiveKernel, FactorKernel
from fgbo.maxsum import solve

# Frozen from an independent arbitrary-precision (mpmath, 60 digits)
# evaluation of the schedule formulas.  The discrete case at
# |D|=100, |U|=3, delta=0.1, t=1 is the widely quoted "about 17.01" value;
# its exact figure is below.
BETA_DISCRETE_CASES = [
    # (domain_size, num_factors, delta, t, expected)
    (100, 3, 0.1, 1, 17.00813574024198418185),
    (100, 3, 0.1, 10, 26.21847611221816691792),
    (64**4, 3, 0.05, 7, 50.23879499248432013706),
]

BETA_LIPSCHITZ_CASES = [
    # (dims, box_edge, lipschitz_a, lipschitz_b, num_factors, delta, t, expected)
    (1, 1.0, 1.0, 1.0, 1, 0.5, 1, 4.094623587159552915022),
    (6, 1.0, 1.0, 1.0, 4, 0.1, 25, 130.2541585174663791523),
    (4, 1.0, 2.0, 1.0, 2, 0.1, 3, 47.34580545291124490954),
]

TAU_CASES = [
    # (dims, box_edge, lipschitz_a, lipschitz_b, num_factors, delta, t, expected)
    (2, 1.0, 1.0, 1.0, 2, 0.1, 3, 35),
    (4, 1.0, 1.0, 1.0, 3, 0.1, 2, 33),
    (6, 1.0, 1.0, 2.0, 4, 0.05, 5, 676),
    (1, 1.0, 1.0, 1.0, 1, 0.5, 1, 2),
]


@pytest.mark.parametrize("domain_size,num_factors,delta,t,expected", BETA_DISCRETE_CASES)
def test_beta_discrete_spot_values(domain_size, num_factors, delta, t, expected):
    sched = BetaSchedule(
        mode=BetaMode.DISCRETE_DOMAIN,
        delta=delta,
        num_factors=num_factors,
        domain_size=domain_size,
    )
    assert abs(beta(sched, t) - expected) < 1e-9


@pytest.mark.parametrize(
    "dims,box_edge,a,b,num_factors,delta,t,expected", BETA_LIPSCHITZ_CASES
)
def test_beta_lipschitz_spot_values(dims, box_edge, a, b, num_factors, delta, t, expected):
    sched = BetaSchedule(
        mode=BetaMode.CONTINUOUS_LIPSCHITZ,
        delta=delta,
        num_factors=num_factors,
        dims=dims,
        box_edge=box_edge,
        lipschitz_a=a,
        lipschitz_b=b,
    )
    assert abs(beta(sched, t) - expected) < 1e-9


def test_beta_monotone_in_t():
    sched_d = BetaSchedule(
        mode=BetaMode.DISCRETE_DOMAIN, delta=0.1, num_factors=3, domain_size=10_000
    )
    sched_c = BetaSchedule(
        mode=BetaMode.CONTINUOUS_LIPSCHITZ, delta=0.1, num_factors=3, dims=6
    )
    for sched in (sched_d, sched_c):
        prev = -math.inf
        for t in range(1, 10_001):
            val = beta(sched, t)
            assert val > prev
            prev = val


def test_beta_fixed_constant():
    sched = BetaSchedule(
        mode=BetaMode.FIXED_CONSTANT, delta=0.1, num_factors=2, fixed_value=4.0
    )
    assert beta(sched, 1) == 4.0
    assert beta(sched, 9999) == 4.0


def test_beta_schedule_validation():
    # missing per-mode fields surface when beta is evaluated, since the
    # engine fills domain_size in per iteration
    with pytest.raises(ConfigurationError):
        beta(BetaSchedule(mode=BetaMode.DISCRETE_DOMAIN, delta=0.1, num_factors=2), 1)
    with pytest.raises(ConfigurationError):
        beta(
            BetaSchedule(mode=BetaMode.CONTINUOUS_LIPSCHITZ, delta=0.1, num_factors=2),
            1,
        )
    with pytest.raises(ConfigurationError):
        BetaSchedule(mode=BetaMode.FIXED_CONSTANT, delta=0.1, num_factors=2)
    with pytest.raises(ConfigurationError):
        BetaSchedule(
            mode=BetaMode.DISCRETE_DOMAIN, delta=0.0, num_factors=2, domain_size=10
        )
    with pytest.raises(ConfigurationError):
        BetaSchedule(
            mode=BetaMode.DISCRETE_DOMAIN, delta=1.0, num_factors=2, domain_size=10
        )
    with pytest.raises(ContractViolationError):
        beta(
            BetaSchedule(
                mode=BetaMode.DISCRETE_DOMAIN, delta=0.1, num_factors=1, domain_size=4
            ),
            0,
        )


@pytest.mark.parametrize("dims,box_edge,a,b,num_factors,delta,t,expected", TAU_CASES)
def test_tau_formula_pre_cap(dims, box_edge, a, b, num_factors, delta, t, expected):
    sched = BetaSchedule(
        mode=BetaMode.CONTINUOUS_LIPSCHITZ,
        delta=delta,
        num_factors=num_factors,
        dims=dims,
        box_edge=box_edge,
        lipschitz_a=a,
        lipschitz_b=b,
    )
    grid = grid_for_iteration(sched, t, caps=(2, 10**9))
    assert grid.per_dim_points == expected


def test_tau_caps_clamp():
    sched = BetaSchedule(
        mode=BetaMode.CONTINUOUS_LIPSCHITZ, delta=0.1, num_factors=3, dims=6
    )
    assert grid_for_iteration(sched, 100, caps=(2, 32)).per_dim_points == 32
    tiny = BetaSchedule(
        mode=BetaMode.CONTINUOUS_LIPSCHITZ,
        delta=0.5,
        num_factors=1,
        dims=1,
        lipschitz_b=1e-9,
    )
    assert grid_for_iteration(tiny, 1, caps=(4, 32)).per_dim_points == 4


def test_grid_spec_geometry():
    box = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))
    grid = GridSpec(per_dim_points=5, box=box)
    np.testing.assert_allclose(grid.values(1), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.joint_size == 125
    np.testing.assert_allclose(grid.point_at((0, 4, 2)), [0.0, 2.0, 0.0])
    np.testing.assert_array_equal(grid.nearest_indices([0.26, 1.9, 0.9]), [1, 4, 4])


def test_grid_subgrid_is_c_order():
    grid = GridSpec(per_dim_points=3, box=((0.0, 1.0), (0.0, 1.0)))
    pts = grid.subgrid((0, 1))
    assert pts.shape == (9, 2)
    for flat in range(9):
        idx = np.unravel_index(flat, (3, 3))
        np.testing.assert_allclose(pts[flat], [grid.values(0)[idx[0]], grid.values(1)[idx[1]]])


def _toy_posterior(rng, d=3):
    kernel = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1), signal_variance=1.2, lengthscales=(0.3, 0.5)),
            FactorKernel(subset=(2,), signal_variance=0.7, lengthscales=(0.4,)),
        )
    )
    obs = ObservationSet(rng.uniform(size=(9, d)), rng.normal(size=9), 0.05)
    return kernel, fit(kernel, obs)


def test_tabulate_matches_pointwise_phi():
    rng = np.random.default_rng(8)
    kernel, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=4, box=((0.0, 1.0),) * 3)
    beta_value = 3.7
    acq = tabulate(post, grid, beta_value)
    assert acq.beta_used == beta_value
    for i, f in enumerate(kernel.factors):
        table = acq.tables[i]
        assert table.shape == (4,) * f.arity
        for idx in np.ndindex(*table.shape):
            u = np.array([grid.values(dim)[j] for dim, j in zip(f.subset, idx)])
            mean, var = post.factor_mean_var_batch(i, u.reshape(1, -1))
            want = mean[0] + math.sqrt(beta_value) * math.sqrt(var[0])
            assert abs(table[idx] - want) < 1e-10


def test_tabulate_prior_is_sqrt_beta_sigma():
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=2.25, lengthscales=(0.3,)),)
    )
    post = fit(kernel, ObservationSet(np.zeros((0, 1)), np.zeros(0), 0.1))
    grid = GridSpec(per_dim_points=3, box=((0.0, 1.0),))
    acq = tabulate(post, grid, 4.0)
    np.testing.assert_allclose(acq.tables[0], 2.0 * 1.5)


def test_total_value_sums_tables():
    rng = np.random.default_rng(21)
    _, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=3, box=((0.0, 1.0),) * 3)
    acq = tabulate(post, grid, 2.0)
    sol = solve(acq)
    i0, i1, i2 = (int(v) for v in sol.indices)
    want = acq.tables[0][i0, i1] + acq.tables[1][i2]
    assert sol.value == pytest.approx(want, rel=1e-12)


def test_acquisition_weights_scale_factors():
    rng = np.random.default_rng(22)
    _, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=3, box=((0.0, 1.0),) * 3)
    acq = tabulate(post, grid, 2.0)
    weighted = DiscretizedAcquisition(
        subsets=acq.subsets,
        tables=acq.tables,
        grid=grid,
        beta_used=2.0,
        weights=(0.5, 1.0),
    )
    assert weighted.factor_weight(0) == 0.5
    sol = solve(weighted)
    i0, i1, i2 = (int(v) for v in sol.indices)
    want = 0.5 * acq.tables[0][i0, i1] + acq.tables[1][i2]
    assert sol.value == pytest.approx(want, rel=1e-12)


def test_ucb_covers_prior_draws():
    # phi with a healthy beta should upper-bound the truth at most grid points
    rng = np.random.default_rng(40)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.25,)),)
    )
    grid = GridSpec(per_dim_points=21, box=((0.0, 1.0),))
    pts = grid.subgrid((0,))
    from fgbo.kernels import gram

    K = gram(kernel, pts) + 1e-10 * np.eye(21)
    L = np.linalg.cholesky(K)
    covered = 0
    total = 0
    for _ in range(20):
        f_true = L @ rng.normal(size=21)
        take = rng.choice(21, size=6, replace=False)
        obs = ObservationSet(pts[take], f_true[take] + 0.01 * rng.normal(size=6), 0.01**2)
        post = fit(kernel, obs)
        acq = tabulate(post, grid, beta_value=9.0)
        covered += int((acq.tables[0] >= f_true - 1e-9).sum())
        total += 21
    assert covered / total > 0.97


def test_grid_spec_validation():
    with pytest.raises(ContractViolationError):
        GridSpec(per_dim_points=1, box=((0.0, 1.0),))
    with pytest.raises(ContractViolationError):
        GridSpec(per_dim_points=4, box=((1.0, 0.0),))


def test_grid_axes_are_stored_read_only_linspace():
    box = ((0.0, 1.0), (-2.0, 3.0), (0.1, 0.7))
    grid = GridSpec(per_dim_points=9, box=box)
    for j, (lo, hi) in enumerate(box):
        np.testing.assert_array_equal(grid.values(j), np.linspace(lo, hi, 9))
        assert grid.values(j) is grid.values(j)
        assert not grid.values(j).flags.writeable
    assert grid.axes((2, 0)) == (grid.values(2), grid.values(0))
    mesh = np.meshgrid(*(np.linspace(lo, hi, 9) for lo, hi in box[:2]), indexing="ij")
    np.testing.assert_array_equal(
        grid.subgrid((0, 1)), np.stack([m.ravel() for m in mesh], axis=-1)
    )
    np.testing.assert_array_equal(
        grid.point_at((3, 8, 1)),
        [np.linspace(0.0, 1.0, 9)[3], 3.0, np.linspace(0.1, 0.7, 9)[1]],
    )
    assert grid == GridSpec(per_dim_points=9, box=box)
