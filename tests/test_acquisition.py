import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fgbo.acquisition import (
    BetaSchedule,
    GridSpec,
    beta,
    grid_for_iteration,
    tabulate,
)
from fgbo.config import DEFAULT_BETA
from fgbo.errors import ConfigurationError, ContractViolationError
from fgbo.gp import ObservationSet, fit
from fgbo.kernels import AdditiveKernel, FactorKernel
from fgbo.maxsum import solve
from fgbo.selftest import BETA_DISCRETE_CASES, BETA_LIPSCHITZ_CASES

SRC = Path(__file__).resolve().parents[1] / "src"

TAU_CASES = [
    # (dims, lipschitz_a, lipschitz_b, num_factors, delta, t, expected)
    (2, 1.0, 1.0, 2, 0.1, 3, 35),
    (4, 1.0, 1.0, 3, 0.1, 2, 33),
    (6, 1.0, 2.0, 4, 0.05, 5, 676),
    (1, 1.0, 1.0, 1, 0.5, 1, 2),
]


@pytest.mark.parametrize("domain_size,num_factors,delta,t,expected", BETA_DISCRETE_CASES)
def test_beta_discrete_spot_values(domain_size, num_factors, delta, t, expected):
    sched = BetaSchedule(
        mode="discrete_domain",
        delta=delta,
        num_factors=num_factors,
        dims=1,
    )
    assert abs(beta(sched, t, domain_size) - expected) < 1e-9


@pytest.mark.parametrize("dims,a,b,num_factors,delta,t,expected", BETA_LIPSCHITZ_CASES)
def test_beta_lipschitz_spot_values(dims, a, b, num_factors, delta, t, expected):
    sched = BetaSchedule(
        mode="continuous_lipschitz",
        delta=delta,
        num_factors=num_factors,
        dims=dims,
        lipschitz_a=a,
        lipschitz_b=b,
    )
    assert abs(beta(sched, t) - expected) < 1e-9


def test_beta_monotone_in_t():
    sched_d = BetaSchedule(
        mode="discrete_domain", delta=0.1, num_factors=3, dims=1
    )
    sched_c = BetaSchedule(
        mode="continuous_lipschitz", delta=0.1, num_factors=3, dims=6
    )
    for sched in (sched_d, sched_c):
        prev = -math.inf
        for t in range(1, 10_001):
            val = beta(sched, t, 10_000)
            assert val > prev
            prev = val


def test_beta_fixed_constant():
    sched = BetaSchedule(
        mode="fixed_constant", delta=0.1, num_factors=2, dims=1, fixed_value=4.0
    )
    assert beta(sched, 1) == 4.0
    assert beta(sched, 9999) == 4.0


def _mode_string_case(mode):
    """(config beta section, num_factors, dims, t, domain_size, expected):
    each mode's own formula, from fixed_value or a 60-digit oracle row."""
    if mode == "fixed_constant":
        return dict(mode=mode, fixed_value=4.0), 2, 1, 5, 100, 4.0
    if mode == "discrete_domain":
        size, u, delta, t, want = BETA_DISCRETE_CASES[1]
        return dict(mode=mode, delta=delta), u, 1, t, size, want
    dims, a, b, u, delta, t, want = BETA_LIPSCHITZ_CASES[2]
    overrides = dict(mode=mode, delta=delta, lipschitz_a=a, lipschitz_b=b)
    return overrides, u, dims, t, None, want


@pytest.mark.parametrize("mode", ["discrete_domain", "continuous_lipschitz", "fixed_constant"])
def test_beta_schedule_takes_config_mode_strings(mode):
    # a run config's beta section passes straight through as keywords, and
    # each mode string must give its own formula: mode strings once gave the
    # Lipschitz beta silently
    overrides, num_factors, dims, t, size, want = _mode_string_case(mode)
    section = dict(DEFAULT_BETA, **overrides)
    sched = BetaSchedule(**section, num_factors=num_factors, dims=dims)
    assert sched.mode == mode
    assert abs(beta(sched, t, size) - want) < 1e-9


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_factors", math.nan), ("num_factors", 2.5), ("num_factors", True),
        ("dims", math.nan), ("dims", 1.5), ("dims", True), ("dims", 2.0),
    ],
    ids=lambda v: repr(v) if not isinstance(v, str) else v,
)
def test_beta_schedule_refuses_non_integer_counts(field, value):
    counts = {"num_factors": 2, "dims": 3}
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        BetaSchedule("discrete_domain", 0.1, **{**counts, field: value})
    BetaSchedule("discrete_domain", 0.1, **{**counts, field: np.int64(counts[field])})


def test_beta_schedule_validation():
    with pytest.raises(ConfigurationError, match="unknown beta mode 'bogus'"):
        BetaSchedule(mode="bogus", delta=0.1, num_factors=2, dims=1)
    with pytest.raises(ConfigurationError):
        BetaSchedule(mode="fixed_constant", delta=0.1, num_factors=2, dims=1)
    with pytest.raises(ConfigurationError):
        BetaSchedule(mode="discrete_domain", delta=0.0, num_factors=2, dims=1)
    with pytest.raises(ConfigurationError):
        BetaSchedule(mode="discrete_domain", delta=1.0, num_factors=2, dims=1)
    discrete = BetaSchedule(mode="discrete_domain", delta=0.1, num_factors=2, dims=1)
    with pytest.raises(ContractViolationError, match="needs the domain size"):
        beta(discrete, 1)
    with pytest.raises(ContractViolationError):
        beta(
            BetaSchedule(mode="discrete_domain", delta=0.1, num_factors=1, dims=1),
            0,
            4,
        )
    # with a = 1e-3, log(2|U|a/delta) < 0: both users of the discretization
    # term refuse it
    low_a = BetaSchedule(
        mode="continuous_lipschitz", delta=0.1, num_factors=3, dims=6, lipschitz_a=1e-3
    )
    with pytest.raises(ConfigurationError, match="log"):
        grid_for_iteration(low_a, 1, caps=(2, 64))
    with pytest.raises(ConfigurationError, match="log"):
        beta(low_a, 1)
    # with b = 1e308 the discretization term overflows to inf: beta refuses it
    huge_b = BetaSchedule(
        mode="continuous_lipschitz", delta=0.1, num_factors=1, dims=4, lipschitz_b=1e308
    )
    with pytest.raises(ConfigurationError, match="lipschitz_b"):
        beta(huge_b, 1)


@pytest.mark.parametrize(
    "value", [math.nan, 0.0, -1.0, math.inf], ids=["nan", "zero", "negative", "inf"]
)
@pytest.mark.parametrize("field", ["lipschitz_a", "lipschitz_b", "fixed_value"])
def test_beta_schedule_refuses_nan_and_nonpositive_constants(field, value):
    message = "fixed_value" if field == "fixed_value" else "a and b must be positive"
    section = {"mode": "fixed_constant", "delta": 0.1, "fixed_value": 2.0, field: value}
    with pytest.raises(ConfigurationError, match=message):
        BetaSchedule(**section, num_factors=2, dims=1)

@pytest.mark.parametrize("dims,a,b,num_factors,delta,t,expected", TAU_CASES)
def test_tau_formula_pre_cap(dims, a, b, num_factors, delta, t, expected):
    sched = BetaSchedule(
        mode="continuous_lipschitz",
        delta=delta,
        num_factors=num_factors,
        dims=dims,
        lipschitz_a=a,
        lipschitz_b=b,
    )
    grid = grid_for_iteration(sched, t, caps=(2, 10**9))
    assert grid.per_dim_points == expected


def test_tau_caps_clamp():
    sched = BetaSchedule(
        mode="continuous_lipschitz", delta=0.1, num_factors=3, dims=6
    )
    assert grid_for_iteration(sched, 100, caps=(2, 32)).per_dim_points == 32
    tiny = BetaSchedule(
        mode="continuous_lipschitz",
        delta=0.5,
        num_factors=1,
        dims=1,
        lipschitz_b=1e-9,
    )
    assert grid_for_iteration(tiny, 1, caps=(4, 32)).per_dim_points == 4
    # the uncapped tau overflows to inf here; the cap still applies
    huge = BetaSchedule(
        mode="fixed_constant",
        delta=0.1,
        num_factors=3,
        dims=6,
        lipschitz_b=1e308,
        fixed_value=4.0,
    )
    assert grid_for_iteration(huge, 100, caps=(2, 32)).per_dim_points == 32
    # fractional caps would be truncated to (2, 8)
    with pytest.raises(ContractViolationError, match="caps.min must be an integer"):
        grid_for_iteration(sched, 100, caps=(2.9, 8.7))
    with pytest.raises(ContractViolationError, match="iteration must be >= 1"):
        grid_for_iteration(sched, 0, caps=(2, 8))


@pytest.mark.parametrize("caps", [(2, 8, 99), (8,), ()], ids=["three", "one", "none"])
def test_grid_for_iteration_refuses_caps_not_a_pair(caps):
    sched = BetaSchedule(mode="fixed_constant", delta=0.1, num_factors=3, dims=6, fixed_value=4.0)
    with pytest.raises(ContractViolationError, match="caps must be"):
        grid_for_iteration(sched, 100, caps=caps)


def test_grid_spec_geometry():
    grid = GridSpec(per_dim_points=5, num_dims=3)
    np.testing.assert_allclose(grid.axis, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.joint_size == 125
    np.testing.assert_allclose(grid.point_at((0, 4, 2)), [0.0, 1.0, 0.5])
    np.testing.assert_allclose(grid.point_at(np.array([0, 4, 2])), [0.0, 1.0, 0.5])


@pytest.mark.parametrize(
    "indices",
    [(-1, 0), (0,), (0, 0, 0), (1.5, 0), (9, 0), (4, 0), (True, 0), (np.float64(1.0), 0)],
    ids=["negative", "short", "long", "float", "far_past_end", "past_end", "bool", "np_float"],
)
def test_grid_point_at_refuses_indices_off_the_grid(indices):
    grid = GridSpec(per_dim_points=4, num_dims=2)
    with pytest.raises(ContractViolationError, match=r"2 integer indices in \[0, 4\)"):
        grid.point_at(indices)


def _cartesian(axes):
    """C-order Cartesian product rows of 1-D axes."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


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
    grid = GridSpec(per_dim_points=4, num_dims=3)
    beta_value = 3.7
    acq = tabulate(post, grid, beta_value)
    for i, f in enumerate(kernel.factors):
        table = acq.tables[i]
        assert table.shape == (4,) * f.arity
        for idx in np.ndindex(*table.shape):
            u = grid.axis[list(idx)]
            mean, var = post.factor_mean_var_batch(i, u.reshape(1, -1))
            want = mean[0] + math.sqrt(beta_value) * math.sqrt(var[0])
            assert abs(table[idx] - want) < 1e-10


def test_total_value_sums_tables():
    rng = np.random.default_rng(21)
    _, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=3, num_dims=3)
    acq = tabulate(post, grid, 2.0)
    sol = solve(acq)
    i0, i1, i2 = (int(v) for v in sol.indices)
    want = acq.tables[0][i0, i1] + acq.tables[1][i2]
    assert sol.diagnostics.best_value == pytest.approx(want, rel=1e-12)


def test_acquisition_weights_scale_factors():
    rng = np.random.default_rng(22)
    _, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=3, num_dims=3)
    acq = tabulate(post, grid, 2.0)
    weighted = tabulate(post, grid, 2.0, weights=(0.5, 1.0))
    assert weighted.subsets == acq.subsets
    for w, got, raw in zip((0.5, 1.0), weighted.tables, acq.tables):
        np.testing.assert_array_equal(got, w * raw)
    sol = solve(weighted)
    i0, i1, i2 = (int(v) for v in sol.indices)
    want = 0.5 * acq.tables[0][i0, i1] + acq.tables[1][i2]
    assert sol.diagnostics.best_value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("weights", [(0.5,), (0.5, 1.0, 2.0)], ids=["short", "long"])
def test_tabulate_needs_one_weight_per_factor(weights):
    rng = np.random.default_rng(23)
    _, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=3, num_dims=3)
    with pytest.raises(ContractViolationError, match="one weight per factor"):
        tabulate(post, grid, 2.0, weights=weights)


@pytest.mark.parametrize(
    "bad", [-1.0, 0.0, math.nan, math.inf], ids=["negative", "zero", "nan", "inf"]
)
def test_tabulate_refuses_weights_not_positive_and_finite(bad):
    # a negative weight would turn factor 0's UCB into a penalty, a zero one
    # would drop it, and a NaN or infinite one would poison its table
    rng = np.random.default_rng(23)
    _, post = _toy_posterior(rng)
    grid = GridSpec(per_dim_points=3, num_dims=3)
    for weights in ((bad, 1.0), np.array([1.0, bad])):
        with pytest.raises(ContractViolationError, match="need one weight per factor"):
            tabulate(post, grid, 2.0, weights=weights)


@pytest.mark.parametrize(
    "beta_value", [math.nan, 0.0, -1.0, math.inf], ids=["nan", "zero", "negative", "inf"]
)
def test_tabulate_refuses_nan_and_nonpositive_beta(beta_value):
    _, post = _toy_posterior(np.random.default_rng(23))
    with pytest.raises(ContractViolationError, match="beta must be positive"):
        tabulate(post, GridSpec(per_dim_points=3, num_dims=3), beta_value)

def test_ucb_covers_prior_draws():
    # phi with a healthy beta should upper-bound the truth at most grid points
    rng = np.random.default_rng(40)
    kernel = AdditiveKernel(
        factors=(FactorKernel(subset=(0,), signal_variance=1.0, lengthscales=(0.25,)),)
    )
    grid = GridSpec(per_dim_points=21, num_dims=1)
    pts = _cartesian((grid.axis,))
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
        GridSpec(per_dim_points=1, num_dims=1)
    with pytest.raises(ContractViolationError):
        GridSpec(per_dim_points=4, num_dims=0)
    with pytest.raises(ContractViolationError, match="per_dim_points must be an integer"):
        GridSpec(per_dim_points=2.5, num_dims=3)
    with pytest.raises(ContractViolationError, match="num_dims must be an integer"):
        GridSpec(per_dim_points=3, num_dims=True)


def test_grid_axes_are_stored_read_only_linspace():
    grid = GridSpec(per_dim_points=9, num_dims=3)
    np.testing.assert_array_equal(grid.axis, np.linspace(0.0, 1.0, 9))
    assert not grid.axis.flags.writeable
    line = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(grid.point_at((3, 8, 1)), [line[3], 1.0, line[1]])
    assert grid == GridSpec(per_dim_points=9, num_dims=3)


# tabulate's tables for seeded posteriors shaped like the four benchmark
# workloads' graphs (three 3-ary factors at tau 32, one 4-ary factor, ten
# singletons, a mix of arities 1-3), each at t = 12 and at t = 120 (over
# 7,000 pairs, many chunks of each contraction), hashed in a child on one
# BLAS thread
TABLES_CHILD = """
import hashlib
import numpy as np
from fgbo.acquisition import GridSpec, tabulate
from fgbo.gp import ObservationSet, fit
from fgbo.kernels import AdditiveKernel, FactorKernel

GRAPHS = [  # (d, tau, subsets)
    (6, 32, [(0, 1, 2), (2, 3, 4), (3, 4, 5)]),
    (4, 16, [(0, 1, 2, 3)]),
    (10, 16, [(j,) for j in range(10)]),
    (6, 16, [(0,), (1, 2), (3, 4), (5,), (0, 3, 5)]),
]
digest = hashlib.sha256()
for g, (d, tau, subsets) in enumerate(GRAPHS):
    for t in (12, 120):
        rng = np.random.default_rng([g, t])
        kernel = AdditiveKernel(tuple(
            FactorKernel(s, rng.uniform(0.2, 2.0), tuple(rng.uniform(0.1, 0.5, len(s))))
            for s in subsets
        ))
        obs = ObservationSet(rng.uniform(size=(t, d)), rng.normal(size=t), 0.01)
        for table in tabulate(fit(kernel, obs), GridSpec(tau, d), 2.5).tables:
            digest.update(table.tobytes())
print(digest.hexdigest())
"""

TABLES_SHA256 = "30b5c863fdcab319902c37273348ba770722e192166a9a781281adf7454164b2"


def test_tables_are_pinned_bit_for_bit():
    """The digest belongs to one numpy/OpenBLAS build (numpy with
    scipy-openblas 0.3.31, x86-64) and is regenerated on purpose, with
    TABLES_CHILD, when a change means to move the tables' floats (ROADMAP
    items 4, 7 and 10).  It is taken on one BLAS thread, as the benchmark
    runs, since a GEMM's last bits may depend on the thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", TABLES_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == TABLES_SHA256
