"""The `fgbo selftest` audit battery, checks(), and the reference oracles it
shares with the test suite, each defined only here: the Michalewicz-10
per-dimension search, the brute-force joint maximum of a factor graph, the
defining-order factor-to-variable message, the dense-inverse GP posterior,
the one-block factor posterior, and the 60-digit beta tables.
"""

from __future__ import annotations

import math

import numpy as np

from . import bench
from .acquisition import BetaMode, BetaSchedule, beta
from .errors import ContractViolationError, NumericalFailureError
from .gp import ObservationSet, dense_cholesky_with_jitter, fit
from .kernels import AdditiveKernel, FactorKernel, cross_factor, gram
from .maxsum import FactorGraph, run_rounds

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
    # (dims, lipschitz_a, lipschitz_b, num_factors, delta, t, expected)
    (1, 1.0, 1.0, 1, 0.5, 1, 4.094623587159552915022),
    (6, 1.0, 1.0, 4, 0.1, 25, 130.2541585174663791523),
    (4, 2.0, 1.0, 2, 0.1, 3, 47.34580545291124490954),
]


def beta_errors() -> tuple[float, float]:
    """Worst |beta - oracle| over the discrete cases and the Lipschitz ones."""
    discrete = lipschitz = 0.0
    for size, u, delta, t, want in BETA_DISCRETE_CASES:
        sched = BetaSchedule(BetaMode.DISCRETE_DOMAIN, delta, u, dims=1)
        discrete = max(discrete, abs(beta(sched, t, size) - want))
    for dims, a, b, u, delta, t, want in BETA_LIPSCHITZ_CASES:
        sched = BetaSchedule(
            BetaMode.CONTINUOUS_LIPSCHITZ, delta, u, dims, lipschitz_a=a, lipschitz_b=b
        )
        lipschitz = max(lipschitz, abs(beta(sched, t) - want))
    return discrete, lipschitz


def michalewicz_per_dim_search() -> tuple[float, tuple]:
    """(minimum, per-dimension argmins) of Michalewicz-10 on a linspace grid
    of 20001 values per coordinate."""
    grid = np.linspace(0.0, math.pi, 20001)
    total = 0.0
    argmins = []
    for i in range(1, bench.MICHALEWICZ_D + 1):
        curve = -np.sin(grid) * np.sin(i * grid**2 / math.pi) ** (2 * bench.MICHALEWICZ_M)
        k = int(np.argmin(curve))
        total += float(curve[k])
        argmins.append(float(grid[k]))
    return total, tuple(argmins)


def brute_force_max(g: FactorGraph) -> tuple[float, tuple]:
    """Exhaustive joint maximum: (value, first argmax in C order).

    The tables are summed over the joint grid in FactorGraph.value_of's
    order, so the value compares bitwise with the solver's.
    """
    joint = np.zeros((g.num_values,) * g.num_variables)
    for s, tab in zip(g.subsets, g.tables):
        view = tab
        for axis in range(g.num_variables):
            if axis not in s:
                view = np.expand_dims(view, axis)
        joint = joint + view
    flat = int(np.argmax(joint))
    return float(joint.flat[flat]), tuple(int(i) for i in np.unravel_index(flat, joint.shape))


def factor_to_variable_message(
    g: FactorGraph, var_to_factor: dict, factor_index: int, variable: int
) -> np.ndarray:
    """Max over the factor's other variables of (incoming messages + phi),
    in the defining order: the other incoming messages are added onto phi in
    subset order, then every other axis is maximized at once."""
    s = g.subsets[factor_index]
    if variable not in s:
        raise ContractViolationError(
            f"variable {variable} not in factor subset {s}"
        )
    k = len(s)
    pos = s.index(variable)
    aug = g.tables[factor_index]
    for q, j in enumerate(s):
        if j == variable:
            continue
        shape = [1] * k
        shape[q] = g.num_values
        aug = aug + var_to_factor[(j, factor_index)].reshape(shape)
    if k == 1:
        return aug.copy()
    return aug.max(axis=tuple(q for q in range(k) if q != pos))


def dense_posterior(kernel: AdditiveKernel, obs: ObservationSet, x, factor_index=None):
    """Posterior (mean, variance) at one full input x, of factor
    `factor_index` or, when it is None, of f itself (every factor summed)."""
    K = gram(kernel, obs.X) + obs.noise_variance * np.eye(len(obs))
    Kinv = np.linalg.inv(K)
    x = np.asarray(x, dtype=float).reshape(1, -1)
    factors = kernel.factors if factor_index is None else (kernel.factors[factor_index],)
    kx = sum(cross_factor(f, f.restrict(x), f.restrict(obs.X)).ravel() for f in factors)
    prior = sum(f.signal_variance for f in factors)
    return kx @ Kinv @ obs.y, prior - kx @ Kinv @ kx


def posterior_block_mismatches(lengths, t: int, seed: int, points: bool = False) -> int:
    """Rows where the blocked posterior of a seeded factor differs in any bit
    from the one-block product over all rows.

    The factor has one coordinate per entry of `lengths` and is fitted to t
    random observations; its batch is the grid of random axes of those
    lengths, as axes or, with points, as their C-order points.
    """
    rng = np.random.default_rng(seed)
    k = len(lengths)
    f = FactorKernel(tuple(range(k)), 1.3, tuple(rng.uniform(0.2, 0.6, size=k)))
    post = fit(AdditiveKernel((f,)), ObservationSet(rng.uniform(size=(t, k)), rng.normal(size=t), 0.01))
    U = tuple(np.sort(rng.uniform(size=n)) for n in lengths)
    if points:
        U = np.stack([a.ravel() for a in np.meshgrid(*U, indexing="ij")], axis=-1)
    blocked = post.factor_mean_var_batch(0, U)
    Kxg = cross_factor(f, U, f.restrict(post.observations.X))
    whole = post._mean_var(Kxg, f.signal_variance, "factor")
    return int(((blocked[0] != whole[0]) | (blocked[1] != whole[1])).sum())


def checks():
    """Yield (name, passed, detail) for the quick audit battery."""
    rng = np.random.default_rng(20240817)

    s = bench.shekel4()
    v = bench.evaluate(s, s.known_argmin)
    yield "shekel_optimum", abs(v - bench.SHEKEL_OPTIMUM) <= 1e-3, f"f(x*)={v:.6f}"

    h = bench.hartmann6()
    v = bench.evaluate(h, h.known_argmin)
    yield "hartmann_optimum", abs(v - bench.HARTMANN6_OPTIMUM) <= 1e-3, f"f(x*)={v:.6f}"

    total, _ = michalewicz_per_dim_search()
    yield (
        "michalewicz_optimum",
        abs(total - bench.MICHALEWICZ_OPTIMUM) <= 1e-2,
        f"per-dim search={total:.6f}",
    )

    X = rng.uniform(0, 10, size=(1000, 4))
    yield "shekel_negative", bool((bench.evaluate_batch(s, X) < 0).all()), "1000 points"

    discrete, lipschitz = beta_errors()
    yield "beta_discrete_spot", discrete < 1e-9, f"worst err {discrete:.1e} vs 60-digit oracle"
    yield "beta_continuous_spot", lipschitz < 1e-9, f"worst err {lipschitz:.1e} vs 60-digit oracle"

    kernel = AdditiveKernel(
        factors=(
            FactorKernel(subset=(0, 1), signal_variance=1.3, lengthscales=(0.3, 0.4)),
            FactorKernel(subset=(1, 2), signal_variance=0.7, lengthscales=(0.5, 0.2)),
        )
    )
    Xo = rng.uniform(size=(12, 3))
    yo = rng.normal(size=12)
    post = fit(kernel, ObservationSet(Xo, yo, 0.05))
    xq = rng.uniform(size=3)
    total_mean = sum(post.factor_mean_var(i, xq)[0] for i in range(2))
    full_mean = post.objective_mean_var(xq)[0]
    yield (
        "gp_mean_additivity",
        abs(total_mean - full_mean) <= 1e-8,
        f"|diff|={abs(total_mean - full_mean):.2e}",
    )

    K = gram(kernel, Xo)
    sym = float(np.abs(K - K.T).max())
    try:
        dense_cholesky_with_jitter(K + 0.05 * np.eye(len(Xo)))
        psd = True
    except NumericalFailureError:
        psd = False
    yield "gram_symmetric_psd", sym == 0.0 and psd, f"max asym={sym:.1e}"

    exact = 0
    trials = 20
    for _ in range(trials):
        n_vars = int(rng.integers(2, 5))
        tau = int(rng.integers(2, 6))
        subsets = [(j,) for j in range(n_vars)]
        subsets += [(j, j + 1) for j in range(n_vars - 1)]  # a chain: acyclic
        tables = [rng.normal(size=(tau,) * len(s)) for s in subsets]
        g = FactorGraph(n_vars, tau, subsets, tables)
        exact += run_rounds(g, max_rounds=4 * n_vars).best_value == brute_force_max(g)[0]
    yield "maxsum_tree_exactness", exact == trials, f"{exact}/{trials} exact"

    # 33 x 32 x 32 rows make seven blocks of 4096 rows and a last one of
    # 5120; t = 17 is among the t that OpenBLAS's small-matrix GEMM kernel
    # rounds differently.  A threaded GEMV computes the last rows of an
    # uneven thread share with another kernel, which would move the one-block
    # means themselves; 33792 rows split into shares of a multiple of 4 rows
    # over 2, 3, 4 or 8 threads
    rows = posterior_block_mismatches((33, 32, 32), 17, seed=int(rng.integers(2**31)))
    yield "posterior_blocks_bitwise", rows == 0, f"{rows}/33792 rows differ from one block"
