"""The `fgbo selftest` audit battery, checks(), and the reference oracles it
shares with the test suite, each defined only here: the Michalewicz-10
per-dimension search, the brute-force joint maximum of a factor graph, the
defining-order factor-to-variable message, the dense-inverse GP posterior,
the one-block factor posterior (against row blocks and the grid
contraction), the one-factor-at-a-time acquisition tables, the uncached
Gram matrix, the 60-digit beta tables, and the seeded walk over
decompositions whose move lists the test suite pins.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import bench
from .acquisition import BetaSchedule, GridSpec, beta, tabulate
from .decomposition import enumerate_moves, move_deltas, random_covering_decomposition
from .errors import ContractViolationError, NumericalFailureError
from .gp import BLOCK_ROWS, ObservationSet, dense_cholesky_with_jitter, fit
from .kernels import AdditiveKernel, FactorKernel, GramBlocks, cross_factor, gram
from .maxsum import FactorGraph, solve

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
        sched = BetaSchedule("discrete_domain", delta, u, dims=1)
        discrete = max(discrete, abs(beta(sched, t, size) - want))
    for dims, a, b, u, delta, t, want in BETA_LIPSCHITZ_CASES:
        sched = BetaSchedule(
            "continuous_lipschitz", delta, u, dims, lipschitz_a=a, lipschitz_b=b
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


def _seeded_grid_factor(lengths, t: int, seed: int):
    """(posterior, factor, axes): a seeded factor with one coordinate per
    entry of `lengths`, fitted alone to t random observations, and sorted
    random axes of those lengths."""
    rng = np.random.default_rng(seed)
    k = len(lengths)
    f = FactorKernel(tuple(range(k)), 1.3, tuple(rng.uniform(0.2, 0.6, size=k)))
    post = fit(AdditiveKernel((f,)), ObservationSet(rng.uniform(size=(t, k)), rng.normal(size=t), 0.01))
    return post, f, tuple(np.sort(rng.uniform(size=n)) for n in lengths)


def posterior_block_mismatches(lengths, t: int, seed: int, points: bool = False) -> int:
    """Rows where the blocked posterior of a seeded factor differs in any bit
    from the one-block product over all rows.

    The factor and its axes are _seeded_grid_factor's; its batch is the grid
    of those axes, as axes or, with points, as their C-order points.  Axes
    must be ones the size rule leaves on row blocks (gp._contracts).
    """
    post, f, U = _seeded_grid_factor(lengths, t, seed)
    V = f.restrict(post.observations.X)
    if points:
        U = np.stack([a.ravel() for a in np.meshgrid(*U, indexing="ij")], axis=-1)
        # the point form is computed entry by entry, so building it in slices
        # bounds this oracle's memory and not its floats
        Kxg = np.concatenate(
            [cross_factor(f, U[a : a + BLOCK_ROWS], V) for a in range(0, len(U), BLOCK_ROWS)]
        )
    else:
        Kxg = cross_factor(f, U, V)
    blocked = post.factor_mean_var_batch(0, U)
    whole = post._mean_var(Kxg, f.signal_variance, "factor")
    return int(((blocked[0] != whole[0]) | (blocked[1] != whole[1])).sum())


def grid_contraction_error(lengths, t: int, seed: int) -> tuple[float, float]:
    """(worst |difference|, least variance) of the contraction tables of a
    seeded factor against the one-block product over all rows.

    The factor and its axes are _seeded_grid_factor's, and the contraction
    runs whatever the size rule says.  The difference is the larger of the
    means' and the variances', relative to the signal variance.  A clamped
    variance is exactly 0, so a positive least variance, over both, shows
    that no clamp was reached.
    """
    post, f, U = _seeded_grid_factor(lengths, t, seed)
    V = f.restrict(post.observations.X)
    mean, var = post._contraction_mean_var(f, U, V)
    whole = post._mean_var(cross_factor(f, U, V), f.signal_variance, "factor")
    worst = max(np.abs(mean - whole[0]).max(), np.abs(var - whole[1]).max())
    return float(worst / f.signal_variance), float(min(var.min(), whole[1].min()))


def packed_table_mismatches(arities, tau: int, t: int, seed: int, weighted: bool = False) -> int:
    """Entries where tabulate's tables differ in any bit from tables built one
    factor at a time from factor_mean_var_batch.

    The seeded kernel has one factor per entry of `arities`, on consecutive
    coordinates, fitted to t random observations, and is tabulated at tau
    points per dimension, with seeded weights when `weighted`.  tabulate
    packs the factors of one arity whose sub-grids hold fewer than
    gp.BLOCK_ROWS rows.
    """
    rng = np.random.default_rng(seed)
    factors, start = [], 0
    for k in arities:
        ls = tuple(rng.uniform(0.1, 0.6, size=k))
        factors.append(FactorKernel(tuple(range(start, start + k)), rng.uniform(0.5, 2.0), ls))
        start += k
    obs = ObservationSet(rng.uniform(size=(t, start)), rng.normal(size=t), 0.01)
    post = fit(AdditiveKernel(tuple(factors)), obs)
    weights = rng.uniform(0.1, 1.0, size=len(factors)) if weighted else None
    grid = GridSpec(per_dim_points=tau, num_dims=start)
    tables = tabulate(post, grid, 2.5, weights).tables
    differing = 0
    for i, f in enumerate(factors):
        mean, var = post.factor_mean_var_batch(i, (grid.axis,) * f.arity)
        phi = mean + math.sqrt(2.5) * np.sqrt(var)
        if weighted:
            phi = float(weights[i]) * phi
        differing += int((tables[i].ravel() != phi).sum())
    return differing


def gram_block_mismatches(t: int, seed: int) -> int:
    """Entries where the Gram matrix from a GramBlocks cache, grown one row
    at a time to t rows, differs in any bit from the uncached gram, summed
    over every row count.

    The seeded kernel has five factors of arity 1 and 2 over d = 6, in two
    interleaved signal-variance groups.
    """
    rng = np.random.default_rng(seed)
    subsets = ((0,), (1, 2), (2,), (3, 4), (0, 5))
    kernel = AdditiveKernel(
        tuple(
            FactorKernel(s, (0.6, 1.1)[i % 2], tuple(rng.uniform(0.1, 0.6, size=len(s))))
            for i, s in enumerate(subsets)
        )
    )
    X = rng.uniform(size=(t, 6))
    blocks = GramBlocks(t)
    return sum(
        int((gram(kernel, X[:n], blocks) != gram(kernel, X[:n])).sum()) for n in range(1, t + 1)
    )


def move_walk():
    """Yield (d, max_size, state, enumerate_moves(state)) over seeded random
    covering states and a few random-walk steps from each: 150 states."""
    for d, max_size in ((3, 2), (4, 2), (6, 3), (6, 4), (8, 3)):
        rng = np.random.default_rng(100 * d + max_size)
        for _ in range(6):
            extras = int(rng.integers(0, 3))
            state = random_covering_decomposition(d, max_size, rng, extras).subsets
            for _ in range(5):
                moves = enumerate_moves(state, d, max_size)
                yield d, max_size, state, moves
                state = moves[int(rng.integers(len(moves)))]


def _masks(state) -> frozenset:
    return frozenset(sum(1 << j for j in s) for s in state)


def move_count_mismatches() -> int:
    """Hastings counts the chain would read wrong, over the states of
    move_walk().

    For each delta of a state, its multiplicity must be its successor's
    multiplicity in enumerate_moves(state), and the reversed delta's
    multiplicity in the successor's deltas must be enumerate_moves(successor)
    .count(state).  The latter applies each of the successor's deltas to its
    set of subset bitmasks, as enumerate_moves does before it sorts.
    """
    mismatches = 0
    for d, max_size, state, moves in move_walk():
        deltas = move_deltas(state, d, max_size)
        forward, successors = Counter(deltas), Counter(moves)
        target = _masks(state)
        # a repeated delta repeats its successor, so each is checked once
        for delta, successor in dict(zip(deltas, moves)).items():
            back = move_deltas(successor, d, max_size)
            start = _masks(successor)
            # a move back adds only subsets of the state
            returns = sum(
                target.issuperset(a) and start.difference(r).union(a) == target
                for r, a in back
            )
            mismatches += forward[delta] != successors[successor]
            mismatches += back.count(delta[::-1]) != returns
    return mismatches


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
    obs = ObservationSet(Xo, yo, 0.05)
    post = fit(kernel, obs)
    xq = rng.uniform(size=(1, 3))
    total_mean = sum(
        post.factor_mean_var_batch(i, f.restrict(xq))[0][0] for i, f in enumerate(kernel.factors)
    )
    full_mean = dense_posterior(kernel, obs, xq)[0]
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
        exact += solve(g, rounds=4 * n_vars).diagnostics.best_value == brute_force_max(g)[0]
    yield "maxsum_tree_exactness", exact == trials, f"{exact}/{trials} exact"

    # 33 x 32 x 32 points make seven blocks of 4096 rows and a last one of
    # 5120 (as axes, the size rule would contract them); t = 17 is among the
    # t that OpenBLAS's small-matrix GEMM kernel rounds differently.  A
    # threaded GEMV computes the last rows of an uneven thread share with
    # another kernel, which would move the one-block means themselves; 33792
    # rows split into shares of a multiple of 4 rows over 2, 3, 4 or 8 threads
    rows = posterior_block_mismatches((33, 32, 32), 17, int(rng.integers(2**31)), points=True)
    yield "posterior_blocks_bitwise", rows == 0, f"{rows}/33792 rows differ from one block"

    # arities 2-4, each at a t the size rule contracts and at one it leaves
    # on row blocks; the bound is relative to the signal variance, and the
    # largest difference seen on these shapes, over eight seeds each, was
    # 2e-12, at t = 80.  Fixed seeds leave the later checks' draws alone
    cases = (((64, 64), 20), ((64, 64), 80), ((16, 16, 16), 17), ((16, 16, 16), 45))
    cases += (((4, 8, 16, 16), 17), ((4, 8, 16, 16), 60))
    try:
        errors = [grid_contraction_error(n, t, seed) for seed, (n, t) in enumerate(cases)]
    except NumericalFailureError:  # a variance the contraction itself refused
        errors = [(math.inf, -math.inf)]
    worst, low = max(e for e, _ in errors), min(v for _, v in errors)
    yield (
        "grid_contraction_close",
        worst <= 1e-10 and low > 0.0,
        f"worst |diff|/s2={worst:.1e} (<=1e-10) vs one block, least variance {low:.1e} (>0)",
    )

    # ten 15-row singletons pack into one 150-row block; OpenBLAS takes
    # their (15 x t)(t x t) products with its small-matrix GEMM kernel at
    # t = 17 and not at t = 300.  Pairs and triples pack at tau 7
    cases = (((1,) * 10, 15, 17), ((1,) * 10, 15, 300), ((2, 3, 2, 3, 1), 7, 60))
    entries = sum(
        packed_table_mismatches(arities, tau, t, int(rng.integers(2**31)), weighted)
        for arities, tau, t in cases
        for weighted in (False, True)
    )
    detail = f"{entries} table entries differ from one factor at a time"
    yield "packed_factors_bitwise", entries == 0, detail

    entries = gram_block_mismatches(60, int(rng.integers(2**31)))
    yield "gram_blocks_bitwise", entries == 0, f"{entries} Gram entries differ from uncached"

    bad = move_count_mismatches()
    yield "mcmc_move_counts", bad == 0, f"{bad} Hastings counts differ from enumerate_moves"
