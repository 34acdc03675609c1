"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the lines as they happen.
Every check is seeded and deterministic; thresholds were frozen after pilot
runs and are stated inline next to each criterion.
"""

import json
import math
import time

import numpy as np

from fgbo.bench import evaluate, hartmann6, michalewicz10, shekel4
from fgbo.cli import benchmark_run_config, main
from fgbo.decomposition import (
    Decomposition,
    McmcConfig,
    SharedHypers,
    induced_kernel,
    sample_posterior,
)
from fgbo.engine import RunConfig, run
from fgbo.gp import ObservationSet, dense_cholesky_with_jitter, fit
from fgbo.kernels import gram
from fgbo.maxsum import solve
from fgbo.selftest import (
    BETA_DISCRETE_CASES,
    beta_errors,
    brute_force_max,
    dense_posterior,
    michalewicz_per_dim_search,
)

from test_acquisition import TAU_CASES
from test_gp import random_kernel
from test_maxsum import loopy_overlap_graph, random_acyclic_graph


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_01_benchmark_ground_truth():
    s = evaluate(shekel4(), (4.0, 4.0, 4.0, 4.0))
    h = evaluate(hartmann6(), hartmann6().known_argmin)
    m, _ = michalewicz_per_dim_search()
    assert evaluate(michalewicz10(), [math.pi / 2] * 10) <= 0  # sanity: callable
    ok = (
        abs(s - -10.5364) <= 1e-3
        and abs(h - -3.32237) <= 1e-3
        and abs(m - -9.66015) <= 1e-2
    )
    detail = f"optima {s:.6f}/{h:.6f}/{m:.6f} vs -10.5364/-3.32237/-9.66015"
    assert _report(1, ok, detail), detail


def test_criterion_02_maxsum_tree_exactness():
    t0 = time.time()
    exact = 0
    trials = 200
    for i in range(trials):
        rng = np.random.default_rng(5000 + i)
        g = random_acyclic_graph(rng)  # <=6 vars, arity <=3, <=8 values
        diag = solve(g, rounds=4 * g.num_variables).diagnostics
        best, _ = brute_force_max(g)
        # bitwise float equality, of the best round and of the last one
        exact += diag.best_value == best and diag.trace[-1][2] == best
    elapsed = time.time() - t0
    ok = exact == trials and elapsed < 10.0
    detail = f"{exact}/{trials} decoded values bitwise-equal brute force [{elapsed:.1f}s]"
    assert _report(2, ok, detail), detail


def test_criterion_03_loopy_maxsum_quality():
    t0 = time.time()
    wins = 0
    worst = math.inf
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        g = loopy_overlap_graph(rng)  # 4 vars, size-2/3 overlapping, tau=6
        diag = solve(g, rounds=30).diagnostics
        best, _ = brute_force_max(g)
        ratio = diag.best_value / best
        worst = min(worst, ratio)
        wins += diag.best_value >= 0.95 * best
    elapsed = time.time() - t0
    ok = wins >= 48 and elapsed < 30.0
    detail = f"{wins}/50 graphs >= 0.95x optimum (worst ratio {worst:.4f}) [{elapsed:.1f}s]"
    assert _report(3, ok, detail), detail


def test_criterion_04_gp_oracle_equivalence():
    t0 = time.time()
    worst_rel = 0.0
    worst_add = 0.0
    for i in range(50):
        rng = np.random.default_rng(300 + i)
        d = int(rng.integers(2, 5))
        kernel = random_kernel(rng, d)
        n = int(rng.integers(3, 21))  # <= 20 observations
        obs = ObservationSet(
            rng.uniform(size=(n, d)), rng.normal(size=n), noise_variance=0.05
        )
        post = fit(kernel, obs)
        for x in rng.uniform(size=(5, d)).reshape(5, 1, d):
            total_mean = 0.0
            for fi, f in enumerate(kernel.factors):
                om, ov = dense_posterior(kernel, obs, x, fi)
                (gm,), (gv,) = post.factor_mean_var_batch(fi, f.restrict(x))
                total_mean += gm
                denom_m = max(1.0, abs(om))
                denom_v = max(1.0, abs(ov))
                worst_rel = max(
                    worst_rel, abs(gm - om) / denom_m, abs(gv - ov) / denom_v
                )
            worst_add = max(worst_add, abs(total_mean - dense_posterior(kernel, obs, x)[0]))
    elapsed = time.time() - t0
    ok = worst_rel < 1e-8 and worst_add < 1e-8 and elapsed < 10.0
    detail = (
        f"50 instances: worst posterior rel err {worst_rel:.2e}, "
        f"worst additivity gap {worst_add:.2e} [{elapsed:.1f}s]"
    )
    assert _report(4, ok, detail), detail


def test_criterion_05_schedule_spot_checks():
    from fgbo.acquisition import BetaSchedule, beta, grid_for_iteration

    worst = max(beta_errors())

    mono = True
    sched_d = BetaSchedule(
        mode="discrete_domain", delta=0.1, num_factors=3, dims=1
    )
    sched_c = BetaSchedule(
        mode="continuous_lipschitz", delta=0.1, num_factors=2, dims=4
    )
    for sched in (sched_d, sched_c):
        vals = [beta(sched, t, 10_000) for t in range(1, 10_001)]
        mono = mono and all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))

    tau_ok = True
    for dims, a, b, num_factors, delta, t, expected in TAU_CASES:
        sched = BetaSchedule(
            mode="continuous_lipschitz",
            delta=delta,
            num_factors=num_factors,
            dims=dims,
            lipschitz_a=a,
            lipschitz_b=b,
        )
        grid = grid_for_iteration(sched, t, caps=(2, 10**9))
        tau_ok = tau_ok and grid.per_dim_points == expected

    ok = worst < 1e-9 and mono and tau_ok
    detail = (
        f"spot-check err {worst:.2e} vs 60-digit oracle (17.0124 case -> "
        f"{BETA_DISCRETE_CASES[0][4]:.10f}); monotone={mono}; tau pre-cap={tau_ok}"
    )
    assert _report(5, ok, detail), detail


def test_criterion_06_table1_reproduction():
    t0 = time.time()
    medians = {}
    for label in ("mf3", "add"):
        finals = []
        for seed in range(5):
            canonical = benchmark_run_config("hartmann6", label, seed, iterations=150)
            finals.append(run(RunConfig.from_dict(canonical)).final_simple_regret)
        medians[label] = float(np.median(finals))
    elapsed = time.time() - t0
    ok = medians["mf3"] <= 1.5 and medians["mf3"] <= medians["add"] and elapsed < 1800
    detail = (
        f"hartmann6 150 iters x 5 seeds: median final simple regret "
        f"mf3={medians['mf3']:.4f} (<=1.5), add={medians['add']:.4f} "
        f"(mf3<=add) [{elapsed:.0f}s]"
    )
    assert _report(6, ok, detail), detail


# criterion 7: frozen configuration -- d=4 sample from the model's own
# prior with two overlapping factors, true structure given to the
# surrogate, tau capped at 16, fixed beta 4.0
_C7_SUBSETS = ((0, 1), (1, 2, 3))
_C7_LENGTHSCALE = 0.2


def _c7_factor_weights(sample_seed: int) -> list:
    """Replicate prior_sample_objective's seeded draws factor by factor:
    (sub-grid nodes U, interpolation weights w), signal variance 1."""
    values = np.linspace(0.0, 1.0, 7)
    rng = np.random.default_rng(sample_seed)
    out = []
    for s in _C7_SUBSETS:
        mesh = np.meshgrid(*([values] * len(s)), indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=-1)
        ls = np.full(len(s), _C7_LENGTHSCALE)
        diff = U[:, None, :] / ls - U[None, :, :] / ls  # the sampler's float ops
        L, _ = dense_cholesky_with_jitter(
            1.0 * np.exp(-0.5 * np.einsum("mnk,mnk->mn", diff, diff))
        )
        draws = L @ rng.standard_normal(len(U))
        out.append((U, np.linalg.solve(L.T, np.linalg.solve(L, draws))))
    return out


def _c7_axis_table(axis, nodes):
    """E[a, n] = exp(-0.5 ((axis[a] - nodes[n]) / l)^2)."""
    z = (axis[:, None] - nodes[None, :]) / _C7_LENGTHSCALE
    return np.exp(-0.5 * z * z)


def _c7_optimum(sample_seed: int, fine: int = 121, coarse: int = 61) -> float:
    """Additive DP over the shared coordinate: max_{x1} of per-factor maxima.

    A factor's interpolant sum_n w_n prod_j E_j[a_j, n] separates per
    dimension, so its values on a grid come from per-axis exponential
    tables and one matrix product.
    """
    (U1, w1), (U2, w2) = _c7_factor_weights(sample_seed)
    ax = np.linspace(0.0, 1.0, fine)
    xc = np.linspace(0.0, 1.0, coarse)
    # factor (0, 1) on ax x ax, maximised over x0
    F1 = (_c7_axis_table(ax, U1[:, 0]) * w1) @ _c7_axis_table(ax, U1[:, 1]).T
    best1 = F1.max(axis=0)
    # factor (1, 2, 3) on ax x xc x xc, maximised over x2 and x3
    E12 = _c7_axis_table(ax, U2[:, 0])[:, None, :] * _c7_axis_table(xc, U2[:, 1])
    F2 = (E12.reshape(-1, len(w2)) * w2) @ _c7_axis_table(xc, U2[:, 2]).T
    best2 = F2.reshape(fine, coarse * coarse).max(axis=1)
    return float((best1 + best2).max())


def test_criterion_07_no_regret_trend():
    t0 = time.time()
    ratios = []
    for seed in range(10):
        config = RunConfig(
            objective={
                "kind": "prior_sample",
                "dims": 4,
                "subsets": [list(s) for s in _C7_SUBSETS],
                "sample_seed": 100 + seed,
                "grid_points": 7,
            },
            algorithm="dec_hbo",
            iterations=150,
            seed=seed,
            initial_evaluations=5,
            noise_variance=0.01,
            decomposition={"mode": "static", "subsets": [list(s) for s in _C7_SUBSETS]},
            beta={"mode": "fixed_constant", "fixed_value": 4.0},
            grid_caps=(2, 16),
            optimum_value=_c7_optimum(100 + seed),
        )
        by_t = {rec.t: rec for rec in run(config).records}
        ratios.append((by_t[150].R / 150.0) / (by_t[15].R / 15.0))
    med = float(np.median(ratios))
    elapsed = time.time() - t0
    ok = med <= 0.5
    detail = f"median over 10 seeds of (R/t @150)/(R/t @15) = {med:.4f} (<=0.5) [{elapsed:.0f}s]"
    assert _report(7, ok, detail), detail


def test_criterion_08_cost_model_echo():
    def mean_lookups(algorithm, tau, decomposition=None):
        config = RunConfig(
            objective="shekel4",
            algorithm=algorithm,
            iterations=5,
            seed=0,
            initial_evaluations=3,
            decomposition=decomposition,
            grid_caps=(tau, tau),
            beta={"mode": "fixed_constant", "fixed_value": 4.0},
        )
        return float(np.mean(run(config).lookups_per_iteration))

    taus = (4, 8, 16)
    dec = {"mode": "random", "max_factor_size": 2, "num_extra_overlaps": 1}
    ok = True
    parts = []
    for name, alg, spec, power in (
        ("mf2", "dec_hbo", dec, 2),
        ("centralized", "centralized_gp_ucb", None, 4),
    ):
        L = [mean_lookups(alg, tau, spec) for tau in taus]
        for i in (1, 2):
            got = L[i] / L[0]
            want = (taus[i] / taus[0]) ** power
            ok = ok and 0.5 <= got / want <= 2.0
        parts.append(f"{name}: growth {L[2]/L[0]:.1f} vs tau^{power} model {4**power}")
    detail = "; ".join(parts) + " (within factor 2)"
    assert _report(8, ok, detail), detail


def test_criterion_09_decomposition_recovery():
    t0 = time.time()
    truth = Decomposition(d=4, subsets=((0, 1), (2, 3)), max_factor_size=2)
    hypers = SharedHypers(total_signal_variance=2.0, lengthscales=0.25)
    hits = 0
    for data_seed in range(10):
        rng = np.random.default_rng(data_seed)
        X = rng.uniform(size=(60, 4))
        K = gram(induced_kernel(truth.subsets, hypers), X)
        L = np.linalg.cholesky(K + 1e-10 * np.eye(60))
        y = L @ rng.standard_normal(60) + 0.05 * rng.standard_normal(60)
        samples = sample_posterior(
            ObservationSet(X, y, noise_variance=0.01),
            McmcConfig(
                max_factor_size=2, chain_length=6000, burn_in=3000, thinning=300,
                num_samples=10, size_penalty=3.0,
            ),
            np.random.default_rng(10_000 + data_seed),
            hypers=hypers,
        )
        hits += sum(dec.subsets == truth.subsets for dec in samples)
    elapsed = time.time() - t0
    ok = hits >= 60
    detail = f"{hits}/100 posterior samples recover the true structure (>=60) [{elapsed:.0f}s]"
    assert _report(9, ok, detail), detail


def test_criterion_10_manifest_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "objective": "shekel4",
                "algorithm": "dec_hbo",
                "iterations": 10,
                "seed": 4,
                "initial_evaluations": 3,
                "decomposition": {
                    "mode": "random",
                    "max_factor_size": 2,
                    "num_extra_overlaps": 1,
                },
                "grid_caps": [3, 8],
            }
        )
    )
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", str(cfg), "--out", str(first), "--quiet"]) == 0
    assert (
        main(
            [
                "run",
                "--config",
                str(first / "manifest.json"),
                "--out",
                str(second),
                "--quiet",
            ]
        )
        == 0
    )
    a = (first / "trace.csv").read_bytes()
    b = (second / "trace.csv").read_bytes()
    ok = a == b
    detail = f"manifest re-run byte-identical trace ({len(a)} bytes)"
    assert _report(10, ok, detail), detail
