"""Command-line front end: run experiments, reproduce tables, audit parts.

Subcommands:
    run             one seeded run from a JSON config (or manifest) file
    sweep           the same config across several seeds, with a summary CSV
    table1          the benchmark x {MF2, MF3, AddIndependent} regret matrix
    selftest        quick oracle and invariant checks with a pass/fail table
    dump-constants  embedded benchmark tables as JSON for audit

Exit codes: 0 success, 2 missing file, 3 config/schema violation,
4 numerical failure.  The output directory is --out, else $FGBO_OUT_DIR,
else ./runs.  Every run writes its manifest before any compute; re-running
a manifest reproduces the trace byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from multiprocessing import get_context

import numpy as np

from . import __version__, bench, config as config_mod, engine
from .acquisition import BetaMode, BetaSchedule, beta
from .errors import ConfigurationError, ContractViolationError, NumericalFailureError
from .gp import ObservationSet, dense_cholesky_with_jitter, fit
from .kernels import AdditiveKernel, FactorKernel, gram
from .maxsum import FactorGraph, run_rounds

EXIT_OK = 0
EXIT_MISSING_FILE = 2
EXIT_SCHEMA = 3
EXIT_NUMERICAL = 4

ENV_OUT_DIR = "FGBO_OUT_DIR"

# Frozen desk-scale reproduction settings.  Grid caps keep joint tables
# tractable per benchmark; beta is the small fixed constant commonly used in
# practice (the theoretical schedule over-explores at these horizons and the
# experiments' actual schedule is unreported).
TABLE1_BENCHMARKS = ("hartmann6", "shekel4", "michalewicz10")
TABLE1_LABELS = ("mf2", "mf3", "add")
_TABLE1_CAPS = {"hartmann6": 32, "shekel4": 32, "michalewicz10": 16}
_TABLE1_BETA = {"mode": "fixed_constant", "fixed_value": 4.0}


def benchmark_run_config(benchmark: str, label: str, seed: int, iterations: int = 150) -> dict:
    """Canonical config for one table1 matrix cell; shared with the test suite."""
    if benchmark not in TABLE1_BENCHMARKS:
        raise ConfigurationError(f"unknown benchmark {benchmark!r}")
    cap = _TABLE1_CAPS[benchmark]
    raw: dict = {
        "objective": benchmark,
        "iterations": iterations,
        "seed": seed,
        "initial_evaluations": 5,
        "noise_variance": 0.01,
        "beta": dict(_TABLE1_BETA),
        "grid_caps": [2, cap],
        "maxsum": {"rounds": 30, "damping": 0.0, "tol": 1e-8},
    }
    if label == "add":
        raw["algorithm"] = "add_independent"
    elif label in ("mf2", "mf3"):
        raw["algorithm"] = "dec_hbo"
        raw["decomposition"] = {
            "mode": "random",
            "max_factor_size": 2 if label == "mf2" else 3,
            "num_extra_overlaps": 1,
        }
    else:
        raise ConfigurationError(f"unknown table1 label {label!r}")
    return config_mod.validate_config(raw)


def _out_dir(flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    return os.environ.get(ENV_OUT_DIR) or "runs"


def _load_canonical(path: str) -> dict:
    if not os.path.isfile(path):  # a directory is a missing file too
        raise FileNotFoundError(path)
    return config_mod.validate_config(config_mod.load_config_file(path))


def _execute(canonical: dict, out_dir: str, quiet: bool) -> engine.RunResult:
    os.makedirs(out_dir, exist_ok=True)
    resolved = engine.resolve(engine.RunConfig.from_dict(canonical))
    engine.write_manifest(resolved.manifest, os.path.join(out_dir, "manifest.json"))
    result = engine.run_resolved(resolved)
    engine.write_trace_csv(result, os.path.join(out_dir, "trace.csv"))
    if not quiet:
        last = result.records[-1]
        print(
            f"{out_dir}: t={last.t} best_simple_regret={last.best:.6g} "
            f"cumulative_regret={last.R:.6g}"
        )
    return result


def cmd_run(args) -> int:
    canonical = _load_canonical(args.config)
    if args.seed is not None:
        canonical["seed"] = args.seed
    _execute(canonical, _out_dir(args.out), args.quiet)
    return EXIT_OK


def _sweep_worker(job) -> tuple:
    """One run of a sweep or table1; a failure names its seed and keeps its
    exception type, so the exit code stays the same."""
    canonical, out_dir = job
    seed = canonical["seed"]
    try:
        result = _execute(canonical, out_dir, quiet=True)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"seed {seed}: {exc}", jitter=exc.jitter) from exc
    except (FileNotFoundError, ConfigurationError, ContractViolationError) as exc:
        raise type(exc)(f"seed {seed}: {exc}") from exc
    last = result.records[-1]
    return seed, last.best, last.R


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for token in text.split(","):
        try:
            seeds.append(int(token))
        except ValueError:
            raise ConfigurationError(f"--seeds entry {token!r} is not an integer") from None
    return seeds


def cmd_sweep(args) -> int:
    canonical = _load_canonical(args.config)
    seeds = _parse_seeds(args.seeds)
    base = _out_dir(args.out)
    jobs = []
    for seed in seeds:
        per_seed = dict(canonical, seed=seed)
        jobs.append((per_seed, os.path.join(base, f"seed{seed}")))
    if args.jobs > 1:
        with get_context("spawn").Pool(args.jobs) as pool:
            rows = pool.map(_sweep_worker, jobs)
    else:
        rows = [_sweep_worker(job) for job in jobs]
    os.makedirs(base, exist_ok=True)
    summary = os.path.join(base, "summary.csv")
    with open(summary, "w") as fh:
        fh.write("seed,final_simple_regret,cumulative_regret\n")
        for seed, best, R in rows:
            fh.write("%d,%.17g,%.17g\n" % (seed, best, R))
    if not args.quiet:
        med = float(np.median([row[1] for row in rows]))
        print(f"{summary}: {len(rows)} seeds, median final simple regret {med:.6g}")
    return EXIT_OK


def cmd_table1(args) -> int:
    base = _out_dir(args.out)
    benchmarks = [b.strip() for b in args.benchmarks.split(",")]
    labels = [l.strip() for l in args.labels.split(",")]
    seeds = list(range(args.num_seeds))
    jobs = []
    for benchmark in benchmarks:
        for label in labels:
            for seed in seeds:
                canonical = benchmark_run_config(
                    benchmark, label, seed, iterations=args.iterations
                )
                out_dir = os.path.join(base, "table1", f"{benchmark}_{label}_seed{seed}")
                jobs.append((canonical, out_dir))
    if args.jobs > 1:
        with get_context("spawn").Pool(args.jobs) as pool:
            rows = pool.map(_sweep_worker, jobs)
    else:
        rows = [_sweep_worker(job) for job in jobs]
    finals = {}
    for (canonical, _), (seed, best, _R) in zip(jobs, rows):
        name = canonical["objective"]
        label = (
            "add"
            if canonical["algorithm"] == "add_independent"
            else f"mf{canonical['decomposition']['max_factor_size']}"
        )
        finals.setdefault((name, label), []).append((seed, best))
    os.makedirs(base, exist_ok=True)
    summary = os.path.join(base, "table1_summary.csv")
    with open(summary, "w") as fh:
        fh.write("benchmark,algorithm,median_final_simple_regret,per_seed\n")
        for (name, label), pairs in sorted(finals.items()):
            values = [b for _, b in sorted(pairs)]
            med = float(np.median(values))
            per_seed = ";".join("%.6g" % v for v in values)
            fh.write("%s,%s,%.17g,%s\n" % (name, label, med, per_seed))
            if not args.quiet:
                print(f"{name:14s} {label:4s} median={med:.4f} per-seed=[{per_seed}]")
    return EXIT_OK


def _selftest_checks():
    """Yield (name, passed, detail) for the quick audit battery."""
    rng = np.random.default_rng(20240817)

    s = bench.shekel4()
    v = bench.evaluate(s, s.known_argmin)
    yield "shekel_optimum", abs(v - bench.SHEKEL_OPTIMUM) <= 1e-3, f"f(x*)={v:.6f}"

    h = bench.hartmann6()
    v = bench.evaluate(h, h.known_argmin)
    yield "hartmann_optimum", abs(v - bench.HARTMANN6_OPTIMUM) <= 1e-3, f"f(x*)={v:.6f}"

    m = bench.michalewicz10()
    total = 0.0
    for i in range(1, bench.MICHALEWICZ_D + 1):
        x = np.linspace(0.0, math.pi, 20001)
        curve = -np.sin(x) * np.sin(i * x**2 / math.pi) ** (2 * bench.MICHALEWICZ_M)
        total += float(curve.min())
    yield (
        "michalewicz_optimum",
        abs(total - bench.MICHALEWICZ_OPTIMUM) <= 1e-2,
        f"per-dim search={total:.6f}",
    )

    X = rng.uniform(0, 10, size=(1000, 4))
    yield "shekel_negative", bool((bench.evaluate_batch(s, X) < 0).all()), "1000 points"

    sched = BetaSchedule(
        mode=BetaMode.DISCRETE_DOMAIN, delta=0.1, num_factors=3, domain_size=100
    )
    got = beta(sched, 1)
    want = 2.0 * math.log(100 * 3 * (math.pi**2 / 6.0) / 0.1)
    yield "beta_discrete_spot", abs(got - want) <= 1e-12, f"beta={got:.10f}"

    sched = BetaSchedule(
        mode=BetaMode.CONTINUOUS_LIPSCHITZ, delta=0.5, num_factors=1, dims=1
    )
    got = beta(sched, 1)
    want = 2.0 * math.log(2 * (math.pi**2 / 6.0) / 0.5) + 2.0 * math.log(
        math.sqrt(math.log(4.0))
    )
    yield "beta_continuous_spot", abs(got - want) <= 1e-12, f"beta={got:.10f}"

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
        got_val = run_rounds(g, max_rounds=4 * n_vars).best_value
        best = -math.inf
        for flat in range(tau**n_vars):
            idx = np.unravel_index(flat, (tau,) * n_vars)
            best = max(best, g.value_of(idx))
        if got_val == best:
            exact += 1
    yield "maxsum_tree_exactness", exact == trials, f"{exact}/{trials} exact"


def cmd_selftest(args) -> int:
    failures = 0
    for name, passed, detail in _selftest_checks():
        status = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        print(f"{status}  {name:26s} {detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return EXIT_OK


def cmd_dump_constants(args) -> int:
    doc = json.dumps(bench.benchmark_constants(), indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "constants.json")
        with open(path, "w") as fh:
            fh.write(doc + "\n")
        if not args.quiet:
            print(path)
    else:
        print(doc)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgbo", description="Factor-graph Bayesian optimization harness"
    )
    parser.add_argument("--version", action="version", version=f"fgbo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one seeded run from a config or manifest")
    p.add_argument("--config", required=True, help="JSON config or manifest path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="same config across several seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("table1", help="benchmark x decomposition regret matrix")
    p.add_argument("--out", default=None)
    p.add_argument("--iterations", type=int, default=150)
    p.add_argument("--num-seeds", type=int, default=5)
    p.add_argument("--benchmarks", default=",".join(TABLE1_BENCHMARKS))
    p.add_argument("--labels", default=",".join(TABLE1_LABELS))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("selftest", help="oracle and invariant audit")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("dump-constants", help="benchmark constants as JSON")
    p.add_argument("--out", default=None, help="directory for constants.json")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_dump_constants)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ConfigurationError, ContractViolationError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NumericalFailureError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
