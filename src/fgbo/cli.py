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
import os
import sys
from dataclasses import replace
from multiprocessing import get_context

import numpy as np

from . import __version__, bench, config as config_mod, engine
from .errors import ConfigurationError, ContractViolationError, NumericalFailureError

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


def _load_canonical(path: str) -> config_mod.RunConfig:
    if not os.path.isfile(path):  # a directory is a missing file too
        raise FileNotFoundError(path)
    return config_mod.RunConfig.from_dict(config_mod.load_config_file(path))


def _execute(config: config_mod.RunConfig, out_dir: str, quiet: bool) -> engine.RunResult:
    resolved = engine.resolve(config)  # refusals here leave no directory behind
    os.makedirs(out_dir, exist_ok=True)
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
    config = _load_canonical(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)  # validated like the file
    _execute(config, _out_dir(args.out), args.quiet)
    return EXIT_OK


def _seeded(config: config_mod.RunConfig, seed: int) -> config_mod.RunConfig:
    """config at another seed; a refused seed is named in the error."""
    try:
        return replace(config, seed=seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"seed {seed}: {exc}") from exc


def _sweep_worker(job) -> tuple:
    """One seeded run of a sweep or table1; a failure names its seed and
    keeps its exception type, so the exit code stays the same."""
    config, out_dir = job
    seed = config.seed
    try:
        result = _execute(config, out_dir, quiet=True)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"seed {seed}: {exc}", jitter=exc.jitter) from exc
    except (FileNotFoundError, ConfigurationError, ContractViolationError) as exc:
        raise type(exc)(f"seed {seed}: {exc}") from exc
    last = result.records[-1]
    return seed, last.best, last.R


def _map_runs(jobs: list, processes: int) -> list:
    processes = min(processes, len(jobs))  # a worker with no run only costs a spawn
    if processes > 1:
        with get_context("spawn").Pool(processes) as pool:
            return pool.map(_sweep_worker, jobs)
    return [_sweep_worker(job) for job in jobs]


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigurationError(f"{flag} must be >= 1, got {value}")


def _distinct(flag: str, values: list) -> list:
    """values, refused if any repeats: each entry's runs have their own
    directories."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigurationError(f"{flag} repeats {repeated}")
    return values


def _parse_seeds(text: str) -> list[int]:
    """Distinct integer seeds."""
    seeds = []
    for token in text.split(","):
        try:
            seeds.append(int(token))
        except ValueError:
            raise ConfigurationError(f"--seeds entry {token!r} is not an integer") from None
    return _distinct("--seeds", seeds)


def cmd_sweep(args) -> int:
    _at_least_one("--jobs", args.jobs)
    config = _load_canonical(args.config)
    seeds = _parse_seeds(args.seeds)
    base = _out_dir(args.out)
    # every seed is validated before the first run writes its directory
    jobs = [(_seeded(config, seed), os.path.join(base, f"seed{seed}")) for seed in seeds]
    rows = _map_runs(jobs, args.jobs)
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
    _at_least_one("--num-seeds", args.num_seeds)
    _at_least_one("--jobs", args.jobs)
    base = _out_dir(args.out)
    benchmarks = _distinct("--benchmarks", [b.strip() for b in args.benchmarks.split(",")])
    labels = _distinct("--labels", [l.strip() for l in args.labels.split(",")])
    seeds = list(range(args.num_seeds))
    cells, jobs = [], []
    for benchmark in benchmarks:
        for label in labels:
            config = config_mod.RunConfig.from_dict(
                benchmark_run_config(benchmark, label, 0, iterations=args.iterations)
            )
            for seed in seeds:
                out_dir = os.path.join(base, "table1", f"{benchmark}_{label}_seed{seed}")
                cells.append((benchmark, label))
                jobs.append((_seeded(config, seed), out_dir))
    rows = _map_runs(jobs, args.jobs)
    finals = {}
    for cell, (seed, best, _R) in zip(cells, rows):
        finals.setdefault(cell, []).append((seed, best))
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


def cmd_selftest(args) -> int:
    from . import selftest  # imported here, so a run does not load the battery

    failures = 0
    for name, passed, detail in selftest.checks():
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
