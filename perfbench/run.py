"""fgbo benchmark: whole seeded Dec-HBO runs, each in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload h6_mf3 --seed 0 --seconds 25 --trace 0

Benchmark seed s stands for a fixed set of run seeds (workloads.py).  With
--trace 0 the run seeds are run in turn, untraced, until every seed has run
and --seconds have passed (and at least one seed has run twice), and the
end-to-end metrics of BENCHMARK.json are printed.  Each child times a fixed
reference kernel around its run (calibrate.py), and the end-to-end timings
are divided by the machine's slow-down factor it gives, so that other
tenants' load on the shared host moves them less; the raw timings are
printed and recorded beside them.  With --trace 1 the first
run seed is run alternately untraced and traced, and the per-layer metrics
are printed.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Full results, environment and
spans go to .perfbench_out/.

Each run is a closed loop with one client in one process: BO is sequential,
so every iteration waits for the previous observation.  BLAS is pinned to
BLAS_THREADS because the machine has 2 shared cores, and OpenBLAS's default
of 2 threads made an h6_mf3 run of 40 iterations slower: 6.1-6.3 s against
4.4-5.0 s with 1 thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 9  # process start-ups timed per invocation, runs included
MIN_TRACED_PAIRS = 2
REFERENCE_SEED = 0  # run seed of reference.json's query digests
REFERENCE_FILE = HERE / "reference.json"
TIME_LIMIT_S = 170.0  # an invocation must end within 180 s
STOP_STARTING_S = 100.0  # start no further run after this, whatever is left
# traced run_s that may fall outside every span (share, plus seconds): the
# root span starts some microseconds after the run's clock does
SELF_SUM_TOLERANCE = (1e-3, 1e-3)

# counts that must repeat exactly between runs of one seed
EXACT_COUNTS = (
    "engine.lookups",
    "maxsum.rounds",
    "acquisition.table_entries",
    "decomposition.moves_enumerated",
)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Starts child.py processes one at a time and collects their results."""

    def __init__(self, workload: str, iterations: int | None):
        self.workload = workload
        self.iterations = iterations
        self.started = time.perf_counter()
        self.env = _child_env()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, seed: int, *flags: str, count: bool = True) -> dict | None:
        """Run child.py once; its parsed JSON result, or None if it failed."""
        if count:
            self.attempted += 1
        timeout = TIME_LIMIT_S - self.elapsed()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload, "--seed", str(seed)]
        if self.iterations is not None:
            cmd += ["--iterations", str(self.iterations)]
        spawned_at = time.perf_counter()
        cmd += ["--spawned-at", repr(spawned_at), *flags]
        what = f"run seed {seed} {' '.join(flags)}".strip()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(timeout, 1.0)
            )
        except subprocess.TimeoutExpired:
            proc = None
            self.errors.append(f"{what}: timed out")
        if proc is not None and proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{what}: exit {proc.returncode}: {tail[0]}")
        if proc is None or proc.returncode != 0:
            if count:
                self.failed += 1
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_repeats(self, runs: list[dict]) -> None:
        """Runs of one seed must repeat the first one's queries and exact
        counts, and each run's records must pass its own checks."""
        first: dict = {}  # the first value seen of each count
        for run in runs:
            bad = list(run["problems"])
            if run["x_digest"] != runs[0]["x_digest"]:
                bad.append("x columns differ from the first run of this seed")
            for key in EXACT_COUNTS:
                if key in run["counts"] and first.setdefault(key, run["counts"][key]) != run["counts"][key]:
                    bad.append(f"{key} differs from the first run of this seed that counted it")
            if bad:
                run["problems"] = bad
                self.failed += 1


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _queries_matching(workload: str, queries: list[str]) -> int:
    reference = json.loads(REFERENCE_FILE.read_text())[workload]["queries"]
    n = 0
    for ours, theirs in zip(queries, reference):
        if ours != theirs:
            break
        n += 1
    return n


def _git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _environment(probe: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "note": f"every number comes from one shared {nproc}-core machine; "
        "load from other tenants is not controlled",
        "blas_threads_pinned": BLAS_THREADS,
        "git_commit": _git_commit(),
        **probe.get("environment", {}),
    }


def run_untraced(runner: Runner, seeds: list[int], seconds: float) -> tuple[dict, dict]:
    by_seed: dict[int, list[dict]] = {s: [] for s in seeds}
    deadline = time.perf_counter() + seconds
    i = 0
    # every seed once, the first seed twice, then round robin until the deadline
    while i <= len(seeds) or time.perf_counter() < deadline:
        if runner.elapsed() > STOP_STARTING_S:
            runner.errors.append(f"stopped after {i} runs: time limit")
            break
        seed = seeds[i % len(seeds)]
        result = runner.spawn(seed)
        if result is not None:
            by_seed[seed].append(result)
        i += 1
    runs = [r for rs in by_seed.values() for r in rs]
    starts = list(runs)  # every child that timed its set-up
    while len(starts) < SETUP_SAMPLES and runner.elapsed() < STOP_STARTING_S:
        probe = runner.spawn(seeds[0], "--setup-only", count=False)
        if probe is None:
            break
        starts.append(probe)
    done = [rs for rs in by_seed.values() if rs]
    if len(done) < len(seeds):
        runner.errors.append(f"only {len(done)} of {len(seeds)} run seeds completed")
    if not done:
        return {"runs": runs}, {}
    for rs in done:
        runner.check_repeats(rs)

    def unscaled(r):
        return 1.0

    def slowdown(r):  # of the machine around the child's run, calibrate.py
        return r["slowdown"]

    def seed_mean(key, scale=unscaled):
        # per seed, the median over its repeats; then the mean over seeds,
        # so every seed weighs the same however often it ran
        return statistics.fmean(statistics.median(r[key] / scale(r) for r in rs) for rs in done)

    def timings(scale) -> dict:
        gaps = [
            statistics.median(col)
            for rs in done
            for col in zip(*([g / scale(r) for g in r["iter_ms"]] for r in rs))
        ]
        return {
            "setup_s": (statistics.median(r["setup_s"] / scale(r) for r in starts), "s", len(starts)),
            "run_s": (seed_mean("run_s", scale), "s", len(runs)),
            "iter_ms_p50": (statistics.median(gaps), "ms", len(gaps)),
            "iter_ms_p90": (_percentile(gaps, 0.9), "ms", len(gaps)),
        }

    metrics = {
        **timings(slowdown),
        "peak_rss_mb": (seed_mean("peak_rss_mb"), "MB", len(runs)),
        "cumulative_regret": (seed_mean("cumulative_regret"), "regret", len(done)),
        "success_rate": (
            (runner.attempted - runner.failed) / runner.attempted, "share", runner.attempted,
        ),
    }
    calibration = {
        "slowdown_median": statistics.median(r["slowdown"] for r in starts),
        "raw_timings": {name: value for name, (value, _, _) in timings(unscaled).items()},
    }
    return {"runs": runs, "calibration": calibration}, metrics


def run_traced(runner: Runner, seeds: list[int], seconds: float) -> tuple[dict, dict]:
    seed = seeds[0]
    OUT_DIR.mkdir(exist_ok=True)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        if runner.elapsed() > STOP_STARTING_S:
            break
        result = runner.spawn(seed)
        if result is not None:
            untraced.append(result)
        spans = OUT_DIR / f"{runner.workload}-seed{seed}-spans{len(traced)}.jsonl"
        result = runner.spawn(seed, "--trace", "--spans", str(spans))
        if result is not None:
            traced.append(result)
    reference = untraced[0] if untraced else None
    if seed != REFERENCE_SEED:
        reference = runner.spawn(REFERENCE_SEED)
        if reference is not None:
            runner.check_repeats([reference])
    if not traced or not untraced or reference is None:
        return {"runs": untraced + traced}, {}
    # traced runs must take the same decisions as untraced ones
    runner.check_repeats(untraced + traced)
    metrics = {}
    for name in traced[0]["metrics"]:
        values = [r["metrics"][name] for r in traced]
        timed = name.endswith("_s") or "ns_per" in name
        metrics[name] = (statistics.median(values) if timed else values[0], _unit(name), len(traced))
    metrics["tracing.overhead_s"] = (
        metrics["tracing.run_s"][0] - statistics.median(r["run_s"] for r in untraced), "s", len(untraced),
    )
    metrics["engine.queries_matching"] = (
        _queries_matching(runner.workload, reference["queries"]), "count", 1,
    )
    # self times plus the engine's own loop must account for the traced run
    for r in traced:
        residual = r["metrics"]["tracing.self_sum_residual_s"]
        share, slack = SELF_SUM_TOLERANCE
        if abs(residual) > share * r["metrics"]["tracing.run_s"] + slack:
            runner.failed += 1
            runner.errors.append(f"self times miss the traced run_s by {residual:.3g} s")
    detail = {"runs": untraced + traced, "dominant_stage": traced[0]["dominant_stage"]}
    return detail, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "ns_per" in name:
        return "ns"
    if name.endswith("_share"):
        return "share"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fgbo end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--iterations", type=int, help="override the workload's iteration count (smoke runs)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fgbo" / "__init__.py").is_file():
        print(f"no fgbo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = workload.run_seeds(args.seed)
    runner = Runner(args.workload, args.iterations)
    # compiles bytecode and warms the file cache; also reports the environment
    probe = runner.spawn(seeds[0], "--setup-only", count=False)
    if probe is None:
        print("fgbo could not be set up: " + "; ".join(runner.errors), file=sys.stderr)
        return 3
    run = run_traced if args.trace else run_untraced
    detail, metrics = run(runner, seeds, args.seconds)
    if not metrics:
        print("no run completed: " + "; ".join(runner.errors), file=sys.stderr)
        return 1

    environment = _environment(probe)
    print(json.dumps({"environment": environment, "run_seeds": seeds}))
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:<11} {name:<36} {value:>14.6g} {unit:<6} n={samples}")
    if "calibration" in detail:
        cal = detail["calibration"]
        print(f"{args.workload:<11} machine slowdown, median over runs: {cal['slowdown_median']:.4f}")
        for name, value in cal["raw_timings"].items():
            print(f"{args.workload:<11} {'raw ' + name:<36} {value:>14.6g}")
    if "dominant_stage" in detail:
        share = metrics["engine.dominant_stage_share"][0]
        print(f"{args.workload:<11} dominant stage: {detail['dominant_stage']} ({share:.0%} of the traced run)")
    for error in runner.errors:
        print(f"error: {error}")
    for r in detail["runs"]:
        for problem in r["problems"]:
            print(f"incorrect: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "run_seeds": seeds,
        "seconds": args.seconds, "trace": args.trace, "environment": environment,
        "errors": runner.errors,
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
        **detail,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
