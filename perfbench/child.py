"""One seeded optimisation run in a fresh process, measured from outside.

Usage: python3 perfbench/child.py --workload NAME --seed N --spawned-at T
           [--iterations N] [--setup-only] [--trace] [--spans PATH]

--seed is the run seed, passed to the program's config as is.

--spawned-at is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so setup_s
includes interpreter start.  After set-up, and again after the run, the
child times the reference kernel of calibrate.py; its result carries those
times (kernel_s) and the machine's slow-down factor they give.  Prints one
JSON object on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# rounded published optima let a query beat f(x*) by this much
REGRET_FLOOR = -1e-3


def _import_fgbo():
    sys.path.insert(0, str(SRC))
    import fgbo

    if Path(fgbo.__file__).resolve().parent != SRC / "fgbo":
        raise SystemExit(f"imported fgbo from {fgbo.__file__}, not from {SRC}")


def _query_digests(records) -> list[str]:
    return [
        hashlib.sha256(",".join("%.17g" % v for v in rec.x).encode()).hexdigest()[:16]
        for rec in records
    ]


def _check_records(result, config) -> list[str]:
    """Failures of the run's own output; empty when it is correct."""
    records = result.records
    problems = []
    if len(records) != config.initial_evaluations + config.iterations:
        problems.append(f"{len(records)} records for {config.iterations} iterations")
    total = 0.0
    best = math.inf
    for rec in records:
        if not all(math.isfinite(v) for v in (rec.y, rec.f, rec.r, rec.R, rec.best)):
            problems.append(f"non-finite value at t={rec.t}")
            break
        if rec.r < REGRET_FLOOR:
            problems.append(f"regret {rec.r!r} below the optimum at t={rec.t}")
            break
        total += rec.r
        best = min(best, rec.r)
        if not math.isclose(rec.R, total, rel_tol=1e-12, abs_tol=1e-12) or rec.best != best:
            problems.append(f"cumulative or best regret inconsistent at t={rec.t}")
            break
    if len(result.lookups_per_iteration) != config.iterations:
        problems.append("lookups_per_iteration has the wrong length")
    return problems


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    getters = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_get_num_threads64_",
    )
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for getter in getters:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_reported": _blas_threads(),
    }


def _stamped(fn, stamps: list):
    """fn, appending perf_counter() at each call: the query hand-off time."""

    def wrapper(*args, **kwargs):
        stamps.append(time.perf_counter())
        return fn(*args, **kwargs)

    return wrapper


def _trace_metrics(tracer, run_s: float, result, iterations: int) -> dict:
    from tracing import RUN_LAYERS

    summary = tracer.summary()
    by_name, by_layer = summary["by_name"], summary["by_layer"]
    counts = tracer.counts

    def span(name, key="s"):
        entry = by_name.get(name)
        if entry is None:
            return 0 if key == "calls" else 0.0
        return entry[key]

    solve_calls = span("maxsum.solve", "calls")
    maxsum_lookups = counts["maxsum.message_lookups"] + counts["maxsum.decode_lookups"]
    loop_self = span("engine.run_resolved", "self_s")
    stages = tracer.top_level_stages("engine.run_resolved")
    dominant = max(stages, key=stages.get) if stages else "engine.run_resolved"
    metrics = {
        "kernels.cross_factor_s": span("kernels.cross_factor"),
        "kernels.cross_factor_calls": span("kernels.cross_factor", "calls"),
        "kernels.cross_entries": counts["kernels.cross_entries"],
        "kernels.gram_s": span("kernels.gram"),
        "kernels.cross_additive_s": span("kernels.cross_additive"),
        "gp.fit_s": span("gp.fit"),
        "gp.fit_self_s": span("gp.fit", "self_s"),
        "gp.fit_calls": span("gp.fit", "calls"),
        "gp.jitter_fits": counts["gp.jitter_fits"],
        "gp.factor_mean_var_s": span("gp.factor_mean_var_batch"),
        "gp.factor_mean_var_self_s": span("gp.factor_mean_var_batch", "self_s"),
        "gp.factor_mean_var_rows": counts["gp.factor_mean_var_rows"],
        "gp.objective_mean_var_s": span("gp.objective_mean_var_batch"),
        "gp.objective_mean_var_self_s": span("gp.objective_mean_var_batch", "self_s"),
        "gp.evidence_s": span("gp.log_marginal_likelihood"),
        "gp.evidence_calls": span("gp.log_marginal_likelihood", "calls"),
        "acquisition.tabulate_s": span("acquisition.tabulate"),
        "acquisition.tabulate_self_s": span("acquisition.tabulate", "self_s"),
        "acquisition.table_entries": counts["acquisition.table_entries"],
        "acquisition.ns_per_entry": (
            1e9 * span("acquisition.tabulate") / counts["acquisition.table_entries"]
            if counts["acquisition.table_entries"]
            else 0.0
        ),
        "maxsum.solve_s": span("maxsum.solve"),
        "maxsum.solve_calls": solve_calls,
        "maxsum.rounds": counts["maxsum.rounds"],
        "maxsum.converged_share": counts["maxsum.converged"] / solve_calls if solve_calls else 0.0,
        "maxsum.message_lookups": counts["maxsum.message_lookups"],
        "maxsum.decode_s": span("maxsum.decode"),
        "maxsum.decode_lookups": counts["maxsum.decode_lookups"],
        "maxsum.ns_per_lookup": 1e9 * span("maxsum.solve") / maxsum_lookups if maxsum_lookups else 0.0,
        "decomposition.sample_s": span("decomposition.sample_posterior"),
        "decomposition.sample_calls": span("decomposition.sample_posterior", "calls"),
        "decomposition.enumerate_moves_s": span("decomposition.enumerate_moves"),
        "decomposition.enumerate_moves_calls": span("decomposition.enumerate_moves", "calls"),
        "decomposition.moves_enumerated": counts["decomposition.moves_enumerated"],
        "decomposition.log_evidence_s": span("decomposition.log_evidence"),
        "decomposition.log_evidence_calls": span("decomposition.log_evidence", "calls"),
        "bench.evaluate_s": span("bench.evaluate") + span("bench.noisy_evaluate"),
        "bench.evaluate_calls": span("bench.evaluate", "calls") + span("bench.noisy_evaluate", "calls"),
        "engine.loop_self_s": loop_self,
        "engine.lookups": sum(result.lookups_per_iteration),
        "engine.perturbations": len(result.perturbations),
        "engine.perturbation_share": len(result.perturbations) / iterations,
        "engine.resolve_s": span("engine.resolve"),
        "config.validate_s": span("config.validate_config"),
        "engine.dominant_stage_share": stages.get(dominant, 0.0) / run_s,
        "tracing.run_s": run_s,
        "tracing.self_sum_residual_s": run_s - loop_self - sum(by_layer.get(l, 0.0) for l in RUN_LAYERS),
    }
    for layer in RUN_LAYERS:
        metrics[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return {"metrics": metrics, "dominant_stage": dominant}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args(argv)

    _import_fgbo()
    import calibrate
    from fgbo import config as config_mod, engine
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    raw = workload.build(args.seed, args.iterations or workload.iterations)
    tracer = None
    validate, resolve = config_mod.validate_config, engine.resolve
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        validate = tracer.wrap("config.validate_config", validate)
        resolve = tracer.wrap("engine.resolve", resolve)
    canonical = validate(raw)
    resolved = resolve(engine.RunConfig.from_dict(canonical))
    setup_s = time.perf_counter() - args.spawned_at
    # the machine's speed just before and just after the run
    calibrate.kernel()  # the first pass warms numpy's code paths
    kernel_s = [calibrate.kernel()]
    if args.setup_only:
        print(json.dumps({
            "setup_s": setup_s, "slowdown": calibrate.slowdown(kernel_s), "environment": _environment(),
        }))
        return 0

    stamps: list[float] = []
    start = time.perf_counter()
    if tracer is None:
        engine.evaluate = _stamped(engine.evaluate, stamps)
        result = engine.run_resolved(resolved)
    else:
        result = tracer.wrap("engine.run_resolved", engine.run_resolved)(resolved)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel_s.append(calibrate.kernel())

    cfg = resolved.config
    queries = _query_digests(result.records)
    out = {
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "slowdown": calibrate.slowdown(kernel_s),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "cumulative_regret": result.cumulative_regret,
        # gaps between successive evaluate calls of the BO iterations
        "iter_ms": [
            1e3 * (b - a) for a, b in zip(stamps[cfg.initial_evaluations - 1 :], stamps[cfg.initial_evaluations :])
        ],
        "x_digest": hashlib.sha256("\n".join(queries).encode()).hexdigest(),
        "queries": queries,
        "counts": {
            "engine.lookups": sum(result.lookups_per_iteration),
            "maxsum.rounds": sum(rec.rounds for rec in result.records),
        },
        "problems": _check_records(result, cfg),
    }
    if tracer is not None:
        traced = _trace_metrics(tracer, run_s, result, cfg.iterations)
        out.update(traced)
        for key in ("acquisition.table_entries", "decomposition.moves_enumerated"):
            out["counts"][key] = traced["metrics"][key]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
