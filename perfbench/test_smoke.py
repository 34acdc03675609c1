"""Smoke test of the benchmark: every workload at a tiny iteration count.

Run from the repository root, with pytest or as a script:

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

It checks that every metric BENCHMARK.json lists is printed, that every
metric named when the benchmark was specified is listed or dropped here with
a reason, and that the benchmark refuses to run without the fgbo sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SPECIFIED_END_TO_END = (
    "setup_s", "run_s", "iter_ms_p50", "iter_ms_p90", "peak_rss_mb", "cumulative_regret", "error_rate",
)
SPECIFIED_PER_LAYER = (
    "kernels.cross_factor_s", "kernels.cross_factor_calls", "kernels.cross_entries", "kernels.gram_s",
    "kernels.cross_additive_s", "gp.fit_s", "gp.fit_self_s", "gp.fit_calls", "gp.jitter_fits",
    "gp.factor_mean_var_s", "gp.factor_mean_var_self_s", "gp.factor_mean_var_rows",
    "gp.objective_mean_var_s", "gp.objective_mean_var_self_s", "gp.evidence_s", "gp.evidence_calls",
    "acquisition.tabulate_s", "acquisition.tabulate_self_s", "acquisition.table_entries",
    "acquisition.ns_per_entry", "maxsum.solve_s", "maxsum.solve_calls", "maxsum.rounds",
    "maxsum.converged_share", "maxsum.message_lookups", "maxsum.decode_s", "maxsum.decode_lookups",
    "maxsum.ns_per_lookup", "decomposition.sample_s", "decomposition.sample_calls",
    "decomposition.enumerate_moves_s", "decomposition.enumerate_moves_calls",
    "decomposition.moves_enumerated", "decomposition.log_evidence_s", "decomposition.log_evidence_calls",
    "bench.evaluate_s", "bench.evaluate_calls", "engine.loop_self_s", "engine.lookups",
    "engine.perturbations", "engine.perturbation_share", "engine.resolve_s", "config.validate_s",
    "engine.queries_matching",
)
DROPPED = {
    "error_rate": "reported as success_rate = 1 - error_rate, because an end-to-end metric "
    "must never read 0; the result line's attempted and failed carry the counts",
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_every_specified_metric_is_listed_or_dropped():
    listed = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in SPECIFIED_END_TO_END + SPECIFIED_PER_LAYER:
        assert name in listed or name in DROPPED, name


def test_every_workload_prints_every_metric():
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(
                "--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--iterations", "2",
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stdout
            units = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert set(result["metrics"]) == set(units), workload
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), name
                assert entry["unit"] == units[name], name


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
