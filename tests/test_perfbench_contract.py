"""The benchmark's view of the package: each workload of BENCHMARK.json runs
through perfbench/child.py, traced, for a few iterations, and its queries
start like the pinned ones of perfbench/reference.json.

perfbench calls RunConfig.from_dict, resolve, run_resolved,
cli.benchmark_run_config and the RunResult and SolveResult fields, and its
tracer patches functions of engine, gp, maxsum and decomposition by name.
A rename or a removal there fails here, in seconds, instead of in the
benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_runs_clean(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload]
    argv += ["--seed", "0", "--spawned-at", "0", "--iterations", "3", "--trace"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["problems"] == []
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())[workload]
    assert reference["run_seed"] == 0
    assert out["queries"] == reference["queries"][: len(out["queries"])]
