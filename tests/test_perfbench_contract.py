"""The benchmark's view of the package: each workload of BENCHMARK.json runs
through perfbench/child.py, traced, for a few iterations, and its queries
start like the pinned ones of perfbench/reference.json; untraced, at the
reference's full length, its queries are all the pinned ones.

perfbench calls RunConfig.from_dict, resolve, run_resolved,
cli.benchmark_run_config and the RunResult and SolveResult fields, and its
tracer patches functions of engine, gp, maxsum and decomposition by name;
an MCMC chain must score its states through decomposition.log_evidence
and gp.log_marginal_likelihood.
A rename or a removal there fails here, in seconds, instead of in the
benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _reference(workload):
    return json.loads((ROOT / "perfbench" / "reference.json").read_text())[workload]


def _child(workload, *args, env=None):
    """Run perfbench/child.py on run seed 0; its result, checked clean."""
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload]
    argv += ["--seed", "0", "--spawned-at", "0", *args]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["problems"] == []
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_runs_clean(workload):
    out = _child(workload, "--iterations", "3", "--trace")
    reference = _reference(workload)
    assert reference["run_seed"] == 0
    assert out["queries"] == reference["queries"][: len(out["queries"])]
    if workload == "h6_mcmc":
        # the tracer times the chain's evidence by the names log_evidence and
        # log_marginal_likelihood: each of the 3 iterations runs a 16-step
        # chain that scores 16 + 1 states
        assert out["metrics"]["decomposition.log_evidence_calls"] == 3 * (16 + 1)
        assert out["metrics"]["gp.evidence_calls"] == 3 * (16 + 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_workload_matches_every_pinned_query(workload):
    # the benchmark's environment (perfbench/run.py): one BLAS thread, since
    # the float results depend on the thread count, and a fixed hash seed
    reference = _reference(workload)
    assert reference["run_seed"] == 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = _child(workload, "--iterations", str(reference["iterations"]), env=env)
    assert out["queries"] == reference["queries"]
