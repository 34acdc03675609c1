"""Regenerate reference.json: the query digests of each workload's run seed 0.

Usage (from the repository root): python3 perfbench/make_reference.py

run.py reports engine.queries_matching, the number of leading iterations
whose query equals these digests, so a change that moves floats shows where
its decisions start to differ.  Regenerate only when a change of query
decisions is intended, and say so where the change is described.
"""

from __future__ import annotations

import json

from run import REFERENCE_FILE, REFERENCE_SEED, Runner
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(name, None)
        result = runner.spawn(REFERENCE_SEED)
        if result is None or result["problems"]:
            raise SystemExit(f"{name}: {runner.errors or result['problems']}")
        reference[name] = {
            "run_seed": REFERENCE_SEED,
            "iterations": workload.iterations,
            "queries": result["queries"],
        }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
