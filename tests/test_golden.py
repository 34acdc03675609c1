"""Golden traces: every fixture config reproduces its committed run byte for byte.

The fixtures under tests/golden cover every algorithm, the static, random
and mcmc decomposition modes, all three beta schedules, a prior-sample
objective, and non-default maxsum and gp settings.  Regenerate them with
tests/golden/make_golden.py only when query decisions are meant to change.
"""

import json
from pathlib import Path

import pytest

from fgbo.cli import main
from fgbo.engine import RunConfig, resolve, run_resolved, write_trace_csv

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.parent.name for p in GOLDEN_DIR.glob("*/config.json"))


def test_fixtures_present():
    assert len(CASES) >= 6
    for case in CASES:
        for name in ("manifest.json", "trace.csv"):
            assert (GOLDEN_DIR / case / name).is_file(), f"{case}/{name}"


@pytest.mark.parametrize("case", CASES)
def test_cli_run_matches_golden(case, tmp_path):
    golden = GOLDEN_DIR / case
    out = tmp_path / "out"
    assert main(["run", "--config", str(golden / "config.json"), "--out", str(out), "--quiet"]) == 0
    for name in ("manifest.json", "trace.csv"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("case", CASES)
def test_python_api_matches_cli_golden(case, tmp_path):
    # config.json leaves most nested keys out (e.g. beta is just mode and
    # fixed_value), so RunConfig must fill the same defaults as the CLI
    golden = GOLDEN_DIR / case
    config = RunConfig(**json.loads((golden / "config.json").read_text()))
    path = tmp_path / "trace.csv"
    write_trace_csv(run_resolved(resolve(config)), path)
    assert path.read_bytes() == (golden / "trace.csv").read_bytes()
