"""Regenerate the golden fixtures: manifest.json and trace.csv of every config.

Usage (from the repository root): PYTHONPATH=src python3 tests/golden/make_golden.py

Each directory beside this file holds one config.json.  This script runs it
through the CLI (``fgbo run --config <dir>/config.json --out <tmp>``) and
copies the run's manifest.json and trace.csv next to it, where
tests/test_golden.py asserts them byte for byte.  Regenerate only when a
change of query decisions or of the manifest is intended, and say so where
the change is described.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from fgbo.cli import main as cli_main

GOLDEN_DIR = Path(__file__).resolve().parent
OUTPUTS = ("manifest.json", "trace.csv")


def golden_cases() -> list[Path]:
    """The fixture directories, in name order."""
    return sorted(p.parent for p in GOLDEN_DIR.glob("*/config.json"))


def run_cli(case: Path, out_dir: Path) -> None:
    code = cli_main(["run", "--config", str(case / "config.json"), "--out", str(out_dir), "--quiet"])
    if code != 0:
        raise SystemExit(f"{case.name}: fgbo run exited {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for case in golden_cases():
            out_dir = Path(tmp) / case.name
            run_cli(case, out_dir)
            for name in OUTPUTS:
                shutil.copyfile(out_dir / name, case / name)
            print(f"{case.name}: wrote {', '.join(OUTPUTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
