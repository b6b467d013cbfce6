"""Golden CLI outputs: stdout, stderr and exit code of 22 bundled runs.

`giwa examples ex1 ex2 sl2 --json`, and `invariants`, `kida` and `checks`
with `--json` on each of the 7 bundled specs, run in-process and compared
byte for byte with the files in tests/golden/. A change that means to move
an output regenerates them with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of tests/golden/ shows what moved.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from giwa.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SPECS = sorted(p.name for p in (ROOT / "specs").glob("*.json"))

RUNS = [("examples", ["examples", "ex1", "ex2", "sl2", "--json"])] + [
    (f"{cmd}-{spec[:-len('.json')]}", [cmd, str(ROOT / "specs" / spec), "--json"])
    for cmd in ("invariants", "kida", "checks") for spec in SPECS]


def run(argv):
    """Exit code, stdout and stderr of `giwa <argv>`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # Spec paths in error messages are printed relative to the repo root.
    return {"exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().replace(str(ROOT) + os.sep, "")}


def test_run_list():
    assert len(SPECS) == 7 and len(RUNS) == 22


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_cli_output_is_golden(name, argv, monkeypatch):
    monkeypatch.delenv("GIWA_VERTEX_CAP", raising=False)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert run(argv) == expected


if __name__ == "__main__":
    os.environ.pop("GIWA_VERTEX_CAP", None)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in RUNS:
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(run(argv), indent=2, sort_keys=True) + "\n")
    sys.exit(0)
