"""Replay of the ``verify all`` reports in ``golden/verify-all-25.json`` and
``perfbench/golden/verify-all-15.json``.

Each golden holds the ``checks`` of ``verify all --nmax N --format json``:
name, range text, pass and fail counts and the first failure of every
check.  The wall time is not part of it.  A pass means the sweep still
visits the same cells with the same outcomes.

Re-capture the nmax-25 golden (after a deliberate change of the report) with

    PYTHONPATH=src python tests/test_verify_golden.py
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from coisocap.cli import run

ROOT = Path(__file__).parent
GOLDEN_25 = ROOT / "golden" / "verify-all-25.json"
GOLDENS = {15: ROOT.parent / "perfbench" / "golden" / "verify-all-15.json", 25: GOLDEN_25}


def checks(nmax):
    """The ``checks`` of ``verify all --nmax nmax --format json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["verify", "all", "--nmax", str(nmax), "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())["checks"]


@pytest.mark.parametrize("nmax", sorted(GOLDENS))
def test_verify_all_replays_its_golden(nmax):
    golden = json.loads(GOLDENS[nmax].read_text())
    assert golden["nmax"] == nmax
    assert checks(nmax) == golden["checks"]


if __name__ == "__main__":
    GOLDEN_25.write_text(json.dumps({"nmax": 25, "checks": checks(25)}, indent=1) + "\n")
    print(f"wrote {GOLDEN_25}", file=sys.stderr)
