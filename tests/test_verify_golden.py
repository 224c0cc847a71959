"""Replay of ``verify`` reports: the ``all`` reports in
``golden/verify-all-25.json``, ``golden/verify-all-26.json`` (the largest
default ``all`` run the budget admits) and
``perfbench/golden/verify-all-15.json``, and one report of each suite at a
shape other than the default ``--dmax`` in
``golden/verify-<suite>-<nmax>-<dmax>.json``.

Each golden holds the ``checks`` of one ``verify ... --format json`` run:
name, range text, pass and fail counts and the first failure of every
check.  The wall time is not part of it.  A pass means the sweep still
visits the same cells with the same outcomes.  The shapes cover a dmax
below the default 2 * nmax (``kfun-props``, where ``verify._kk_reach``
is 2 * dmax), dmax 0 (``bounds-props``, with no squeeze rows) and a dmax
above the default (``oracle``, and ``all`` at nmax 8 and dmax 40, whose
lanes of d' are long and whose squeeze rows reach d = 40).

Re-capture the goldens under ``golden/`` (after a deliberate change of the
report) with

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
CAPTURED = {nmax: ROOT / "golden" / f"verify-all-{nmax}.json" for nmax in (25, 26)}
GOLDENS = {15: ROOT.parent / "perfbench" / "golden" / "verify-all-15.json", **CAPTURED}
SHAPES = {(suite, nmax, dmax): ROOT / "golden" / f"verify-{suite}-{nmax}-{dmax}.json"
          for suite, nmax, dmax in (("kfun-props", 60, 7), ("bounds-props", 40, 0),
                                    ("oracle", 12, 30), ("all", 8, 40))}


def checks(suite, nmax, *dmax):
    """The ``checks`` of ``verify suite --nmax nmax [--dmax dmax] --format json``."""
    argv = ["verify", suite, "--nmax", str(nmax)]
    argv += [f"--dmax={d}" for d in dmax] + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0
    return json.loads(out.getvalue())["checks"]


@pytest.mark.parametrize("nmax", sorted(GOLDENS))
def test_verify_all_replays_its_golden(nmax):
    golden = json.loads(GOLDENS[nmax].read_text())
    assert golden["nmax"] == nmax
    assert checks("all", nmax) == golden["checks"]


@pytest.mark.parametrize("shape", sorted(SHAPES), ids=lambda shape: "-".join(map(str, shape)))
def test_verify_shape_replays_its_golden(shape):
    golden = json.loads(SHAPES[shape].read_text())
    assert golden["shape"] == list(shape)
    assert checks(*shape) == golden["checks"]


if __name__ == "__main__":
    for nmax, path in CAPTURED.items():
        path.write_text(json.dumps({"nmax": nmax, "checks": checks("all", nmax)}, indent=1)
                        + "\n")
    for shape, path in SHAPES.items():
        path.write_text(json.dumps({"shape": list(shape), "checks": checks(*shape)}, indent=1)
                        + "\n")
    print(f"wrote {len(CAPTURED)} all reports and {len(SHAPES)} shapes", file=sys.stderr)
