"""Replay of the ``keq``/``kk`` fixture in ``golden/kernel.jsonl``.

Each line holds one minimizer ``fn`` at one ``n`` and the results for the
consecutive d values starting at ``d0``: ``null`` for infinity, else the
value and the witness key.  The grid covers every n <= 60 with
0 <= d <= 2n+1; ten further lines hold the slow instances of the seed
baseline (``perfbench/BASELINE.md``).  The fixture was captured from the
branch-and-bound kernel that the square-mass kernel replaced, so a pass
means both kernels agree on value and tie-break.

Re-capture the fixture (after a deliberate change of values or witnesses)
with

    PYTHONPATH=src python tests/test_kernel_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from coisocap import keq, kk

FIXTURE = Path(__file__).parent / "golden" / "kernel.jsonl"
GRID_NMAX = 60
HARD = (("keq", 110, 188), ("kk", 190, 374), ("keq", 180, 312), ("keq", 87, 150),
        ("keq", 123, 223), ("keq", 176, 345), ("keq", 163, 303), ("keq", 170, 317),
        ("keq", 187, 342), ("keq", 191, 302))
FNS = {"keq": keq, "kk": kk}


def result(fn, n, d):
    """[value, witness key] of one call, or None for infinity."""
    found = FNS[fn](n, d)
    if found.witness is None:
        return None
    return [found.value.value, [list(pair) for pair in found.witness.key()]]


def _lines():
    return [json.loads(line) for line in FIXTURE.read_text().splitlines()]


@pytest.mark.parametrize("line", _lines(), ids=lambda e: f"{e['fn']}-{e['n']}-{e['d0']}")
def test_kernel_fixture(line):
    fn, n, d0 = line["fn"], line["n"], line["d0"]
    got = [result(fn, n, d0 + i) for i in range(len(line["results"]))]
    assert got == line["results"]


if __name__ == "__main__":
    lines = []
    for fn in FNS:
        for n in range(1, GRID_NMAX + 1):
            rows = [result(fn, n, d) for d in range(2 * n + 2)]
            lines.append({"fn": fn, "n": n, "d0": 0, "results": rows})
    for fn, n, d in HARD:
        lines.append({"fn": fn, "n": n, "d0": d, "results": [result(fn, n, d)]})
    FIXTURE.write_text("".join(json.dumps(line, separators=(",", ":")) + "\n"
                               for line in lines))
    print(f"wrote {len(lines)} lines to {FIXTURE}", file=sys.stderr)
