"""Byte-for-byte replay of the CLI golden corpus in ``golden/cli.json``,
and a digest replay of the benchmark's CLI pool in
``perfbench/golden/cli-pool.json``.

Each entry is an argv list with the stdout, stderr and exit code that
``coisocap.cli.run`` produced for it.  ``verify`` reports carry a wall
time, which is masked on both sides.  argparse wraps usage and help text
to the terminal width, so every entry runs with ``COLUMNS=80``.

Re-capture the expected outputs (after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from coisocap.cli import run

CORPUS = Path(__file__).parent / "golden" / "cli.json"
POOL = Path(__file__).parents[1] / "perfbench" / "golden" / "cli-pool.json"
COLUMNS = "80"


def _mask(argv, text):
    if argv[:1] != ["verify"]:
        return text
    text = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    return re.sub(r", \d+ ms\)$", ", 0 ms)", text, flags=re.M)


def replay(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, _mask(argv, out.getvalue()), _mask(argv, err.getvalue())


def _load():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", _load(), ids=lambda e: " ".join(e["argv"]))
def test_golden(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert replay(entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])


def test_benchmark_pool_replays_its_digests(monkeypatch):
    """Every entry of the benchmark's CLI pool exits as captured, with the
    captured stdout digest and no traceback; a refused entry prints only an
    error on stderr."""
    monkeypatch.setenv("COLUMNS", COLUMNS)
    mismatches = []
    for entry in json.loads(POOL.read_text())["entries"]:
        code, out, err = replay(entry["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (entry["exit"], entry["sha256"]) or "Traceback" in err or (
                code != 0 and (out or not err)):
            mismatches.append((entry["argv"], code, out[:80], err[:80]))
    assert mismatches == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    entries = []
    for entry in _load():
        code, out, err = replay(entry["argv"])
        entries.append({"argv": entry["argv"], "exit": code, "stdout": out, "stderr": err})
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
