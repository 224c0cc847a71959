"""Byte-for-byte replay of the CLI golden corpora in ``golden/cli.json``
and ``golden/cli-render.json``, and digest replays of the benchmark's CLI
pool in ``perfbench/golden/cli-pool.json`` and of its K tables in
``perfbench/golden/table-K.json``.

Each entry is an argv list with the stdout, stderr and exit code that
``coisocap.cli.run`` produced for it.  ``verify`` reports carry a wall
time, which is masked on both sides.  argparse wraps usage and help text
to the terminal width, so every entry runs with ``COLUMNS=80``.

``golden/cli-render.json`` pins renderings no other golden holds byte for
byte: a failing ``verify`` report in every format, whose ``verify``
entries run with a ``kk`` that claims cost 1 everywhere, an infinite
action and an empty provenance in CSV, and a witness line in text.

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
from unittest import mock

import pytest

from coisocap import kfun
from coisocap.cli import run
from test_cli import _broken_kk

CORPUS = Path(__file__).parent / "golden" / "cli.json"
RENDER = Path(__file__).parent / "golden" / "cli-render.json"
POOL = Path(__file__).parents[1] / "perfbench" / "golden" / "cli-pool.json"
TABLE_K = Path(__file__).parents[1] / "perfbench" / "golden" / "table-K.json"
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


def replay_render(argv):
    """``replay`` with ``kk`` broken for a ``verify`` entry."""
    with mock.patch.object(kfun, "kk", _broken_kk if argv[:1] == ["verify"] else kfun.kk):
        return replay(argv)


def _load(path=CORPUS):
    return json.loads(path.read_text())


@pytest.mark.parametrize("entry", _load(), ids=lambda e: " ".join(e["argv"]))
def test_golden(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert replay(entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize("entry", _load(RENDER), ids=lambda e: " ".join(e["argv"]))
def test_render_golden(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert replay_render(entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_k_table_replays_its_digest(fmt):
    """``table K 1 1500`` in each format: every row with a witness."""
    want = _load(TABLE_K)["formats"][fmt]
    code, out, err = replay(want["argv"])
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest(), err) == (
        want["exit"], want["bytes"], want["sha256"], "")


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
    for path, play in ((CORPUS, replay), (RENDER, replay_render)):
        entries = []
        for argv in [e["argv"] for e in _load(path)]:
            code, out, err = play(argv)
            entries.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
        path.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
        print(f"wrote {len(entries)} entries to {path}", file=sys.stderr)
