"""Self-tests of the harness:  python3 perfbench/run.py --self-test

They check the benchmark, not coisocap: seeded inputs are reproducible,
a corrupted output or a wrong exit code counts as a failed operation, a
deadline miss counts as failed and is never dropped, and every metric name
is well formed and matches BENCHMARK.json.
"""
from __future__ import annotations

import json
import math
import re

import checks
import corpus
from harness import ROOT, cli_cmd, run_child
from workloads import (END_TO_END, PER_LAYER, Outcome, _call_latencies_ms, load_golden,
                       run_kfun_worker)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_seeded_inputs() -> None:
    assert corpus.cli_corpus(7) == corpus.cli_corpus(7)
    assert corpus.cli_corpus(7) != corpus.cli_corpus(8)
    assert corpus.kfun_draw(7, 50) == corpus.kfun_draw(7, 50)
    assert corpus.kfun_draw(7, 50) != corpus.kfun_draw(8, 50)
    assert corpus.table_rounds(7, 6) == corpus.table_rounds(7, 6)
    assert corpus.table_rounds(7, 6) != corpus.table_rounds(8, 6)
    hard = {(fn, n, d) for fn, n, d, _ in corpus.HARD_SET}
    assert not hard & set(corpus.kfun_draw(7, 2000)), "a draw repeats a hard-set key"


def test_bad_output_counts_as_failed() -> None:
    golden = load_golden()
    entry = next(e for e in golden["cli-pool"]["entries"]
                 if e["argv"][:2] == ["kfun", "keq"] and "--format" not in e["argv"]
                 and e["exit"] == 0 and b"witness" in run_child(cli_cmd(e["argv"])).stdout)
    res = run_child(cli_cmd(entry["argv"]))
    good = checks.check_cli(entry, res.returncode, res.stdout, res.stderr, entry)
    assert good == [], good
    # one changed digit in the witness: caught by the digest and, without
    # the digest, by the witness re-check
    corrupt = re.sub(rb"\((\d+),(\d+)\)\]", lambda m: b"(" + m.group(1) + b","
                     + str(int(m.group(2)) + 1).encode() + b")]", res.stdout)
    assert corrupt != res.stdout
    wrong_exit = dict(entry, exit=1)
    outcome = Outcome()
    outcome.record(checks.check_cli(entry, res.returncode, corrupt, res.stderr, entry))
    outcome.record(checks.check_cli(entry, res.returncode, corrupt, res.stderr, None))
    outcome.record(checks.check_cli(wrong_exit, res.returncode, res.stdout, res.stderr, None))
    outcome.record(checks.check_cli(entry, res.returncode, b"", res.stderr, None))
    assert (outcome.attempted, outcome.failed) == (4, 4), outcome.incorrect
    assert not outcome.correct


def test_deadline_miss_is_failed_not_dropped() -> None:
    spec = {"keys": [["keq", 110, 188], ["kk", 5, 7]], "hard": 2, "budget_s": None,
            "deadline_s": 0.05, "spans": None}
    outcome = Outcome()
    calls, _, _ = run_kfun_worker(spec, outcome)
    assert len(calls) == 2, calls
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.misses == ["keq(110,188)"]
    assert outcome.correct
    latencies = _call_latencies_ms(calls)
    assert math.isinf(max(latencies)) and len(latencies) == 2


def test_metric_names() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for name, *_ in END_TO_END + PER_LAYER:
        assert NAME_RE.fullmatch(name), name
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME_RE.fullmatch(n) for n in names)


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    print(f"{'FAILED' if failed else 'passed'}: {failed} of the self-tests failed")
    return 1 if failed else 0
