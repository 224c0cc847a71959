"""The four workloads and the metrics computed from them.

All workloads are single-client closed loops: the next operation starts
when the previous one has finished and been checked.  Operations run in
fresh processes (CLI children, or a worker for kfun-cold), so the
program's caches start cold exactly as they do for a user's process.

An untraced run reports the end-to-end metrics.  A traced run repeats a
fixed amount of the same work once untraced and once with spans around the
public functions, and reports the per-layer metrics and the tracing
overhead.
"""
from __future__ import annotations

import json
import math
import shutil
import time

import checks
import corpus
from harness import (GOLDEN_DIR, PYTHON, RESULTS_DIR, BenchError, cli_cmd, median,
                     percentile, run_child, worker_cmd)
from tracing import LAYERS

WORKLOADS = ("cli-mix", "kfun-cold", "verify-sweep", "table-K")

# name, unit, better, bound (share of the parent's median).
#
# On a shared 2-core x86-64 host (CPython 3.11), the speed of every process
# drifted by up to 2x within an hour, and by 20% within minutes.  So timed
# operations alternate with control runs, bare interpreter starts (see
# controls), and timings are reported host-normalized: scaled by
# REF_CONTROL_S over the controls next to each operation, as if measured on
# a host whose interpreter starts in 50 ms.  Raw timings are printed next to
# them.  Throughput is left out: it is the inverse of mean latency and was
# the least steady.  Peak RSS does not drift.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("norm.latency.p50_ms", "ms", "lower", 0.25),
    ("norm.latency.p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

PER_LAYER = (
    ("startup.interp_ms", "ms", "lower"),
    ("import.total_ms", "ms", "lower"),
    ("import.kfun_ms", "ms", "lower"),
    ("import.spectra_ms", "ms", "lower"),
    ("import.bounds_ms", "ms", "lower"),
    ("import.verify_ms", "ms", "lower"),
    ("import.expr_ms", "ms", "lower"),
    ("import.cli_ms", "ms", "lower"),
    ("import.stdlib_ms", "ms", "lower"),
    ("cli.build_parser_us", "us", "lower"),
    ("cli.self_us", "us", "lower"),
    ("cli.bytes_out", "count", "lower"),
    ("expr.parse_product_us", "us", "lower"),
    ("spectra.call_us", "us", "lower"),
    ("bounds.self_us", "us", "lower"),
    ("kfun.keq_cold_ms.p50", "ms", "lower"),
    ("kfun.keq_cold_ms.p95", "ms", "lower"),
    ("kfun.kk_cold_ms.p50", "ms", "lower"),
    ("kfun.kk_cold_ms.p95", "ms", "lower"),
    ("kfun.timeouts", "count", "lower"),
    ("kfun.warm_call_us.kk", "us", "lower"),
    ("kfun.warm_call_us.keq", "us", "lower"),
    ("kfun.calls", "count", "lower"),
    ("kfun.distinct_keys", "count", "lower"),
    ("kfun.repeat_ratio", "share", "lower"),
    ("kfun.time_share", "share", "lower"),
    ("kfun.big_k_table.calls", "count", "lower"),
    ("kfun.big_k_table.misses", "count", "lower"),
    ("kfun.big_k_table_ms", "ms", "lower"),
    ("kfun.big_k_us.p50", "us", "lower"),
    ("verify.kfun-props_s", "s", "lower"),
    ("verify.oracle_s", "s", "lower"),
    ("verify.bounds-props_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.cells", "count", "higher"),
    ("trace.overhead_share", "share", "lower"),
) + tuple((f"self_ms.{layer}", "ms", "lower") for layer in LAYERS)

SETUP_REPEATS = 15
CLI_TIMEOUT_S = 60.0
TRACE_KFUN_DRAWS = 150
REF_CONTROL_S = 0.05
CONTROL_REPEATS = 3  # controls per long operation (table-K, verify-sweep, kfun-cold)
MAX_PASSES = 64


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class Outcome:
    """Attempted and failed operations, with every failure named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.misses: list[str] = []

    def record(self, errors: list[str], miss: str | None = None) -> None:
        self.attempted += 1
        if miss is not None:
            self.failed += 1
            self.misses.append(miss)
        elif errors:
            self.failed += 1
            self.incorrect.extend(errors)

    @property
    def correct(self) -> bool:
        return not self.incorrect


def load_golden() -> dict:
    golden = {}
    for name in ("cli-pool", "table-K", "verify-all-15"):
        with open(GOLDEN_DIR / f"{name}.json") as fh:
            golden[name] = json.load(fh)
    by_argv = {"\0".join(e["argv"]): e for e in golden["cli-pool"]["entries"]}
    for fmt, entry in golden["table-K"]["formats"].items():
        by_argv["\0".join(corpus.table_argv(fmt))] = entry
    golden["cli-by-argv"] = by_argv
    return golden


def _check_child(res, what: str) -> None:
    if res.timed_out:
        raise BenchError(f"{what} did not finish within its timeout")


def controls(repeats: int) -> list[float]:
    """Host speed now: wall times of bare interpreter starts (``python -c
    pass`` under the pinned environment, the probe of startup.interp_ms).
    No change to the repository can move them."""
    return [run_child([PYTHON, "-c", "pass"]).wall_s for _ in range(repeats)]


def normalized(values: list[float], gaps: list[list[float]]) -> list[float]:
    """Scale each value by REF_CONTROL_S over the median of the controls
    run just before and just after it (``gaps[i]`` and ``gaps[i + 1]``)."""
    return [v * REF_CONTROL_S / median(gaps[i] + gaps[i + 1]) for i, v in enumerate(values)]


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time from spawning a worker until it has imported the program
    and built this workload's inputs: (host-normalized, raw)."""
    raw, gaps = [], []
    for _ in range(SETUP_REPEATS):
        gaps.append(controls(1))
        res = run_child(worker_cmd("setup", workload, str(seed)), wait_ready=True)
        if res.returncode != 0 or res.ready_s is None:
            raise BenchError(f"setup worker failed: {res.stderr.decode()[-500:]}")
        raw.append(res.ready_s)
    gaps.append(controls(1))
    return median(normalized(raw, gaps)), median(raw)


# ---------------------------------------------------------------------------
# Fixed units of work, shared by untraced and traced runs
# ---------------------------------------------------------------------------

def _cli_entries(workload: str, seed: int, golden: dict, passes: int = 1) -> list[list[dict]]:
    """The operations of the first ``passes`` passes; each operation is a
    CLI invocation with its expected exit code."""
    if workload == "cli-mix":
        pool = [{"argv": e["argv"], "exit": e["exit"]} for e in golden["cli-pool"]["entries"]]
        return [corpus.cli_corpus(seed, pool)] * passes
    if workload == "table-K":
        return [[{"argv": corpus.table_argv(fmt), "exit": 0} for fmt in rnd]
                for rnd in corpus.table_rounds(seed, passes)]
    return [[{"argv": corpus.verify_argv(), "exit": 0}]] * passes


def _verify_errors(res, golden: dict) -> tuple[list[str], int]:
    if res.returncode != 0:
        return [f"verify exit {res.returncode}"], 0
    try:
        errors, cells = checks.check_verify_report(res.stdout, golden["verify-all-15"]["checks"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify report unparsable: {exc}"], 0
    if cells != corpus.VERIFY_CELLS:
        errors.append(f"verify swept {cells} cells, expected {corpus.VERIFY_CELLS}")
    return errors, cells


def _run_pass(workload: str, entries: list[dict], golden: dict, outcome: Outcome,
              spans_dir=None, first_op: int = 0) -> list[tuple]:
    """Run and check entries once; returns (child result, cells swept) per
    entry.  With ``spans_dir`` each invocation runs traced."""
    results = []
    for i, entry in enumerate(entries, start=first_op):
        argv = entry["argv"]
        if spans_dir is None:
            res = run_child(cli_cmd(argv), timeout=CLI_TIMEOUT_S)
        else:
            res = run_child(worker_cmd("cli", str(spans_dir / f"{i}.spans"), str(i), *argv),
                            timeout=CLI_TIMEOUT_S)
        _check_child(res, " ".join(argv))
        cells = 0
        if workload == "verify-sweep":
            errors, cells = _verify_errors(res, golden)
        elif "\0".join(argv) not in golden["cli-by-argv"]:
            errors = [f"{' '.join(argv)}: no output captured at the seed commit"]
        else:
            errors = checks.check_cli(entry, res.returncode, res.stdout, res.stderr,
                                      golden["cli-by-argv"]["\0".join(argv)])
        outcome.record(errors)
        results.append((res, cells))
    return results


def _kfun_spec(seed: int, budget_s, draws: int, spans=None) -> dict:
    keys = [[fn, n, d] for fn, n, d, _ in corpus.HARD_SET]
    keys += [list(k) for k in corpus.kfun_draw(seed, draws)]
    return {"keys": keys, "hard": len(corpus.HARD_SET), "budget_s": budget_s,
            "deadline_s": corpus.DEADLINE_S, "spans": spans}


def run_kfun_worker(spec: dict, outcome: Outcome) -> tuple[list, object, dict]:
    """Run kfun-cold calls in one fresh worker and check every result."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    spec_path = RESULTS_DIR / "kfun-spec.json"
    spec_path.write_text(json.dumps(spec))
    res = run_child(worker_cmd("kfun", str(spec_path)), wait_ready=True)
    _check_child(res, "kfun worker")
    if res.returncode != 0 or res.ready_s is None:
        raise BenchError(f"kfun worker failed: {res.stderr.decode()[-800:]}")
    payload = json.loads(res.stdout.decode().splitlines()[-1])
    for fn, n, d, _, status, value, witness in payload["calls"]:
        label = f"{fn}({n},{d})"
        if status == "miss":
            outcome.record([], miss=label)
        else:
            pairs = None if witness is None else tuple(map(tuple, witness))
            err = checks.recheck(fn, n, d, value, pairs)
            outcome.record([err] if err else [])
    return payload["calls"], res, payload.get("summary")


def _call_latencies_ms(calls: list) -> list[float]:
    """Per-call latency; a deadline miss exceeds any limit."""
    return [math.inf if status == "miss" else s * 1e3 for _, _, _, s, status, _, _ in calls]


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def _finite(value: float) -> float:
    # A percentile that lands on a deadline miss is reported as the deadline,
    # a lower bound on the real latency; the miss itself counts as failed.
    return corpus.DEADLINE_S * 1e3 if math.isinf(value) else value


def run_untraced(workload: str, seed: int, seconds: float, golden: dict) -> dict:
    setup, setup_raw = setup_seconds(workload, seed)
    outcome = Outcome()
    named: dict[str, float] = {}
    if workload == "kfun-cold":
        gaps = [controls(CONTROL_REPEATS)]
        calls, res, _ = run_kfun_worker(_kfun_spec(seed, seconds, 4000), outcome)
        gaps.append(controls(CONTROL_REPEATS))
        lat = _call_latencies_ms(calls)
        norm = [normalized([v], gaps)[0] for v in lat]
        rss = res.rss_mb
        items = len(calls)
        busy_s = sum(c[3] for c in calls)
        named["kfun.p50_ms"] = _finite(percentile(lat, 50))
        named["kfun.p95_ms"] = _finite(percentile(lat, 95))
    else:
        results, gaps = [], []
        repeats = 1 if workload == "cli-mix" else CONTROL_REPEATS
        start = time.perf_counter()
        for done, todo in enumerate(_cli_entries(workload, seed, golden, MAX_PASSES)):
            if done and time.perf_counter() - start >= seconds:
                break
            # After the first pass cli-mix stops as soon as the time is up;
            # table-K and verify-sweep finish the pass, so that every format
            # is timed equally often.
            for entry in todo:
                if done and workload == "cli-mix" and time.perf_counter() - start >= seconds:
                    break
                gaps.append(controls(repeats))
                results += _run_pass(workload, [entry], golden, outcome)
        gaps.append(controls(repeats))
        lat = [r.wall_s * 1e3 for r, _ in results]
        norm = normalized(lat, gaps)
        rss = max(r.rss_mb for r, _ in results)
        busy_s = sum(r.wall_s for r, _ in results)
        if workload == "cli-mix":
            items = len(results)
            named["cli.p50_ms"] = percentile(lat, 50)
            named["cli.p90_ms"] = percentile(lat, 90)
        elif workload == "table-K":
            items = corpus.TABLE_N * len(results)
            named["table.rows_per_s"] = items / busy_s
        else:
            items = sum(cells for _, cells in results)
            named["verify.wall_s"] = median([r.wall_s for r, _ in results])
    metrics = {
        "setup_s": setup,
        "norm.latency.p50_ms": _finite(percentile(norm, 50)),
        "norm.latency.p90_ms": _finite(percentile(norm, 90)),
        "peak_rss_mb": rss,
    }
    named.update({"raw.setup_s": setup_raw, "raw.latency.p50_ms": _finite(percentile(lat, 50)),
                  "raw.latency.p90_ms": _finite(percentile(lat, 90)),
                  "throughput.items_per_s": items / busy_s, "peak_rss_mb": rss,
                  "failed_share": outcome.failed / max(outcome.attempted, 1)})
    return {"outcome": outcome, "metrics": metrics, "named": named, "samples": len(lat)}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _interp_ms(repeats: int = 7) -> float:
    return median([run_child([PYTHON, "-c", "pass"]).wall_s * 1e3 for _ in range(repeats)])


def _importtime(code: str) -> list[tuple[str, int]]:
    res = run_child([PYTHON, "-X", "importtime", "-c", code])
    rows = []
    for line in res.stderr.decode().splitlines():
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            rows.append((name.strip(), int(self_us)))
    return rows


def import_metrics(repeats: int = 5) -> dict[str, float]:
    """Self import time per layer, from ``-X importtime``, of everything
    ``import coisocap.cli`` loads beyond interpreter start-up."""
    startup = {name for name, _ in _importtime("pass")}
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        rows = [(n, us) for n, us in _importtime("import coisocap.cli") if n not in startup]
        own = {n: us for n, us in rows}
        sample = {"import.total_ms": sum(own.values()) / 1e3,
                  "import.stdlib_ms": sum(us for n, us in rows
                                          if not n.startswith("coisocap")) / 1e3}
        for layer in ("kfun", "spectra", "bounds", "verify", "expr", "cli"):
            sample[f"import.{layer}_ms"] = own.get(f"coisocap.{layer}", 0) / 1e3
        for k, v in sample.items():
            samples.setdefault(k, []).append(v)
    return {k: median(v) for k, v in samples.items()}


def warm_metrics() -> dict[str, float]:
    res = run_child(worker_cmd("warm"), wait_ready=True)
    if res.returncode != 0:
        raise BenchError(f"warm probe failed: {res.stderr.decode()[-500:]}")
    out = json.loads(res.stdout.decode().splitlines()[-1])
    return {"kfun.warm_call_us.kk": out["kk"], "kfun.warm_call_us.keq": out["keq"]}


def _merge(summaries: list[dict]) -> dict:
    merged = {"layer_self_ns": {}, "counts": {}, "total_ns": {}, "series_us": {},
              "kfun_calls": 0, "kfun_distinct": 0, "kfun_top_ns": 0, "big_k_table_misses": 0}
    for s in summaries:
        for field in ("layer_self_ns", "counts", "total_ns"):
            for k, v in s[field].items():
                merged[field][k] = merged[field].get(k, 0) + v
        for k, v in s["series_us"].items():
            merged["series_us"].setdefault(k, []).extend(v)
        for field in ("kfun_calls", "kfun_distinct", "kfun_top_ns", "big_k_table_misses"):
            merged[field] += s[field]
    return merged


def _read_summary(spans: str) -> dict:
    with open(spans + ".summary.json") as fh:
        return json.load(fh)


def run_traced(workload: str, seed: int, golden: dict) -> dict:
    spans_dir = RESULTS_DIR / "spans" / workload
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    metrics = {"startup.interp_ms": _interp_ms()}
    metrics.update(import_metrics())
    metrics.update(warm_metrics())
    outcome = Outcome()
    verify = {"verify.kfun-props_s": 0.0, "verify.oracle_s": 0.0,
              "verify.bounds-props_s": 0.0, "verify.self_s": 0.0, "verify.cells": 0}
    bytes_out = 0
    timeouts = 0
    if workload == "kfun-cold":
        plain, _, _ = run_kfun_worker(_kfun_spec(seed, None, TRACE_KFUN_DRAWS), Outcome())
        calls, _, summary = run_kfun_worker(
            _kfun_spec(seed, None, TRACE_KFUN_DRAWS, str(spans_dir / "0.spans")), outcome)
        wall_plain = sum(c[3] for c in plain)
        wall_traced = sum(c[3] for c in calls)
        timeouts = sum(1 for c in calls if c[4] == "miss")
    else:
        # Each operation runs untraced and then traced, so that host drift
        # reaches both sides of trace.overhead_share alike.
        plain, traced = [], []
        for i, entry in enumerate(_cli_entries(workload, seed, golden)[0]):
            plain += _run_pass(workload, [entry], golden, Outcome())
            traced += _run_pass(workload, [entry], golden, outcome, spans_dir, i)
        summaries = [_read_summary(str(spans_dir / f"{i}.spans")) for i in range(len(traced))]
        if workload == "verify-sweep":
            verify["verify.cells"] = traced[0][1]
            verify["verify.self_s"] = summaries[0]["layer_self_ns"].get("verify", 0) / 1e9
            for j, suite in enumerate(corpus.VERIFY_SUITES, start=len(traced)):
                spans = str(spans_dir / f"{j}.spans")
                res = run_child(worker_cmd("cli", spans, str(j), *corpus.verify_argv(suite)))
                _check_child(res, f"verify {suite}")
                outcome.record([] if res.returncode == 0 else [f"verify {suite} exit "
                                                               f"{res.returncode}"])
                verify[f"verify.{suite}_s"] = (
                    _read_summary(spans)["total_ns"].get("verify.run_suite", 0) / 1e9)
        summary = _merge(summaries)
        wall_plain = sum(r.wall_s for r, _ in plain)
        wall_traced = sum(r.wall_s for r, _ in traced)
        bytes_out = sum(len(r.stdout) for r, _ in traced)

    series = summary["series_us"]

    def med(name: str) -> float:
        return median(series.get(name, []))

    def pct_ms(name: str, q: float) -> float:
        values = series.get(name, [])
        return percentile(values, q) / 1e3 if values else 0.0

    calls_n = summary["kfun_calls"]
    distinct = summary["kfun_distinct"]
    metrics.update({
        "cli.build_parser_us": med("cli.build_parser"),
        "cli.self_us": med("cli.self"),
        "cli.bytes_out": bytes_out,
        "expr.parse_product_us": med("expr.parse_product"),
        "spectra.call_us": med("spectra.call"),
        "bounds.self_us": med("bounds.self"),
        "kfun.keq_cold_ms.p50": pct_ms("kfun.keq_cold", 50),
        "kfun.keq_cold_ms.p95": pct_ms("kfun.keq_cold", 95),
        "kfun.kk_cold_ms.p50": pct_ms("kfun.kk_cold", 50),
        "kfun.kk_cold_ms.p95": pct_ms("kfun.kk_cold", 95),
        "kfun.timeouts": timeouts,
        "kfun.calls": calls_n,
        "kfun.distinct_keys": distinct,
        "kfun.repeat_ratio": 1 - distinct / calls_n if calls_n else 0.0,
        "kfun.time_share": summary["kfun_top_ns"] / 1e9 / wall_traced,
        "kfun.big_k_table.calls": summary["counts"].get("kfun.big_k_table", 0),
        "kfun.big_k_table.misses": summary["big_k_table_misses"],
        "kfun.big_k_table_ms": summary["total_ns"].get("kfun.big_k_table", 0) / 1e6,
        "kfun.big_k_us.p50": med("kfun.big_k"),
        "trace.overhead_share": wall_traced / wall_plain - 1,
    })
    metrics.update(verify)
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = summary["layer_self_ns"].get(layer, 0) / 1e6
    return {"outcome": outcome, "metrics": metrics, "named": {},
            "samples": outcome.attempted}
