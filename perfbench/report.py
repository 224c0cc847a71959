"""Baseline report:  python3 perfbench/run.py --report --label <name>

Measures the rows of the ROADMAP "Baseline" table, each in a fresh process
under the pinned environment, and stores them as one column of
perfbench/baseline.json under ``label``; a label measured again replaces
its column.  perfbench/BASELINE.md is regenerated from that file, one
column per label, so each change can append its own column next to the
seed commit's.  This mode is not part of the repeated benchmark runs.
"""
from __future__ import annotations

import json
import platform
import statistics

import corpus
from harness import BENCH_DIR, PYTHON, BenchError, cli_cmd, environment, run_child, worker_cmd
from workloads import Outcome, run_kfun_worker

# Far above the slowest hard-set call at the seed commit (18 s), so every
# row gets a time; a call that still misses it is shown as "> 120 s".
REPORT_DEADLINE_S = 120.0
CLI_QUERY = ["kfun", "keq", "30", "45"]
CLI_REPEATS = 20

JSON_PATH = BENCH_DIR / "baseline.json"
MD_PATH = BENCH_DIR / "BASELINE.md"


def _call_s(fn: str, *args: int) -> float:
    res = run_child(worker_cmd("call", fn, *map(str, args)), wait_ready=True)
    if res.returncode != 0:
        raise BenchError(f"{fn}{args} failed: {res.stderr.decode()[-500:]}")
    return json.loads(res.stdout.decode().splitlines()[-1])["seconds"]


def measure() -> list[tuple[str, str]]:
    # A bare interpreter start, the benchmark's host-speed control: compare
    # columns only when this row agrees.
    interp = [run_child([PYTHON, "-c", "pass"]).wall_s * 1e3 for _ in range(CLI_REPEATS)]
    rows = [(f"interpreter start `python -c pass`, median of {CLI_REPEATS}",
             f"{statistics.median(interp):.0f} ms")]
    cli = [run_child(cli_cmd(CLI_QUERY)).wall_s * 1e3 for _ in range(CLI_REPEATS)]
    rows.append((f"CLI `coisocap {' '.join(CLI_QUERY)}`, median of {CLI_REPEATS}",
                 f"{statistics.median(cli):.0f} ms"))
    for n in (10**4, 10**5):
        rows.append((f"`big_k_table({n})`", f"{_call_s('big_k_table', n):.3g} s"))
    rows.append(("`big_k(100000)`", f"{_call_s('big_k', 10**5):.3g} s"))
    for fn, n, d, _ in corpus.HARD_SET:
        spec = {"keys": [[fn, n, d]], "hard": 1, "budget_s": None,
                "deadline_s": REPORT_DEADLINE_S, "spans": None}
        calls, _, _ = run_kfun_worker(spec, Outcome())
        _, _, _, seconds, status, _, _ = calls[0]
        cell = f"> {REPORT_DEADLINE_S:.0f} s" if status == "miss" else f"{seconds:.3g} s"
        rows.append((f"`{fn}({n},{d})`", cell))
    for nmax in (10, 15, 20, 25):
        res = run_child(cli_cmd(["verify", "all", "--nmax", str(nmax)]))
        if res.returncode != 0:
            raise BenchError(f"verify all --nmax {nmax} exited {res.returncode}")
        rows.append((f"`verify all --nmax {nmax}`", f"{res.wall_s:.3g} s"))
    return rows


def render(columns: list[dict]) -> str:
    lines = [
        "# Baseline",
        "",
        "Regenerate a column with `python3 perfbench/run.py --report --label <name>`.",
        "Each cell is one wall-clock measurement in a fresh process (the first two rows are",
        "medians), under the pinned child environment of the benchmark.",
        "",
    ]
    for col in columns:
        env = col["environment"]
        lines.append(f"- **{col['label']}**: {env['machine']}, nproc {env['nproc']}, "
                     f"{env['implementation']} {env['python']}, PYTHONDONTWRITEBYTECODE="
                     f"{env['PYTHONDONTWRITEBYTECODE']}")
    lines += ["", "| row | " + " | ".join(c["label"] for c in columns) + " |",
              "|---" * (len(columns) + 1) + "|"]
    row_names = list(dict.fromkeys(r for c in columns for r in c["rows"]))
    for row in row_names:
        cells = [c["rows"].get(row, "") for c in columns]
        lines.append(f"| {row} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(label: str) -> None:
    columns = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else []
    env = dict(environment(), machine=platform.machine())
    column = {"label": label, "environment": env, "rows": dict(measure())}
    columns = [c for c in columns if c["label"] != label] + [column]
    JSON_PATH.write_text(json.dumps(columns, indent=1) + "\n")
    MD_PATH.write_text(render(columns))
    print(MD_PATH.read_text())
