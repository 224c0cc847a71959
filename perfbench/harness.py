"""Process plumbing shared by the benchmark: the checkout layout, the pinned
child environment, child processes with per-child peak RSS, and statistics.

Every program the benchmark starts goes through ``run_child``, so each
child is waited for, killed on timeout, and measured the same way.
"""
from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN_DIR = BENCH_DIR / "golden"
PYTHON = sys.executable

# The CLI children inherit nothing from the caller's environment except PATH:
# both commits of a comparison then run with the same interpreter flags.
# Bytecode writing is off, so every import compiles from source, as it does
# for a user whose package directory is read-only.
PINNED_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}

CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child that hangs)."""


def require_checkout() -> None:
    if not (SRC / "coisocap" / "cli.py").is_file():
        raise BenchError(f"no coisocap sources under {SRC}; run from a full checkout")


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    ready_s: float | None
    rss_mb: float
    timed_out: bool


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S,
              wait_ready: bool = False) -> ChildResult:
    """Run ``cmd`` under the pinned environment from the checkout root.

    ``wall_s`` runs from just before the spawn until the child is reaped.
    With ``wait_ready`` the child's first stdout line must be ``ready``;
    ``ready_s`` is the time from spawn until that line arrived and the line
    is not part of ``stdout``.  Peak RSS comes from ``wait4`` on this child
    alone.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=PINNED_ENV, cwd=ROOT)
    fired = threading.Event()

    def kill() -> None:
        fired.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    reaped = False
    try:
        ready_s = None
        first = b""
        if wait_ready:
            first = proc.stdout.readline()
            if first.strip() == b"ready":
                ready_s = time.perf_counter() - t0
                first = b""
        out = first + proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err[0] if err else b"", wall, ready_s,
                       usage.ru_maxrss / 1024.0, fired.is_set())


def worker_cmd(mode: str, *args: str) -> list[str]:
    return [PYTHON, str(BENCH_DIR / "worker.py"), mode, *args]


def cli_cmd(argv: list[str]) -> list[str]:
    return [PYTHON, "-m", "coisocap.cli", *argv]


def environment() -> dict:
    """The pinned environment as recorded with every result."""
    probe = run_child([PYTHON, "-c",
                       "import sys; print(sys.version.split()[0], sys.flags.dont_write_bytecode)"])
    version, flag = probe.stdout.decode().split()
    return {
        "python": version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": PINNED_ENV["PYTHONDONTWRITEBYTECODE"],
        "sys.flags.dont_write_bytecode": int(flag),
        "PYTHONPATH": os.path.relpath(PINNED_ENV["PYTHONPATH"], ROOT),
        "PYTHONHASHSEED": PINNED_ENV["PYTHONHASHSEED"],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); ``inf`` entries sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
