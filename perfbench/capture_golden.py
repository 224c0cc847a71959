"""Capture the expected outputs the benchmark compares against.

    python3 perfbench/capture_golden.py

Runs every cli-mix pool entry, the three table-K invocations and
``verify all --nmax 15`` under the pinned environment, requires each to
pass the benchmark's independent checks, and writes their stdout digests
(and the verify report without ``wall_time_ms``) to ``perfbench/golden/``.
Run it only on a commit whose outputs are known to be right: the files are
the reference that later commits must reproduce byte for byte.
"""
from __future__ import annotations

import json
import sys

import checks
import corpus
from harness import GOLDEN_DIR, cli_cmd, require_checkout, run_child


def _capture(entry: dict) -> dict:
    res = run_child(cli_cmd(entry["argv"]))
    errors = checks.check_cli(entry, res.returncode, res.stdout, res.stderr, None)
    if errors:
        raise SystemExit("refusing to capture a failing output:\n" + "\n".join(errors))
    return {"argv": entry["argv"], "exit": entry["exit"],
            "sha256": checks.digest(res.stdout), "bytes": len(res.stdout)}


def _write(name: str, payload: dict) -> None:
    with open(GOLDEN_DIR / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main() -> None:
    require_checkout()
    GOLDEN_DIR.mkdir(exist_ok=True)
    pool = [_capture(e) for e in corpus.cli_pool()]
    _write("cli-pool", {"pool_seed": corpus.POOL_SEED, "entries": pool})
    formats = {fmt: _capture({"argv": corpus.table_argv(fmt), "exit": 0})
               for fmt in corpus.TABLE_FORMATS}
    _write("table-K", {"n": corpus.TABLE_N, "formats": formats})
    res = run_child(cli_cmd(corpus.verify_argv()))
    if res.returncode != 0:
        raise SystemExit(f"verify exited {res.returncode}")
    report = json.loads(res.stdout)
    _write("verify-all-15", {"nmax": corpus.VERIFY_NMAX, "checks": report["checks"]})
    print(f"captured {len(pool)} pool entries, {len(formats)} table formats, "
          f"{len(report['checks'])} verify checks", file=sys.stderr)


if __name__ == "__main__":
    main()
