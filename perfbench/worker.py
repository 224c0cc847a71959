"""Worker process for the benchmark; each run of it starts with cold caches.

    worker.py setup <workload> <seed>        import the program, build inputs
    worker.py cli <spans> <op> <argv...>     one traced CLI invocation
    worker.py kfun <spec.json>               kfun-cold calls under a deadline
    worker.py warm                           repeated-call probes
    worker.py call <fn> <arg>...             one timed kfun call (report mode)

Modes other than ``cli`` print ``ready`` once the program is imported and
their inputs are built, then one JSON line with their result.
"""
from __future__ import annotations

import json
import signal
import statistics
import sys
import time

import corpus
import tracing


class DeadlineMiss(BaseException):
    """Raised by SIGALRM inside a kfun call that overran its deadline.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineMiss()


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def setup_mode(workload: str, seed: int) -> None:
    import coisocap.cli  # noqa: F401  (the whole program, as a CLI child imports it)

    if workload == "cli-mix":
        corpus.cli_corpus(seed)
    elif workload == "kfun-cold":
        corpus.kfun_draw(seed, 1)
    elif workload == "table-K":
        corpus.table_rounds(seed, 1)
    _ready()


def cli_mode(spans_path: str, op_id: int, argv: list[str]) -> None:
    tracer = tracing.install()
    import coisocap.cli as cli

    tracer.begin_op(op_id)
    code = 1
    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        summary = tracing.summarize(tracer)
        tracer.dump(spans_path)
        with open(spans_path + ".summary.json", "w") as fh:
            json.dump(summary, fh)
    sys.exit(code)


def timed_call(func, args, deadline_s: float):
    """(seconds, result) or (seconds, None) on a deadline miss."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = func(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMiss:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, result


def kfun_mode(spec: dict) -> None:
    """Calls ``keys`` in order: the first ``hard`` always, the rest until
    ``budget_s`` has passed since the first call (all of them if None)."""
    tracer = tracing.install() if spec.get("spans") else None
    from coisocap import kfun

    signal.signal(signal.SIGALRM, _on_alarm)
    keys, hard, budget = spec["keys"], spec["hard"], spec.get("budget_s")
    _ready()
    out = []
    t_begin = time.perf_counter()
    for i, (fn, n, d) in enumerate(keys):
        if i >= hard and budget is not None and time.perf_counter() - t_begin >= budget:
            break
        if tracer is not None:
            tracer.begin_op(i)
        seconds, r = timed_call(getattr(kfun, fn), (n, d), spec["deadline_s"])
        if r is None:
            out.append([fn, n, d, seconds, "miss", None, None])
        else:
            witness = None if r.witness is None else r.witness.key()
            out.append([fn, n, d, seconds, "ok", r.value.value, witness])
    result = {"calls": out}
    if tracer is not None:
        result["summary"] = tracing.summarize(tracer)
        tracer.dump(spec["spans"])
    print(json.dumps(result))


def warm_mode() -> None:
    """Per-call time of an immediately repeated call: validation plus
    witness construction, with the search result already cached."""
    from coisocap import kfun

    _ready()
    out = {}
    for fn, n, d in (("kk", 20, 30), ("keq", 110, 188)):
        func = getattr(kfun, fn)
        func(n, d)
        batches = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(200):
                func(n, d)
            batches.append((time.perf_counter() - t0) / 200 * 1e6)
        out[fn] = statistics.median(batches)
    print(json.dumps(out))


def call_mode(fn: str, args: list[int]) -> None:
    from coisocap import kfun

    func = getattr(kfun, fn)
    _ready()
    t0 = time.perf_counter()
    func(*args)
    print(json.dumps({"seconds": time.perf_counter() - t0}))


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup_mode(rest[0], int(rest[1]))
    elif mode == "cli":
        cli_mode(rest[0], int(rest[1]), rest[2:])
    elif mode == "kfun":
        with open(rest[0]) as fh:
            kfun_mode(json.load(fh))
    elif mode == "warm":
        warm_mode()
    elif mode == "call":
        call_mode(rest[0], [int(a) for a in rest[1:]])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
