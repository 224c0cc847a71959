"""Seeded inputs for every workload.

Nothing here imports coisocap: the program only ever receives the
generated argv lists and keys.  The same seed always gives the same inputs.
"""
from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

# The CLI corpus of a run is a seeded draw from one fixed pool, so the
# stdout of every invocation in every run can be compared byte for byte with
# the digests captured at the seed commit (golden/cli-pool.json).
POOL_SEED = 20110105
POOL_SIZE = 480
CORPUS_SIZE = 120

_AREAS = ("pi", "pi/2", "3pi/2", "2", "3/2", "1/3", "2pi/3", "5/4")
_LABELS = ("T2", "S2", "M", "K3")
_FORMATS = (None, "text", "json", "csv")


def _atom(rng: random.Random) -> str:
    kind = rng.choice("SVC")
    area = rng.choice(_AREAS)
    if kind == "S":
        return f"S({rng.randint(1, 4)};{area})"
    if kind == "V":
        k = rng.randint(1, 3)
        return f"V({k},{rng.randint(k, 4)};{area})"
    label, half_dim = rng.choice(_LABELS), rng.randint(1, 3)
    if rng.random() < 0.4:
        return f"C({label},{half_dim};0;asph)"
    return f"C({label},{half_dim};{area})"


def _product(rng: random.Random) -> str:
    return " x ".join(_atom(rng) for _ in range(rng.randint(1, 3)))


def _rational_d(rng: random.Random, lo: int, hi: int) -> str:
    if rng.random() < 0.6:
        return str(rng.randint(lo, hi))
    den = rng.randint(2, 5)
    return f"{rng.randint(lo * den, hi * den)}/{den}"


def _with_format(rng: random.Random, argv: list[str]) -> list[str]:
    fmt = rng.choice(_FORMATS)
    return argv if fmt is None else argv + ["--format", fmt]


def _valid_entry(rng: random.Random) -> list[str]:
    kind = rng.choices(
        ("K", "keq", "kk", "table", "spectrum", "energy", "capacity", "squeeze", "width"),
        weights=(12, 15, 15, 12, 13, 11, 7, 6, 3),
    )[0]
    if kind == "K":
        return _with_format(rng, ["kfun", "K", str(rng.randint(1, 300))])
    if kind == "keq":
        n = rng.randint(1, 30)
        return _with_format(rng, ["kfun", "keq", str(n), str(rng.randint(max(0, n - 3), 2 * n + 2))])
    if kind == "kk":
        n = rng.randint(1, 30)
        return _with_format(rng, ["kfun", "kk", str(n), _rational_d(rng, max(0, n - 3), 2 * n + 2)])
    if kind == "table":
        fn = rng.choice(("K", "K", "keq", "kk"))
        if fn == "K":
            start = rng.randint(1, 150)
            return _with_format(rng, ["table", "K", str(start), str(start + rng.randint(0, 9))])
        stop = rng.randint(1, 12)
        d = str(rng.randint(1, 24)) if fn == "keq" else _rational_d(rng, 1, 24)
        return _with_format(rng, ["table", fn, "1", str(stop), "--d", d])
    if kind == "spectrum":
        return _with_format(rng, ["spectrum", _product(rng)])
    if kind == "energy":
        return _with_format(rng, ["bound", "energy", _product(rng)])
    if kind == "capacity":
        n = rng.randint(1, 30)
        return _with_format(rng, ["bound", "capacity", str(n), str(rng.randint(n, 2 * n - 1))])
    if kind == "squeeze":
        n = rng.randint(2, 30)
        return _with_format(rng, ["bound", "squeeze", str(n), _rational_d(rng, n, 2 * n + 1)])
    argv = ["bound", "width", rng.choice(_AREAS)]
    if rng.random() < 0.5:
        argv.append("--closed-factor")
    return _with_format(rng, argv)


def _invalid_entry(rng: random.Random) -> tuple[list[str], int]:
    """An input the CLI must refuse, with its documented exit code
    (1 domain error, 2 parse error)."""
    n = rng.randint(3, 30)
    templates = (
        (["kfun", "keq", str(n)], 2),                         # missing d
        (["kfun", "K", "0"], 2),                              # n < 1 at argv level
        (["kfun", "keq", str(n), "x"], 2),                    # d not an integer
        (["kfun", "kk", str(n), "1/0"], 2),                   # d not a rational
        (["kfun", "K", str(n), "3"], 2),                      # K takes no d
        (["table", "K", str(n + 5), str(n)], 2),              # start > stop
        (["table", "keq", "1", str(n)], 2),                   # missing --d
        (["spectrum", "S(2;pi) y S(1;pi)"], 2),               # bad separator
        (["spectrum", f"Q({n};pi)"], 2),                      # unknown factor
        (["spectrum", "S(0;pi)"], 2),                         # sphere needs m >= 1
        (["bound", "energy", "V(3,2;pi)"], 2),                # frame needs k <= n
        (["bound", "squeeze", str(n), "x"], 2),               # d not a rational
        (["bound", "capacity", str(n), str(n - 1)], 1),       # d below the window
        (["bound", "capacity", str(n), str(2 * n)], 1),       # d above the window
        (["bound", "squeeze", "1", "3"], 1),                  # n < 2
        (["bound", "width", "0"], 1),                         # area must be positive
        (["kfun", "keq", str(n), "-3"], 1),                   # d < 0
    )
    argv, code = rng.choice(templates)
    return argv, code


def cli_pool() -> list[dict]:
    """The fixed pool: about 90% valid queries, 10% inputs that must fail."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        if rng.random() < 0.12:
            argv, code = _invalid_entry(rng)
        else:
            argv, code = _valid_entry(rng), 0
        pool.append({"argv": argv, "exit": code})
    return pool


def _kind(entry: dict) -> str:
    argv = entry["argv"]
    if entry["exit"]:
        return "refused"
    return argv[0] if argv[0] == "spectrum" else f"{argv[0]} {argv[1]}"


def cli_corpus(seed: int, pool: list[dict] | None = None) -> list[dict]:
    """CORPUS_SIZE distinct pool entries in a seeded order.

    The draw is stratified by kind (subcommand, or refused input) in the
    pool's proportions, so every seed runs the same mix and only the
    instances differ: the latency percentiles then compare across seeds."""
    pool = cli_pool() if pool is None else pool
    rng = random.Random(f"cli-mix:{seed}")
    by_kind: dict[str, list[int]] = {}
    for i, entry in enumerate(pool):
        by_kind.setdefault(_kind(entry), []).append(i)
    # largest-remainder quotas, so they add up to CORPUS_SIZE
    exact = {k: CORPUS_SIZE * len(v) / len(pool) for k, v in by_kind.items()}
    quota = {k: int(x) for k, x in exact.items()}
    short = CORPUS_SIZE - sum(quota.values())
    for k in sorted(exact, key=lambda k: (quota[k] - exact[k], k))[:short]:
        quota[k] += 1
    chosen = []
    for kind in sorted(by_kind):
        chosen += rng.sample(by_kind[kind], quota[kind])
    rng.shuffle(chosen)
    return [pool[i] for i in chosen]


# ---------------------------------------------------------------------------
# table-K
# ---------------------------------------------------------------------------

TABLE_N = 1500
TABLE_FORMATS = ("text", "json", "csv")


def table_argv(fmt: str) -> list[str]:
    return ["table", "K", "1", str(TABLE_N), "--format", fmt]


def table_rounds(seed: int, rounds: int) -> list[list[str]]:
    """Each round runs every format once, in a seeded order."""
    rng = random.Random(f"table-K:{seed}")
    return [rng.sample(TABLE_FORMATS, len(TABLE_FORMATS)) for _ in range(rounds)]


# ---------------------------------------------------------------------------
# verify-sweep
# ---------------------------------------------------------------------------

VERIFY_NMAX = 15
VERIFY_CELLS = 231264
VERIFY_SUITES = ("kfun-props", "oracle", "bounds-props")


def verify_argv(suite: str = "all") -> list[str]:
    return ["verify", suite, "--nmax", str(VERIFY_NMAX), "--format", "json"]


# ---------------------------------------------------------------------------
# kfun-cold
# ---------------------------------------------------------------------------

KFUN_NMAX = 200
# Per-call deadline.  At the seed commit the hard set splits into calls that
# take 0.4-0.75 s and calls that take 1.7 s or more; 1.1 s keeps a factor 1.5
# to both sides.  Host speed alone moved keq(87,150) across it once (a
# shared 2-core host ran up to twice as fast within one hour), and drawn
# keys can land anywhere, so the miss count is not exact across runs.
DEADLINE_S = 1.1

# (fn, n, d, seconds at the seed commit on a 2-core x86-64 box, CPython 3.11)
HARD_SET = (
    ("keq", 110, 188, 0.62),
    ("kk", 190, 374, 0.44),
    ("keq", 180, 312, 3.70),
    ("keq", 87, 150, 1.69),
    ("keq", 123, 223, 2.15),
    ("keq", 176, 345, 2.28),
    ("keq", 163, 303, 10.3),
    ("keq", 170, 317, 12.4),
    ("keq", 187, 342, 11.8),
    ("keq", 191, 302, 18.0),
)


def kfun_window() -> list[tuple[str, int, int]]:
    """Every key on the feasibility windows for n <= KFUN_NMAX: keq is finite
    exactly on n <= d <= 2n - 1, kk on d >= n (and constant 1 from 2n - 1)."""
    keys = [("keq", n, d) for n in range(1, KFUN_NMAX + 1) for d in range(n, 2 * n)]
    keys += [("kk", n, d) for n in range(1, KFUN_NMAX + 1) for d in range(n, 2 * n + 1)]
    return keys


def kfun_draw(seed: int, count: int) -> list[tuple[str, int, int]]:
    """A draw without replacement that never repeats a hard-set key."""
    hard = {(fn, n, d) for fn, n, d, _ in HARD_SET}
    keys = [k for k in kfun_window() if k not in hard]
    return random.Random(f"kfun-cold:{seed}").sample(keys, count)
