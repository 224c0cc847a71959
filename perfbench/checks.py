"""Output checks written independently of coisocap.

Every CLI result is checked for its exit code, for a clean stderr, for the
stdout digest captured at the seed commit, and, where it carries values,
by re-deriving them: each finite witness is re-checked from its raw pairs
(weight, dim, cost == value) and every value with n <= 12 is compared with
an exhaustive enumeration done here.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

EXHAUSTIVE_NMAX = 12
EXHAUSTIVE_WEIGHT = 2 * EXHAUSTIVE_NMAX

_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")
_LINE_RE = re.compile(r"^(K|keq|kk)\((\d+)(?:,([^)]*))?\) = (inf|\d+)(?:, witness (\[.*\]))?$")

Pairs = tuple[tuple[int, int], ...]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Exhaustive enumeration (n <= 12)
# ---------------------------------------------------------------------------

def _multisets(max_weight: int):
    """Every nonempty multiset of pairs (k, m), 1 <= k <= m, with total
    weight sum(k*m) <= max_weight, as a tuple in canonical order
    (descending k, then descending m)."""
    def extend(prefix, budget, top):
        for k in range(1, budget + 1):
            for m in range(k, budget // k + 1):
                if (k, m) > top:
                    break
                cand = prefix + ((k, m),)
                yield cand
                yield from extend(cand, budget - k * m, (k, m))

    yield from extend((), max_weight, (max_weight, max_weight))


@lru_cache(maxsize=1)
def _best_by_weight_dim() -> dict:
    """(weight, dim) -> smallest (cost, key) over all multisets, plus the
    same restricted to square pairs (k, k)."""
    best, square = {}, {}
    for key in _multisets(EXHAUSTIVE_WEIGHT):
        weight = sum(k * m for k, m in key)
        dim = sum(k * (2 * m - k) for k, m in key)
        cand = (sum(k for k, _ in key), key)
        if cand < best.get((weight, dim), (math.inf,)):
            best[weight, dim] = cand
        if all(k == m for k, m in key) and cand < square.get(weight, (math.inf,)):
            square[weight] = cand
    return {"any": best, "square": square}


def exhaustive(fn: str, n: int, d) -> tuple[int, Pairs] | None | str:
    """The optimum (cost, smallest key) by enumeration, ``None`` for an
    infeasible instance, or ``"n/a"`` outside the enumerated range."""
    if n > EXHAUSTIVE_NMAX:
        return "n/a"
    tables = _best_by_weight_dim()
    if fn == "K":
        return tables["square"].get(n)
    dcap = math.floor(d)
    if fn == "keq":
        return tables["any"].get((n, dcap))
    if dcap > EXHAUSTIVE_WEIGHT:
        return "n/a"
    # kk: weight >= n and dim <= floor(d); weight <= dim, so every feasible
    # multiset has weight <= floor(d) <= EXHAUSTIVE_WEIGHT.
    cands = [v for (w, dim), v in tables["any"].items() if w >= n and dim <= dcap]
    return min(cands) if cands else None


# ---------------------------------------------------------------------------
# Witness re-check
# ---------------------------------------------------------------------------

def recheck(fn: str, n: int, d, value: int | None, pairs: Pairs | None) -> str | None:
    """Re-derive one minimizer result; returns an error message or None."""
    label = f"{fn}({n}{'' if d is None else f',{d}'})"
    if fn == "keq" and not n <= d <= 2 * n - 1 and value is not None:
        return f"{label}: finite outside the window n <= d <= 2n-1"
    if value is None:
        if pairs is not None:
            return f"{label}: inf with a witness"
        if fn == "K" or (fn == "kk" and math.floor(d) >= n) or (fn == "keq" and n <= d <= 2 * n - 1):
            return f"{label}: inf on the feasibility window"
    else:
        if not pairs:
            return f"{label}: finite value without a witness"
        if any(not 1 <= k <= m for k, m in pairs):
            return f"{label}: witness pair with k < 1 or k > m"
        if list(pairs) != sorted(pairs, key=lambda p: (-p[0], -p[1])):
            return f"{label}: witness not in canonical order"
        weight = sum(k * m for k, m in pairs)
        dim = sum(k * (2 * m - k) for k, m in pairs)
        cost = sum(k for k, _ in pairs)
        if cost != value:
            return f"{label}: witness cost {cost} != value {value}"
        if fn == "K" and (any(k != m for k, m in pairs) or sum(k * k for k, _ in pairs) != n):
            return f"{label}: witness is not a square decomposition of {n}"
        if fn == "keq" and (weight, dim) != (n, d):
            return f"{label}: witness weight/dim {weight}/{dim}"
        if fn == "kk" and (weight < n or dim > math.floor(d)):
            return f"{label}: witness weight/dim {weight}/{dim}"
    expect = exhaustive(fn, n, d)
    if expect == "n/a":
        return None
    got = None if value is None else (value, tuple(pairs))
    if got != expect:
        return f"{label}: {got} but exhaustive enumeration gives {expect}"
    return None


def _pairs(text: str) -> Pairs | None:
    if not text:
        return None
    return tuple((int(k), int(m)) for k, m in _PAIR_RE.findall(text))


def _value(raw) -> int | None:
    return None if raw in ("inf", None) else int(raw)


# ---------------------------------------------------------------------------
# Per-command parsers
# ---------------------------------------------------------------------------

def _fmt(argv: list[str]) -> str | None:
    return argv[argv.index("--format") + 1] if "--format" in argv else None


def _positionals(argv: list[str]) -> list[str]:
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok in ("--format", "--d", "--nmax", "--dmax"):
            skip = True
        elif not tok.startswith("--"):
            out.append(tok)
    return out


def _parse_d(fn: str, text: str | None):
    if fn == "K" or text is None:
        return None
    return int(text) if fn == "keq" else Fraction(text)


def _rows_from_text(stdout: str) -> list[tuple[str, int, int | None, Pairs | None]]:
    rows = []
    for line in stdout.splitlines():
        m = _LINE_RE.match(line)
        if not m:
            raise ValueError(f"unparsable line {line!r}")
        rows.append((m.group(1), int(m.group(2)), _value(m.group(4)), _pairs(m.group(5))))
    return rows


def check_minimizer_output(argv: list[str], stdout: str) -> list[str]:
    """``kfun`` and ``table`` results in any format."""
    pos = _positionals(argv)
    fn = pos[1]
    fmt = _fmt(argv) or "text"
    if pos[0] == "kfun":
        ns = [int(pos[2])]
        d = _parse_d(fn, pos[3] if len(pos) > 3 else None)
    else:
        ns = list(range(int(pos[2]), int(pos[3]) + 1))
        d = _parse_d(fn, argv[argv.index("--d") + 1] if "--d" in argv else None)
    if fmt == "text":
        rows = [(n, v, p) for _, n, v, p in _rows_from_text(stdout)]
    elif fmt == "json":
        payload = json.loads(stdout)
        entries = payload["rows"] if pos[0] == "table" else [dict(payload, n=ns[0])]
        rows = [(e["n"], _value(e["value"]), None if e["witness"] is None
                 else tuple((k, m) for k, m in e["witness"])) for e in entries]
    else:
        table = list(csv.reader(io.StringIO(stdout)))
        body = table[1:]
        rows = [(int(r[0]), _value(r[-2]), _pairs(r[-1])) for r in body]
    if [n for n, _, _ in rows] != ns:
        return [f"rows for n={[n for n, _, _ in rows][:5]}... expected {ns[:5]}..."]
    errors = [recheck(fn, n, d, v, p) for n, v, p in rows]
    return [e for e in errors if e]


def _pi_text(text: str) -> Fraction | None:
    """Inverse of format_pi for interval endpoints ("inf" -> None)."""
    if text == "inf":
        return None
    if text == "0":
        return Fraction(0)
    head, _, den = text.partition("/")
    num = head[:-2] or "1"
    return Fraction(int(num), int(den or 1))


def check_bound_output(argv: list[str], stdout: str) -> list[str]:
    """``bound`` intervals: ordered endpoints, and for capacity/squeeze a
    witness that re-checks and a lower endpoint equal to pi / its cost."""
    pos = _positionals(argv)
    kind = pos[1]
    fmt = _fmt(argv) or "json"
    if fmt == "json":
        payload = json.loads(stdout)
        ends = [None if e == "inf" else Fraction(e["num"], e["den"])
                for e in (payload["interval"]["lower"], payload["interval"]["upper"])]
        pairs = None if payload["witness"] is None else tuple(map(tuple, payload["witness"]))
    elif fmt == "text":
        lines = stdout.splitlines()
        m = re.match(r"^.*: \[(\S+), (\S+)\]$", lines[0])
        ends = [_pi_text(m.group(1)), _pi_text(m.group(2))]
        wit = [ln for ln in lines if ln.startswith("  witness: ")]
        pairs = _pairs(wit[0][len("  witness: "):]) if wit else None
    else:
        row = list(csv.reader(io.StringIO(stdout)))[1]
        ends = [_pi_text(row[1]), _pi_text(row[2])]
        pairs = _pairs(row[5])
    lo, hi = ends
    if (lo is None and hi is not None) or (None not in (lo, hi) and lo > hi):
        return [f"{' '.join(pos)}: interval [{lo}, {hi}] is not ordered"]
    if kind not in ("capacity", "squeeze"):
        return []
    n = int(pos[2])
    fn, d = ("keq", int(pos[3])) if kind == "capacity" else ("kk", Fraction(pos[3]))
    if not pairs:
        return [f"{' '.join(pos)}: no witness"]
    cost = sum(k for k, _ in pairs)
    errors = [recheck(fn, n, d, cost, pairs)]
    if lo != Fraction(1, cost):
        errors.append(f"{' '.join(pos)}: lower {lo} != pi/{cost}")
    return [e for e in errors if e]


def check_spectrum_output(argv: list[str], stdout: str) -> list[str]:
    fmt = _fmt(argv) or "text"
    if fmt == "json":
        value = json.loads(stdout)["value"]
        ok = set(value) == {"product_spectrum", "minimal_action", "split_min_action"}
    elif fmt == "text":
        heads = [ln.split(":")[0] for ln in stdout.splitlines()[:4]]
        ok = heads == ["object", "product spectrum", "minimal action", "split minimal action"]
    else:
        ok = stdout.startswith("object,product_spectrum,minimal_action,split_min_action\n")
    return [] if ok else [f"spectrum output has the wrong shape: {stdout[:80]!r}"]


def check_cli(entry: dict, returncode: int, stdout: bytes, stderr: bytes,
              golden: dict | None) -> list[str]:
    """All checks for one CLI invocation; an empty list means it passed."""
    argv = entry["argv"]
    name = " ".join(argv)
    if returncode != entry["exit"]:
        return [f"{name}: exit {returncode}, expected {entry['exit']}"]
    if b"Traceback" in stderr:
        return [f"{name}: traceback on stderr"]
    if golden is not None and digest(stdout) != golden["sha256"]:
        return [f"{name}: stdout differs from the seed commit"]
    if returncode != 0:
        if stdout or not stderr:
            return [f"{name}: refused input must print only an error on stderr"]
        return []
    try:
        text = stdout.decode()
        if argv[0] in ("kfun", "table"):
            return check_minimizer_output(argv, text)
        if argv[0] == "bound":
            return check_bound_output(argv, text)
        if argv[0] == "spectrum":
            return check_spectrum_output(argv, text)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"{name}: unparsable output ({type(exc).__name__}: {exc})"]
    return []


def check_verify_report(stdout: bytes, golden_checks: list) -> tuple[list[str], int]:
    """The JSON report must equal the seed commit's except ``wall_time_ms``;
    returns the errors and the number of cells swept."""
    payload = json.loads(stdout)
    cells = sum(c["pass_count"] + c["fail_count"] for c in payload["checks"])
    errors = []
    if payload["checks"] != golden_checks:
        errors.append("verify report differs from the seed commit")
    if not isinstance(payload.get("wall_time_ms"), int):
        errors.append("verify report has no integer wall_time_ms")
    return errors, cells
