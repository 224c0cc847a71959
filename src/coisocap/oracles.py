"""Cross-checks of ``kfun``, independent of its search: the code that only
``verify`` and the tests run.

* ``keq_naive``/``kk_naive``: exhaustive-enumeration oracles for ``keq``
  and ``kk``, capped at small inputs: one unpruned walk over every pair
  tuple of dimension <= 2 * ORACLE_CAP, made on first use, keeps the least
  (cost, key) at each (weight, dim), and each oracle call is a lookup in
  that table or, for ``kk_naive``, in its running minimum over weight >= n
  and dim <= floor(d), built once.  ``square_cost_naive`` is the
  exhaustive oracle of ``big_k``.
* ``four_square`` and ``sqrt_bound_witness``: constructive decompositions.
* ``lt_sqrt_plus``, ``root_bound_holds`` and the witness audits: exact
  bound comparisons, and rechecks of a witness from raw pair data.

No ``kfun``, ``table``, ``spectrum`` or ``bound`` call imports this module.
Every name defined here is also a name of ``kfun``, which imports this
module on the first lookup of one.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import ORACLE_CAP, CapExceededError, OutOfRangeError, require_int, require_n
from .kfun import (Decomposition, Pair, WitnessedValue, _ceil_div, _ceil_sqrt, _query_cap,
                   _witnessed)


# ---------------------------------------------------------------------------
# Naive enumeration oracles
# ---------------------------------------------------------------------------

def _oracle_cap(n, d, exact: bool) -> int:
    """``_query_cap`` within the naive oracles' caps: n <= ORACLE_CAP, and
    for ``kk_naive`` floor(d) <= 2 * ORACLE_CAP."""
    dcap = _query_cap(n, d, exact)
    if n > ORACLE_CAP:
        raise CapExceededError(f"naive oracle capped at n <= {ORACLE_CAP}, got n={n}")
    if not exact and dcap > 2 * ORACLE_CAP:
        raise CapExceededError(
            f"naive oracle capped at floor(d) <= {2 * ORACLE_CAP}, got floor(d)={dcap}"
        )
    return dcap


def square_cost_naive(n: int) -> int:
    """Exhaustive minimum of the part sum over square decompositions of n.

    Independent of the dynamic program: plain depth-first enumeration of
    descending parts under the part cap, abandoning a branch once its part
    sum reaches the best complete one (parts are positive, so it cannot
    improve on it).
    """
    require_n(n)
    best: list[int | None] = [None]

    def rec(m: int, cap: int, acc: int) -> None:
        if best[0] is not None and acc >= best[0]:
            return
        if m == 0:
            best[0] = acc
            return
        for k in range(min(cap, math.isqrt(m)), 0, -1):
            rec(m - k * k, k, acc + k)

    rec(n, math.isqrt(n), 0)
    assert best[0] is not None
    return best[0]


NaiveEntry = tuple[int, tuple[tuple[int, int], ...]]  # (cost, key)


@lru_cache(maxsize=1)
def _naive_table() -> dict[tuple[int, int], NaiveEntry]:
    """Least (cost, key) at each (weight, dim) over every canonical pair
    tuple of total dimension <= 2 * ORACLE_CAP, from one unpruned
    enumeration.  That holds every entry the oracles read: ``keq_naive``'s
    n <= ORACLE_CAP is finite only at dim <= 2n - 1, and ``kk_naive``
    reads dim <= floor(d) <= 2 * ORACLE_CAP."""
    table: dict[tuple[int, int], NaiveEntry] = {}
    max_dim = 2 * ORACLE_CAP

    def extend(prefix, k_hi, m_hi, weight, dim, cost) -> None:
        budget = max_dim - dim
        for k in range(1, min(k_hi, math.isqrt(budget)) + 1):
            top = (budget + k * k) // (2 * k)  # the pair's dim k*(2m - k) fits the budget
            if k == k_hi:
                top = min(top, m_hi)
            for m in range(k, top + 1):
                key = prefix + ((k, m),)
                at = (weight + k * m, dim + k * (2 * m - k))
                cand = (cost + k, key)
                held = table.get(at)
                if held is None or cand < held:
                    table[at] = cand
                if at[1] < max_dim:  # at the dimension cap the child's loop is empty
                    extend(key, k, m, *at, cost + k)

    extend((), max_dim, max_dim, 0, 0, 0)
    return table


def keq_naive(n: int, d: int) -> WitnessedValue:
    """Exhaustive-enumeration oracle for ``keq`` (small n only)."""
    return _witnessed(_naive_table().get((n, _oracle_cap(n, d, exact=True))))


@lru_cache(maxsize=1)
def _kk_naive_table() -> list[list[NaiveEntry | None]]:
    """best[n][D], the least entry of ``_naive_table`` with weight >= n and
    dim <= D, for n <= ORACLE_CAP and D <= 2 * ORACLE_CAP: best(n, D) =
    min(entry(n, D), best(n + 1, D), best(n, D - 1)), filled from the
    largest weight down.  A weight is at most its dim, so no entry lies
    above n = 2 * ORACLE_CAP."""
    table, top = _naive_table(), 2 * ORACLE_CAP
    rows: list[list[NaiveEntry | None]] = []
    above: list[NaiveEntry | None] = [None] * (top + 1)
    for n in range(top, 0, -1):
        row: list[NaiveEntry | None] = []
        for dim in range(top + 1):
            row.append(min((e for e in (table.get((n, dim)), above[dim], row[-1] if row else None)
                            if e is not None), default=None))
        if n <= ORACLE_CAP:
            rows.append(row)
        above = row
    return [[], *reversed(rows)]


def kk_naive(n: int, d: int | Fraction) -> WitnessedValue:
    """Exhaustive-enumeration oracle for ``kk`` (small n and d only).

    Feasible decompositions satisfy dim <= floor(d) <= 2 * ORACLE_CAP, so
    the enumeration over total dimension <= 2 * ORACLE_CAP is complete.
    """
    dcap = _oracle_cap(n, d, exact=False)
    return _witnessed(_kk_naive_table()[n][dcap])


# ---------------------------------------------------------------------------
# Constructive decompositions
# ---------------------------------------------------------------------------

def four_square(n: int) -> tuple[int, int, int, int]:
    """Some (a, b, c, d) with a >= b >= c >= d >= 0 and a^2+b^2+c^2+d^2 = n.

    First tuple found by brute force with descending a, b, c; deterministic.
    """
    require_int(n, "n")
    if n < 0:
        raise OutOfRangeError("n must be >= 0")
    for a in range(math.isqrt(n), -1, -1):
        r1 = n - a * a
        for b in range(min(a, math.isqrt(r1)), -1, -1):
            r2 = r1 - b * b
            for c in range(min(b, math.isqrt(r2)), -1, -1):
                r3 = r2 - c * c
                e = math.isqrt(r3)
                if e * e == r3 and e <= c:
                    return (a, b, c, e)
    raise AssertionError(f"no four-square representation found for {n}")


def sqrt_bound_witness(n: int, d: int) -> Decomposition:
    """Single-pair decomposition certifying the square-root cost bound.

    Requires n >= 9 and d in the window n <= d <= 2n with
    (d - n + 9)^2 >= 36n (all checks exact).  The returned pair
    (ceil(sqrt(2n - d)) + 2, ceil(n / k)) is feasible for the relaxed
    constraints at (n, d) and has cost below sqrt(2n - d) + 3.
    """
    require_int(n, "n")
    require_int(d, "d")
    if n < 9:
        raise OutOfRangeError("requires n >= 9")
    if d < n:
        raise OutOfRangeError("requires d >= n")
    if d > 2 * n:
        raise OutOfRangeError("requires d <= 2n")
    if (d - n + 9) ** 2 < 36 * n:
        raise OutOfRangeError("requires (d - n + 9)^2 >= 36n")
    k1 = _ceil_sqrt(2 * n - d) + 2
    n1 = _ceil_div(n, k1)
    return Decomposition.from_pairs([Pair(k1, n1)])


# ---------------------------------------------------------------------------
# Exact bound comparisons and witness audits
# ---------------------------------------------------------------------------

def lt_sqrt_plus(c: int, r: int, shift: int) -> bool:
    """Exact test of  c < sqrt(r) + shift  for integers c, shift and r >= 0."""
    t = c - shift
    if t < 0:
        return True
    return t * t < r


def root_bound_holds(n: int, c: int) -> bool:
    """Exact test of  c < sqrt(n) + 2^(3/2) * n^(1/4)  for n >= 1, c >= 0.

    If c^2 <= n the inequality is immediate.  Otherwise both sides of
    c - sqrt(n) < 2*sqrt(2)*n^(1/4) are positive and squaring twice gives
    the integer comparison (c^2 + n)^2 < (2c + 8)^2 * n.
    """
    if c * c <= n:
        return True
    lhs = c * c + n
    rhs = 2 * c + 8
    return lhs * lhs < rhs * rhs * n


def is_valid_exact_witness(dec: Decomposition, n: int, d: int) -> bool:
    """Recheck a ``keq`` witness from raw pair data.

    At d = n it rechecks a ``big_k(n)`` witness: dim - weight is the sum of
    k * (n - k) over the pairs, so weight = dim = n forces every pair to be
    (k, k) with the k^2 summing to n.
    """
    return all(p.n >= p.k >= 1 for p in dec.pairs) and dec.weight == n and dec.dim == d


def is_valid_relaxed_witness(dec: Decomposition, n: int, d: int | Fraction) -> bool:
    """Recheck a ``kk`` witness from raw pair data."""
    return all(p.n >= p.k >= 1 for p in dec.pairs) and dec.weight >= n and dec.dim <= math.floor(d)
