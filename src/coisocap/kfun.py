"""Exact combinatorial cost minimizers with certified witnesses.

Three integer minimization problems over multisets of pairs (k, n) with
1 <= k <= n are solved exactly:

* ``big_k(n)``: minimal sum of k over multisets of positive integers whose
  squares sum to n (each part k is the pair (k, k)).
* ``keq(n, d)``: minimal sum of k subject to  sum(k*n) == n  and
  sum(k*(2n - k)) == d.
* ``kk(n, d)``: the relaxed variant,  sum(k*n) >= n  and
  sum(k*(2n - k)) <= floor(d).

All three are one square-mass problem.  A pair (k, k + t) has weight
k*k + k*t and dimension k*k + 2*k*t, so parts k with square mass
q = sum(k*k) and slack r = sum(k*t) give weight q + r and dimension q + 2r.
``keq`` and ``kk`` search, by iterative deepening on the cost, the cheapest
parts whose square mass lies in the query's range and whose slack range
holds a sum of multiples of the parts; ``big_k`` is the case r = 0 and
takes its value from a dynamic program over 0..n.

Every finite value comes with a witness decomposition; infeasible instances
yield infinity, never an error.  ``keq``, ``kk``, ``big_k`` and the naive
oracles all make their answers with ``_witnessed``, which builds and checks
each distinct (cost, key) once and keeps the 1,024 used last, so equal
answers made while it holds them are one frozen object.  The search's
cache keeps plain (cost, key) results, so every answer comes from the
intern.  The cross-checks, independent of the search, are in ``oracles``:
the exhaustive-enumeration oracles, the four-square and square-root-bound
constructions and the witness audits.
Their names are still names of this module (``kfun.keq_naive``): the first
lookup of one imports ``oracles`` (PEP 562) and keeps the value here, so a
call that never looks one up never compiles them.

All arithmetic is exact (Python integers / fractions.Fraction).  This
module never imports ``fractions``, since a rational d is only compared
and floored, so an integer query loads none of ``fractions``, ``decimal``
or ``numbers``; ``Fraction`` in its annotations is ``fractions.Fraction``.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from functools import lru_cache

from .errors import Extended, Frozen, OutOfRangeError, require_exact, require_int, require_n

# Largest n the square-sum table is built for: its list and its O(n^1.5)
# run time (about two minutes at 10**6) grow without bound otherwise.  A
# range of K rows, each building its own table, may cost no more than that
# one table.
BIG_K_NMAX = 10**6

Monoid = tuple[int, int, list[int]]  # see _monoid
Found = tuple[int, tuple[tuple[int, int], ...]]  # a search result (cost, key)


def _query_cap(n, d, exact: bool) -> int:
    """The dimension cap of a ``keq`` (``exact``: int d) or ``kk`` (floor of
    a rational d) query, after refusing a bad n or d; types come first."""
    if type(n) is int and type(d) is int and n >= 1 and d >= 0:
        return d
    require_int(n, "n")
    (require_int if exact else require_exact)(d, "d")
    require_n(n)
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    return d if exact else math.floor(d)


def _ceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    return math.isqrt(x - 1) + 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class ExtNat(Extended, Frozen):
    """A nonnegative integer extended with infinity (``value is None``)."""

    __slots__ = ("value",)

    def __init__(self, value: int | None) -> None:
        if value is not None:
            require_int(value, "value")
            if value < 0:
                raise ValueError("finite ExtNat must be nonnegative")
        object.__setattr__(self, "value", value)

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self.value is None or other.value is None:
            return NAT_INF
        return ExtNat(self.value + other.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


NAT_INF = ExtNat(None)


class Pair(Frozen):
    """One block of k frames in half-dimension n (requires 1 <= k <= n)."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int) -> None:
        require_int(k, "k")
        require_int(n, "n")
        if k < 1:
            raise ValueError(f"pair needs k >= 1, got k={k}")
        if n < k:
            raise ValueError(f"pair needs n >= k, got (k, n)=({k}, {n})")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    @property
    def weight(self) -> int:
        return self.k * self.n

    @property
    def dim(self) -> int:
        return self.k * (2 * self.n - self.k)


class Decomposition(Frozen):
    """A nonempty multiset of pairs in canonical order.

    Canonical order is descending by k, then descending by n, so equal
    multisets have equal representations.  ``key()`` gives the tuple used
    for the deterministic tie-break among equal-cost witnesses (smallest
    key wins).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Pair]) -> None:
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("decomposition must contain at least one pair")
        if any(not isinstance(p, Pair) for p in pairs):
            raise TypeError("decomposition entries must be Pair instances")
        if any((a.k, a.n) < (b.k, b.n) for a, b in zip(pairs, pairs[1:])):
            raise ValueError("pairs are not in canonical order")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "Decomposition":
        return cls(sorted(pairs, key=lambda p: (-p.k, -p.n)))

    @property
    def cost(self) -> int:
        return sum(p.k for p in self.pairs)

    @property
    def weight(self) -> int:
        return sum(p.weight for p in self.pairs)

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.pairs)

    def key(self) -> tuple[tuple[int, int], ...]:
        return tuple((p.k, p.n) for p in self.pairs)

    def __str__(self) -> str:
        return "[" + ",".join(f"({p.k},{p.n})" for p in self.pairs) + "]"


class WitnessedValue(Frozen):
    """An extended-integer value plus a witness exactly when finite."""

    __slots__ = ("value", "witness")

    def __init__(self, value: ExtNat, witness: Decomposition | None = None) -> None:
        if value.is_finite:
            if witness is None:
                raise ValueError("finite value requires a witness")
            if witness.cost != value.value:
                raise ValueError(f"witness cost {witness.cost} != value {value.value}")
        elif witness is not None:
            raise ValueError("infinite value must not carry a witness")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)


# The one infinite result, shared by every infeasible query.
_NO_DECOMPOSITION = WitnessedValue(NAT_INF)


@lru_cache(maxsize=1024)
def _witnessed(found: Found | None) -> WitnessedValue:
    """The value of a search result (cost, key), or infinity for None.

    Interned: equal results are one object, built and checked on first
    use.  The cache is bounded, since each query of a range can have its
    own answer; a key that fails a check is never kept, so it raises on
    every call.
    """
    if found is None:
        return _NO_DECOMPOSITION
    cost, key = found
    return WitnessedValue(ExtNat(cost), Decomposition(Pair(k, n) for k, n in key))


# ---------------------------------------------------------------------------
# Square-mass kernel (see the module docstring)
# ---------------------------------------------------------------------------

def check_k_rows(start: int, stop: int) -> None:
    """Refuse K rows start..stop whose tables, one per row, cost more than
    the table at the size limit: the table for 0..n takes about
    n * isqrt(n) steps.  The sum passes the limit within 5,762 rows, or at
    one row above the limit: the one refusal of a ``table K`` range."""
    limit = BIG_K_NMAX * math.isqrt(BIG_K_NMAX)
    cost = 0
    for n in range(require_n(start), stop + 1):
        cost += n * math.isqrt(n)
        if cost > limit:
            raise OutOfRangeError(f"K rows {start}..{stop} cost more than one K table at the"
                                  f" size limit (the sum of n*isqrt(n) must be <= {limit})")


@lru_cache(maxsize=8)
def big_k_table(nmax: int) -> tuple[int, ...]:
    """Values of the square-sum minimizer for 0..nmax via the recurrence
    table[0] = 0, table[m] = min over k*k <= m of (k + table[m - k*k])."""
    require_int(nmax, "nmax")
    if nmax < 0:
        raise OutOfRangeError("nmax must be >= 0")
    if nmax > BIG_K_NMAX:  # the one refusal of a K value above the size limit
        raise OutOfRangeError(f"K is tabulated only for n <= {BIG_K_NMAX} (its table size limit)")
    table = [0] * (nmax + 1)
    for m in range(1, nmax + 1):
        best = table[m - 1] + 1
        k = 2
        sq = 4
        while sq <= m:
            cand = k + table[m - sq]
            if cand < best:
                best = cand
            k += 1
            sq = k * k
        table[m] = best
    return tuple(table)


def _square_parts(cost: int, q_lo: int, q_hi: int, cap: int):
    """Descending part tuples with parts <= cap, part sum ``cost`` and
    square sum in [q_lo, q_hi], in ascending lexicographic order."""
    if cost == 0:  # the bounds on the last part kept 0 in [q_lo, q_hi]
        yield ()
        return
    # Parts <= cap summing to cost have a square sum of the parity of cost
    # between cost (all ones) and ``top`` (as many parts cap as fit).
    top = (cost // cap) * cap * cap + (cost % cap) ** 2
    lo, hi = max(q_lo, cost), min(q_hi, top)
    if lo + (lo - cost) % 2 > hi:
        return
    # The square sum is at most (largest part) * cost.
    for k in range(max(1, _ceil_div(q_lo, cost)), min(cap, cost, math.isqrt(q_hi)) + 1):
        if k == 1:
            yield (1,) * cost
            continue
        for rest in _square_parts(cost - k, q_lo - k * k, q_hi - k * k, k):
            yield (k,) + rest


def _monoid(gens: tuple[int, ...]) -> Monoid:
    """Membership data of the monoid of sums of multiples of ``gens``.

    Returns (g, bound, counts): g is the gcd of the generators, every
    multiple of g from ``bound`` on is a member (Schur's bound on the
    Frobenius number of gens / g), and counts[x] is the number of members
    below x, for x <= bound.
    """
    g = math.gcd(*gens)
    bound = g * (min(gens) // g - 1) * (max(gens) // g - 1)
    member = bytearray(bound)
    if bound:
        member[0] = 1
    for a in gens:
        for x in range(a, bound):
            if member[x - a]:
                member[x] = 1
    return g, bound, [0, *itertools.accumulate(member)]


def _meets(monoid: Monoid, lo: int, hi: int) -> bool:
    """Whether [lo, hi] holds a member of the monoid."""
    lo = max(lo, 0)
    g, bound, counts = monoid
    if hi >= bound and hi // g * g >= max(lo, bound):
        return True
    top = min(hi, bound - 1)
    return lo <= top and counts[top + 1] > counts[lo]


def _least_total(k: int, lo: int, hi: int, monoid: Monoid | None) -> int | None:
    """Least u >= 0 with [lo - k*u, hi - k*u] meeting the monoid, or None."""
    if monoid is None:
        u = max(0, _ceil_div(lo, k))
        return u if k * u <= hi else None
    g, bound, _ = monoid
    # Members are multiples of g, and from the bound on every multiple of g
    # is one.  Whether a window holds a multiple of g repeats with period
    # g / gcd(g, k), so when the first period windows lie at or above the
    # bound and miss, all windows miss.  Any other miss has hi - k*u below
    # bound + g, so the loop runs at most period + (bound + g) / k + 1 times.
    period = g // math.gcd(g, k)
    u = 0
    while hi - k * u >= 0:
        if _meets(monoid, lo - k * u, hi - k * u):
            return u
        u += 1
        if u == period and lo - k * u >= bound:
            return None
    return None


def _witness_key(parts: tuple[int, ...], lo: int, hi: int) -> tuple[tuple[int, int], ...] | None:
    """Smallest canonical key with k column ``parts`` (descending) and slack
    in [lo, hi]; None when no slack in the range fits the parts.

    The key compares the pairs of the largest k first.  Group by group, the
    group takes the least total slack that leaves the rest completable and
    spreads it as evenly as it goes, larger shares first.
    """
    groups = [(k, len(tuple(run))) for k, run in itertools.groupby(parts)]
    key: list[tuple[int, int]] = []
    for i, (k, count) in enumerate(groups):
        rest = tuple(k2 for k2, _ in groups[i + 1:])
        total = _least_total(k, lo, hi, _monoid(rest) if rest else None)
        if total is None:
            return None
        lo, hi = lo - k * total, hi - k * total
        share, extra = divmod(total, count)
        key += [(k, k + share + 1)] * extra + [(k, k + share)] * (count - extra)
    return tuple(key)


@lru_cache(maxsize=2**14)
def _square_mass_search(w_lo: int, w_hi: int, d_lo: int, d_hi: int) -> Found | None:
    """Minimal cost and its smallest key, as (cost, key), with weight in
    [w_lo, w_hi] and dimension in [d_lo, d_hi]; None when no decomposition
    exists.

    Iterative deepening on the cost from the root of the least square mass
    q_lo: each cost scans its part tuples in ascending order and stops once
    the largest part exceeds that of the best key found.  The cache holds
    more than the 930 distinct queries of ``verify all --nmax 15`` (2,550
    at ``--nmax 25``).  It keeps plain results, not answers: ``keq`` and
    ``kk`` make theirs with ``_witnessed``, so no cache hands out an answer
    the intern has dropped.
    """
    q_lo = max(1, 2 * w_lo - d_hi)
    q_hi = min(w_hi, d_hi, 2 * w_hi - d_lo)
    # A square mass q leaves the slacks r >= 0 with weight q + r in
    # [w_lo, w_hi] and dimension q + 2r in [d_lo, d_hi].
    if q_lo > q_hi or max(0, w_lo - q_lo, (d_lo - q_lo + 1) // 2) > min(
            w_hi - q_lo, (d_hi - q_lo) // 2):
        return None
    # q_lo ones admit any slack, so the search ends by cost q_lo.
    cost = _ceil_sqrt(q_lo)
    while True:
        best = None
        for parts in _square_parts(cost, q_lo, q_hi, cost):
            if best is not None and parts[0] > best[0][0]:
                break
            q = sum([k * k for k in parts])
            key = _witness_key(parts, max(0, w_lo - q, (d_lo - q + 1) // 2),
                               min(w_hi - q, (d_hi - q) // 2))
            if key is not None and (best is None or key < best):
                best = key
        if best is not None:
            return cost, best
        cost += 1


def big_k(n: int) -> WitnessedValue:
    """Minimal part sum over multisets of positive integers whose squares
    sum to n; the witness pairs every part k with itself."""
    value = big_k_table(require_n(n))[n]
    # The table value is always attained, and the first tuple in ascending
    # order is the smallest key.
    parts = next(_square_parts(value, n, n, value))
    return _witnessed((value, tuple((k, k) for k in parts)))


def keq(n: int, d: int) -> WitnessedValue:
    """Minimal cost over decompositions with weight exactly n and dimension
    exactly d; infinity when no decomposition exists."""
    d = _query_cap(n, d, exact=True)
    return _witnessed(_square_mass_search(n, n, d, d))


def kk(n: int, d: int | Fraction) -> WitnessedValue:
    """Minimal cost over decompositions with weight >= n and dimension at
    most floor(d); infinity exactly when floor(d) < n.

    Both constraint sums are integers, so replacing d by its floor is
    value-preserving.
    """
    dcap = _query_cap(n, d, exact=False)
    return _witnessed(_square_mass_search(n, dcap, 0, dcap))


# ---------------------------------------------------------------------------
# The names of ``oracles``
# ---------------------------------------------------------------------------

_ORACLE_NAMES = frozenset((
    "ORACLE_CAP", "NaiveEntry", "_oracle_cap", "_naive_table", "_kk_naive_table", "keq_naive",
    "kk_naive", "square_cost_naive", "four_square", "sqrt_bound_witness", "lt_sqrt_plus",
    "root_bound_holds", "is_valid_exact_witness", "is_valid_relaxed_witness",
))


def __getattr__(name: str):
    """Import ``oracles`` for one of its names and keep the value, so later
    lookups, such as a sweep's one per cell, never come back here."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracles

    value = globals()[name] = getattr(oracles, name)
    return value
