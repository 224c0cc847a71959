"""Exact combinatorial cost minimizers with certified witnesses.

Three integer minimization problems over multisets of pairs (k, n) with
1 <= k <= n are solved exactly:

* ``big_k(n)``: minimal sum of k over multisets of positive integers whose
  squares sum to n (each part k is the pair (k, k)).
* ``keq(n, d)``: minimal sum of k subject to  sum(k*n) == n  and
  sum(k*(2n - k)) == d.
* ``kk(n, d)``: the relaxed variant,  sum(k*n) >= n  and
  sum(k*(2n - k)) <= floor(d).

Every finite value comes with a witness decomposition; infeasible instances
yield infinity, never an error.  ``keq_naive``/``kk_naive`` are independent
exhaustive-enumeration oracles for cross-checking, capped at small inputs.

All arithmetic is exact (Python integers / fractions.Fraction).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Union

from .errors import CapExceededError, OutOfRangeError

DEFAULT_ORACLE_CAP = 12
ORACLE_CAP_ENV = "COISOCAP_ORACLE_CAP"
# Largest n the square-sum table is built for: its list and its O(n^1.5)
# run time (about two minutes at 10**6) grow without bound otherwise.
BIG_K_NMAX = 10**6

Rational = Union[int, Fraction]


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


def _require_rational(value, name: str) -> Rational:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} must be an int or Fraction, got {type(value).__name__}")
    return value


def _ceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    return math.isqrt(x - 1) + 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@total_ordering
@dataclass(frozen=True)
class ExtNat:
    """A nonnegative integer extended with infinity (``value is None``)."""

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None:
            _require_int(self.value, "value")
            if self.value < 0:
                raise ValueError("finite ExtNat must be nonnegative")

    @classmethod
    def fin(cls, value: int) -> "ExtNat":
        return cls(value)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __lt__(self, other: "ExtNat") -> bool:
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __add__(self, other: "ExtNat") -> "ExtNat":
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self.value is None or other.value is None:
            return NAT_INF
        return ExtNat(self.value + other.value)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


NAT_INF = ExtNat(None)


@dataclass(frozen=True)
class Pair:
    """One block of k frames in half-dimension n (requires 1 <= k <= n)."""

    k: int
    n: int

    def __post_init__(self) -> None:
        _require_int(self.k, "k")
        _require_int(self.n, "n")
        if self.k < 1:
            raise ValueError(f"pair needs k >= 1, got k={self.k}")
        if self.n < self.k:
            raise ValueError(f"pair needs n >= k, got (k, n)=({self.k}, {self.n})")

    @property
    def weight(self) -> int:
        return self.k * self.n

    @property
    def dim(self) -> int:
        return self.k * (2 * self.n - self.k)


def _canonical_order(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    # Descending by k, then descending by n.
    return tuple(sorted(pairs, key=lambda p: (-p.k, -p.n)))


@dataclass(frozen=True)
class Decomposition:
    """A nonempty multiset of pairs in canonical order.

    Canonical order is descending by k, then descending by n, so equal
    multisets have equal representations.  ``key()`` gives the tuple used
    for the deterministic tie-break among equal-cost witnesses (smallest
    key wins).
    """

    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("decomposition must contain at least one pair")
        if any(not isinstance(p, Pair) for p in self.pairs):
            raise TypeError("decomposition entries must be Pair instances")
        if self.pairs != _canonical_order(self.pairs):
            raise ValueError("pairs are not in canonical order")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "Decomposition":
        return cls(_canonical_order(pairs))

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


@dataclass(frozen=True)
class WitnessedValue:
    """An extended-integer value plus a witness exactly when finite."""

    value: ExtNat
    witness: Decomposition | None = None

    def __post_init__(self) -> None:
        if self.value.is_finite:
            if self.witness is None:
                raise ValueError("finite value requires a witness")
            if self.witness.cost != self.value.value:
                raise ValueError(
                    f"witness cost {self.witness.cost} != value {self.value.value}"
                )
        elif self.witness is not None:
            raise ValueError("infinite value must not carry a witness")


def _from_key(key: tuple[tuple[int, int], ...]) -> Decomposition:
    return Decomposition.from_pairs(Pair(k, n) for k, n in key)


# ---------------------------------------------------------------------------
# Square-sum minimizer (dynamic program)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def big_k_table(nmax: int) -> tuple[int, ...]:
    """Values of the square-sum minimizer for 0..nmax via the recurrence
    table[0] = 0, table[m] = min over k*k <= m of (k + table[m - k*k])."""
    _require_int(nmax, "nmax")
    if nmax < 0:
        raise OutOfRangeError("nmax must be >= 0")
    if nmax > BIG_K_NMAX:
        raise OutOfRangeError(f"nmax must be <= {BIG_K_NMAX} (the K table size limit)")
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


def _lexmin_square_parts(n: int, cost: int) -> tuple[int, ...] | None:
    """Smallest (by the canonical tie-break) descending part tuple with
    square sum n and part sum cost.  Backtracking over candidate largest
    parts in ascending order; dead states are memoized."""
    if n == 0:
        return () if cost == 0 else None

    def viable(m: int, b: int, cap: int) -> bool:
        # Necessary: parts >= 1 give b <= m, parts <= cap give m <= b*cap.
        return 0 < b <= m <= b * cap

    root_cap = math.isqrt(n)
    if not viable(n, cost, root_cap):
        return None
    dead: set[tuple[int, int, int]] = set()
    frames: list[list[int]] = [[n, cost, root_cap, 1]]
    chosen: list[int] = []
    while frames:
        m, b, cap, k = frames[-1]
        kmax = min(cap, math.isqrt(m))
        descended = False
        while k <= kmax:
            nxt = k + 1
            if k * b >= m:  # with parts <= k the square sum can still reach m
                m2, b2 = m - k * k, b - k
                if m2 == 0 and b2 == 0:
                    return tuple(chosen) + (k,)
                if viable(m2, b2, k) and (m2, b2, k) not in dead:
                    frames[-1][3] = nxt
                    frames.append([m2, b2, k, 1])
                    chosen.append(k)
                    descended = True
                    break
            k = nxt
        if not descended:
            dead.add((m, b, cap))
            frames.pop()
            if chosen:
                chosen.pop()
    return None


def big_k(n: int) -> WitnessedValue:
    """Minimal part sum over multisets of positive integers whose squares
    sum to n; the witness pairs every part k with itself."""
    _require_int(n, "n")
    if n < 1:
        raise OutOfRangeError("n must be >= 1")
    value = big_k_table(n)[n]
    parts = _lexmin_square_parts(n, value)
    if parts is None:  # the table value is always attained
        raise AssertionError(f"no square witness found for n={n}")
    witness = Decomposition.from_pairs(Pair(k, k) for k in parts)
    return WitnessedValue(ExtNat(value), witness)


def square_cost_naive(n: int) -> int:
    """Exhaustive minimum of the part sum over square decompositions of n.

    Independent of the dynamic program: plain depth-first enumeration of
    descending parts with no pruning beyond the part cap.
    """
    _require_int(n, "n")
    if n < 1:
        raise OutOfRangeError("n must be >= 1")
    best: list[int | None] = [None]

    def rec(m: int, cap: int, acc: int) -> None:
        if m == 0:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        for k in range(min(cap, math.isqrt(m)), 0, -1):
            rec(m - k * k, k, acc + k)

    rec(n, math.isqrt(n), 0)
    assert best[0] is not None
    return best[0]


# ---------------------------------------------------------------------------
# Exact-constraint minimizer (branch and bound)
# ---------------------------------------------------------------------------

def _offer(best: list, cost: int, key: tuple[tuple[int, int], ...]) -> None:
    if best[0] is None or cost < best[0] or (cost == best[0] and key < best[1]):
        best[0], best[1] = cost, key


def _pair_key_sorted(raw: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(raw, key=lambda t: (-t[0], -t[1])))


def _keq_seeds(n: int, d: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Constructive feasible solutions used as starting incumbents."""
    seeds = []
    if n <= d <= 2 * n - 1:
        # 2n - d pairs with k = 1: one of half-dimension d - n + 1, rest of 1.
        raw = [(1, d - n + 1)] + [(1, 1)] * (2 * n - d - 1)
        seeds.append((2 * n - d, _pair_key_sorted(raw)))
    for k in range(1, math.isqrt(n) + 1):
        if n % k == 0:
            m = n // k
            if m >= k and k * (2 * m - k) == d:
                seeds.append((k, ((k, m),)))
    for cost, key in seeds:
        assert sum(k * m for k, m in key) == n
        assert sum(k * (2 * m - k) for k, m in key) == d
    return seeds


@lru_cache(maxsize=None)
def _search_keq(n: int, d: int) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """Minimal cost and smallest witness for weight == n, dim == d."""
    best: list = [None, None]
    for cost, key in _keq_seeds(n, d):
        _offer(best, cost, key)
    if best[0] == 1:
        # A cost-1 solution is a single pair (1, n) with d == 2n - 1; it is
        # unique, so no search is needed.
        return 1, best[1]

    # Node: remaining weight W, remaining dim D, lexicographic bound
    # (k_hi, m_hi) on the next pair, accumulated cost and pairs.
    stack: list[tuple[int, int, int, int, int, tuple]] = [(n, d, n, n, 0, ())]
    while stack:
        W, D, k_hi, m_hi, cost, acc = stack.pop()
        if W == 0:
            if D == 0:
                _offer(best, cost, acc)
            continue
        if D < W:
            continue  # every pair contributes dim >= weight
        q = 2 * W - D  # exact square mass the remaining pairs must carry
        if q < 1 or q > W:
            continue  # needs 1 <= sum(k^2) <= sum(k*m)
        k_top = min(k_hi, math.isqrt(q))
        if k_top < 1:
            continue
        # future cost >= sqrt(q) and, with every future k <= k_top, >= q/k_top
        lb = max(_ceil_sqrt(q), _ceil_div(q, k_top))
        if best[0] is not None and cost + lb > best[0]:
            continue
        slack = D - W  # remaining sum of k*(m - k)
        for k in range(1, k_top + 1):
            if best[0] is not None and cost + k > best[0]:
                break
            m_top = min(W // k, k + slack // k)
            if k == k_hi:
                m_top = min(m_top, m_hi)
            for m in range(k, m_top + 1):
                stack.append(
                    (W - k * m, D - k * (2 * m - k), k, m, cost + k, acc + ((k, m),))
                )
    if best[0] is None:
        return None
    return best[0], best[1]


def keq(n: int, d: int) -> WitnessedValue:
    """Minimal cost over decompositions with weight exactly n and dimension
    exactly d; infinity when no decomposition exists."""
    _require_int(n, "n")
    _require_int(d, "d")
    if n < 1:
        raise OutOfRangeError("n must be >= 1")
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    found = _search_keq(n, d)
    if found is None:
        return WitnessedValue(NAT_INF)
    cost, key = found
    return WitnessedValue(ExtNat(cost), _from_key(key))


# ---------------------------------------------------------------------------
# Relaxed-constraint minimizer (branch and bound)
# ---------------------------------------------------------------------------

def _kk_seeds(n: int, dcap: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    seeds = []
    if 2 * n - 1 <= dcap:
        seeds.append((1, ((1, n),)))
    elif n <= dcap:
        raw = [(1, dcap - n + 1)] + [(1, 1)] * (2 * n - dcap - 1)
        seeds.append((2 * n - dcap, _pair_key_sorted(raw)))
        if n >= 9 and (dcap - n + 9) ** 2 >= 36 * n:
            k1 = _ceil_sqrt(2 * n - dcap) + 2
            m1 = _ceil_div(n, k1)
            if m1 >= k1 and k1 * (2 * m1 - k1) <= dcap:
                seeds.append((k1, ((k1, m1),)))
    for cost, key in seeds:
        assert sum(k * m for k, m in key) >= n
        assert sum(k * (2 * m - k) for k, m in key) <= dcap
    return seeds


@lru_cache(maxsize=None)
def _search_kk(n: int, dcap: int) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """Minimal cost and smallest witness for weight >= n, dim <= dcap."""
    best: list = [None, None]
    for cost, key in _kk_seeds(n, dcap):
        _offer(best, cost, key)
    if best[0] == 1:
        # Cost 1 forces a single pair (1, m) with m >= n; (1, n) is the
        # smallest such witness and is already seeded.
        return 1, ((1, n),)

    # Node: weight still needed R (feasible once <= 0), dim budget left B,
    # lexicographic bound on the next pair, accumulated cost and pairs.
    root_hi = max(dcap, 1)
    stack: list[tuple[int, int, int, int, int, tuple]] = [(n, dcap, root_hi, root_hi, 0, ())]
    while stack:
        R, B, k_hi, m_hi, cost, acc = stack.pop()
        if R <= 0:
            _offer(best, cost, acc)
            continue  # extending a feasible node only raises the cost
        if R > B:
            continue  # future dim >= future weight >= R
        lb = max(1, _ceil_sqrt(2 * R - B), _ceil_div(2 * R, B + 1))
        if best[0] is not None and cost + lb > best[0]:
            continue
        for k in range(1, min(k_hi, math.isqrt(B)) + 1):
            if best[0] is not None and cost + k > best[0]:
                break
            m_top = (B + k * k) // (2 * k)
            if k == k_hi:
                m_top = min(m_top, m_hi)
            if m_top < k:
                continue
            # Overshooting a finishing pair only grows dim and the witness
            # key, so a pair with k*m > max(k*k, R) rounded up is dominated.
            m_stop = min(m_top, max(k, _ceil_div(R, k)))
            for m in range(k, m_stop + 1):
                stack.append(
                    (R - k * m, B - k * (2 * m - k), k, m, cost + k, acc + ((k, m),))
                )
    if best[0] is None:
        return None
    return best[0], best[1]


def _floor_dim(d: Rational) -> int:
    return int(math.floor(d))


def kk(n: int, d: Rational) -> WitnessedValue:
    """Minimal cost over decompositions with weight >= n and dimension at
    most floor(d); infinity exactly when floor(d) < n.

    Both constraint sums are integers, so replacing d by its floor is
    value-preserving.
    """
    _require_int(n, "n")
    _require_rational(d, "d")
    if n < 1:
        raise OutOfRangeError("n must be >= 1")
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    found = _search_kk(n, _floor_dim(d))
    if found is None:
        return WitnessedValue(NAT_INF)
    cost, key = found
    return WitnessedValue(ExtNat(cost), _from_key(key))


# ---------------------------------------------------------------------------
# Naive enumeration oracles
# ---------------------------------------------------------------------------

def oracle_cap() -> int:
    """Size cap for the naive oracles; override with COISOCAP_ORACLE_CAP."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{ORACLE_CAP_ENV} must be >= 1, got {cap}")
    return cap


@lru_cache(maxsize=64)
def _enumerate_upto_weight(max_weight: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every canonical pair tuple of total weight <= max_weight, unpruned."""
    out: list[tuple[tuple[int, int], ...]] = []

    def extend(prefix: tuple, budget: int, k_hi: int, m_hi: int) -> None:
        for k in range(1, min(k_hi, math.isqrt(budget)) + 1):
            top = budget // k
            if k == k_hi:
                top = min(top, m_hi)
            for m in range(k, top + 1):
                cand = prefix + ((k, m),)
                out.append(cand)
                extend(cand, budget - k * m, k, m)

    extend((), max_weight, max_weight, max_weight)
    return tuple(out)


def keq_naive(n: int, d: int) -> WitnessedValue:
    """Exhaustive-enumeration oracle for ``keq`` (small n only)."""
    _require_int(n, "n")
    _require_int(d, "d")
    if n < 1:
        raise OutOfRangeError("n must be >= 1")
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    cap = oracle_cap()
    if n > cap:
        raise CapExceededError(f"naive oracle capped at n <= {cap}, got n={n}")
    found = None
    for key in _enumerate_upto_weight(n):
        if sum(k * m for k, m in key) != n:
            continue
        if sum(k * (2 * m - k) for k, m in key) != d:
            continue
        cand = (sum(k for k, _ in key), key)
        if found is None or cand < found:
            found = cand
    if found is None:
        return WitnessedValue(NAT_INF)
    return WitnessedValue(ExtNat(found[0]), _from_key(found[1]))


def kk_naive(n: int, d: Rational) -> WitnessedValue:
    """Exhaustive-enumeration oracle for ``kk`` (small n and d only).

    Feasible decompositions satisfy weight <= dim <= floor(d), so the
    enumeration over total weight <= floor(d) is complete.
    """
    _require_int(n, "n")
    _require_rational(d, "d")
    if n < 1:
        raise OutOfRangeError("n must be >= 1")
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    cap = oracle_cap()
    if n > cap:
        raise CapExceededError(f"naive oracle capped at n <= {cap}, got n={n}")
    dcap = _floor_dim(d)
    if dcap > 2 * cap:
        raise CapExceededError(
            f"naive oracle capped at floor(d) <= {2 * cap}, got floor(d)={dcap}"
        )
    found = None
    for key in _enumerate_upto_weight(dcap):
        if sum(k * m for k, m in key) < n:
            continue
        if sum(k * (2 * m - k) for k, m in key) > dcap:
            continue
        cand = (sum(k for k, _ in key), key)
        if found is None or cand < found:
            found = cand
    if found is None:
        return WitnessedValue(NAT_INF)
    return WitnessedValue(ExtNat(found[0]), _from_key(found[1]))


# ---------------------------------------------------------------------------
# Constructive decompositions
# ---------------------------------------------------------------------------

def four_square(n: int) -> tuple[int, int, int, int]:
    """Some (a, b, c, d) with a >= b >= c >= d >= 0 and a^2+b^2+c^2+d^2 = n.

    First tuple found by brute force with descending a, b, c; deterministic.
    """
    _require_int(n, "n")
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
    _require_int(n, "n")
    _require_int(d, "d")
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


def is_valid_square_witness(dec: Decomposition, n: int) -> bool:
    """Recheck a ``big_k`` witness from raw pair data."""
    return all(p.n == p.k for p in dec.pairs) and sum(
        p.k * p.k for p in dec.pairs
    ) == n


def is_valid_exact_witness(dec: Decomposition, n: int, d: int) -> bool:
    """Recheck a ``keq`` witness from raw pair data."""
    weight = sum(p.k * p.n for p in dec.pairs)
    dim = sum(p.k * (2 * p.n - p.k) for p in dec.pairs)
    return all(p.n >= p.k >= 1 for p in dec.pairs) and weight == n and dim == d


def is_valid_relaxed_witness(dec: Decomposition, n: int, d: Rational) -> bool:
    """Recheck a ``kk`` witness from raw pair data."""
    weight = sum(p.k * p.n for p in dec.pairs)
    dim = sum(p.k * (2 * p.n - p.k) for p in dec.pairs)
    return all(p.n >= p.k >= 1 for p in dec.pairs) and weight >= n and dim <= _floor_dim(d)
