import math
import re
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from coisocap import (
    CapExceededError,
    Decomposition,
    ExtNat,
    NAT_INF,
    OutOfRangeError,
    Pair,
    WitnessedValue,
    big_k,
    big_k_table,
    four_square,
    keq,
    keq_naive,
    kk,
    kk_naive,
    sqrt_bound_witness,
)
from coisocap.kfun import (
    BIG_K_NMAX,
    ORACLE_CAP,
    _naive_table,
    _square_mass_search,
    _witnessed,
    check_k_rows,
    is_valid_exact_witness,
    is_valid_relaxed_witness,
    lt_sqrt_plus,
    root_bound_holds,
    square_cost_naive,
)

K_ROW_1_TO_20 = (1, 2, 3, 2, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 7, 4, 5, 6, 7, 6)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def test_extnat_total_order():
    assert ExtNat(1) < ExtNat(2) < NAT_INF
    assert not NAT_INF < NAT_INF
    assert ExtNat(3) == ExtNat(3)
    assert ExtNat(2) + ExtNat(3) == ExtNat(5)
    assert ExtNat(2) + NAT_INF == NAT_INF
    assert str(NAT_INF) == "inf"
    with pytest.raises(ValueError):
        ExtNat(-1)


def test_pair_invariants():
    assert Pair(2, 3).weight == 6
    assert Pair(2, 3).dim == 2 * (6 - 2)
    with pytest.raises(ValueError):
        Pair(0, 1)
    with pytest.raises(ValueError):
        Pair(3, 2)


def test_decomposition_canonical_order():
    dec = Decomposition.from_pairs([Pair(1, 1), Pair(2, 2), Pair(1, 5)])
    assert dec.key() == ((2, 2), (1, 5), (1, 1))
    assert dec.cost == 4
    assert dec.weight == 2 * 2 + 5 + 1
    assert str(dec) == "[(2,2),(1,5),(1,1)]"
    with pytest.raises(ValueError):
        Decomposition(())
    with pytest.raises(ValueError):
        Decomposition((Pair(1, 1), Pair(2, 2)))  # not canonical
    with pytest.raises(ValueError):
        Decomposition([Pair(1, 1), Pair(2, 2)])


def test_decomposition_takes_any_iterable_in_canonical_order():
    assert Decomposition([Pair(1, 1)]).pairs == (Pair(1, 1),)
    assert Decomposition([Pair(1, 1)]) == Decomposition((Pair(1, 1),))
    assert Decomposition(iter([Pair(2, 2), Pair(1, 5)])).key() == ((2, 2), (1, 5))


def test_witnessed_value_consistency():
    with pytest.raises(ValueError):
        WitnessedValue(ExtNat(2))  # finite without witness
    with pytest.raises(ValueError):
        WitnessedValue(NAT_INF, Decomposition.from_pairs([Pair(1, 1)]))
    with pytest.raises(ValueError):
        WitnessedValue(ExtNat(3), Decomposition.from_pairs([Pair(1, 1)]))


# ---------------------------------------------------------------------------
# Square-sum minimizer
# ---------------------------------------------------------------------------

def test_big_k_small_table():
    assert big_k_table(20)[1:] == K_ROW_1_TO_20


def test_big_k_examples():
    one = big_k(1)
    assert one.value == ExtNat(1) and one.witness.key() == ((1, 1),)
    assert big_k(12).value == ExtNat(6)
    sixteen = big_k(16)
    assert sixteen.value == ExtNat(4) and sixteen.witness.key() == ((4, 4),)
    assert big_k(20).value == ExtNat(6)


def test_big_k_witness_is_smallest_optimum():
    # 12 = 4+4+4 and 12 = 9+1+1+1 both cost 6; the tie-break picks the
    # smaller canonical key.
    assert big_k(12).witness.key() == ((2, 2), (2, 2), (2, 2))
    # 72 = 36+36 and 72 = 64+4+4 both cost 12.
    assert big_k(72).witness.key() == ((6, 6), (6, 6))


def test_big_k_matches_exhaustive_enumeration():
    # every n <= 300; the pruned enumeration keeps the whole run cheap
    table = big_k_table(300)
    t0 = time.perf_counter()
    for n in range(1, 301):
        assert table[n] == square_cost_naive(n)
    assert time.perf_counter() - t0 < 2.0


def test_big_k_witness_audits():
    for n in range(1, 60):
        result = big_k(n)
        assert is_valid_exact_witness(result.witness, n, n)
        assert result.witness.cost == result.value.value


def test_big_k_is_keq_on_the_diagonal():
    # K(n) = keq(n, n): weight = dim = n forces every pair to be (k, k).
    # The values agree over the table to 5000, the whole answer (witness
    # included, so the smallest-key tie-break too) to 600.
    table = big_k_table(5000)
    assert [n for n in range(1, 5001) if table[n] != keq(n, n).value.value] == []
    assert [n for n in range(1, 601) if big_k(n) != keq(n, n)] == []


def test_big_k_rejects_bad_input():
    with pytest.raises(OutOfRangeError):
        big_k(0)
    with pytest.raises(TypeError):
        big_k(2.0)


def test_k_rows_may_cost_no_more_than_the_largest_table():
    # sum of n * isqrt(n) over 1..5761 is within 10**6 * isqrt(10**6); over 1..5762 it is not
    check_k_rows(1, 5761)
    check_k_rows(BIG_K_NMAX, BIG_K_NMAX)
    for start, stop in ((1, 5762), (BIG_K_NMAX - 1, BIG_K_NMAX), (1, 10**30),
                        (BIG_K_NMAX + 1, BIG_K_NMAX + 1)):
        with pytest.raises(OutOfRangeError, match=rf"K rows {start}\.\.{stop} cost more"):
            check_k_rows(start, stop)
    with pytest.raises(OutOfRangeError, match="n must be >= 1"):
        check_k_rows(0, 5)


# ---------------------------------------------------------------------------
# Exact-constraint minimizer
# ---------------------------------------------------------------------------

def test_keq_examples():
    four = keq(4, 4)
    assert four.value == ExtNat(2) and four.witness.key() == ((2, 2),)
    assert keq(3, 2).value == NAT_INF and keq(3, 2).witness is None
    five = keq(5, 9)
    assert five.value == ExtNat(1) and five.witness.key() == ((1, 5),)
    two = keq(2, 2)
    assert two.value == ExtNat(2) and two.witness.key() == ((1, 1), (1, 1))


def test_infeasible_queries_share_one_infinite_value():
    # keq(3, 2) has d < n, kk(5, 3) floor(d) < n and keq(1, 5) d > 2n - 1
    first, second, third = keq(3, 2), kk(5, 3), keq(1, 5)
    assert first is second is third
    assert first == WitnessedValue(NAT_INF) and first.witness is None


def test_keq_feasibility_window():
    for n in range(1, 13):
        for d in range(0, 3 * n + 1):
            assert keq(n, d).value.is_finite == (n <= d <= 2 * n - 1)


def test_keq_linear_and_divisor_bounds():
    for n in range(1, 13):
        for d in range(n, 2 * n):
            assert keq(n, d).value <= ExtNat(2 * n - d)
        for k in range(1, math.isqrt(n) + 1):
            if n % k == 0:
                assert keq(n, 2 * n - k * k).value <= ExtNat(k)


def test_keq_rejects_bad_input():
    with pytest.raises(OutOfRangeError):
        keq(0, 0)
    with pytest.raises(OutOfRangeError):
        keq(3, -1)
    with pytest.raises(TypeError):
        keq(3, Fraction(1, 2))


# ---------------------------------------------------------------------------
# Relaxed-constraint minimizer
# ---------------------------------------------------------------------------

def test_kk_examples():
    nine = kk(9, 9)
    assert nine.value == ExtNat(3) and nine.witness.key() == ((3, 3),)
    two = kk(2, 5)
    assert two.value == ExtNat(1) and two.witness.key() == ((1, 2),)
    assert kk(5, 3).value == NAT_INF
    assert kk(4, Fraction(9, 2)).value == ExtNat(2)


def test_kk_floor_reduction():
    # Both constraint sums are integers, so only floor(d) matters.
    for n in range(1, 9):
        for num in range(0, 4 * n):
            d = Fraction(num, 2)
            assert kk(n, d).value == kk(n, int(d)).value


def test_repeated_queries_return_the_cached_answer():
    # d = 9 and d = 19/2 share floor(d), so they are one query
    assert kk(7, 9) is kk(7, Fraction(19, 2))
    assert keq(30, 45) is keq(30, 45)


def test_equal_answers_of_different_queries_are_one_object():
    # two kk queries, and a keq query, K and a kk query, share one answer
    # while it is among the answers the cache holds
    _square_mass_search.cache_clear()
    _witnessed.cache_clear()
    assert kk(5, 9) is kk(5, 10)
    assert keq(9, 9) is big_k(9) is kk(9, 9)
    assert kk(5, 9) == WitnessedValue(ExtNat(1), Decomposition([Pair(1, 5)]))
    assert big_k(9) == WitnessedValue(ExtNat(3), Decomposition([Pair(3, 3)]))


def test_an_answer_the_search_cached_early_is_still_the_interned_one():
    # the search cache outlives the 1,024 interned answers: after keq(9, 9)
    # and 2,999 more distinct answers, a repeated keq(9, 9) is answered from
    # the search cache, and it is still the object big_k(9) gets
    _square_mass_search.cache_clear()
    _witnessed.cache_clear()
    keq(9, 9)
    for n in range(1, 3000):
        keq(n, n)
    assert _witnessed.cache_info().currsize == _witnessed.cache_info().maxsize < 3000
    assert _square_mass_search.cache_info().currsize == 2999
    assert keq(9, 9) is big_k(9) is kk(9, 9)


def test_the_answer_cache_is_bounded():
    maxsize = _witnessed.cache_info().maxsize
    assert maxsize is not None and maxsize <= 4096


@pytest.mark.parametrize("found", [
    (2, ((2, 1),)),  # k > n
    (3, ((1, 1), (2, 2))),  # out of canonical order
    (3, ((1, 1),)),  # cost differs from the key
])
def test_a_malformed_answer_raises_on_every_call(found):
    for _ in range(3):
        with pytest.raises(ValueError):
            _witnessed(found)


def test_kk_monotone_and_dominated():
    for n in range(1, 11):
        values = [kk(n, d).value for d in range(0, 2 * n + 3)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for d in range(0, 2 * n + 3):
            assert keq(n, d).value >= kk(n, d).value


def test_kk_collapse_at_diagonal():
    table = big_k_table(25)
    for n in range(1, 26):
        assert keq(n, n).value.value == table[n]
        assert kk(n, n).value.value == table[n]


def test_kk_subadditive_with_inf():
    for n in range(1, 7):
        for n2 in range(1, 7):
            for d in range(0, 2 * n + 1):
                for d2 in range(0, 2 * n2 + 1):
                    lhs = kk(n + n2, d + d2).value
                    assert lhs <= kk(n, d).value + kk(n2, d2).value


@pytest.mark.parametrize("fn, n, d, value, key", [
    (keq, 10**12, 3 * 10**12, NAT_INF, None),
    (kk, 10**12, 10**13, ExtNat(1), ((1, 10**12),)),
    (kk, 10**6, 10**6, ExtNat(1000), ((1000, 1000),)),
    (keq, 10**4, 15000, ExtNat(80), ((70, 70), (10, 510))),
], ids=lambda x: getattr(x, "__name__", None))
def test_large_inputs_answer_within_a_second(fn, n, d, value, key):
    t0 = time.perf_counter()
    result = fn(n, d)
    assert time.perf_counter() - t0 < 1.0
    assert result.value == value
    assert (result.witness and result.witness.key()) == key


def test_kk_rejects_bad_input():
    with pytest.raises(OutOfRangeError):
        kk(2, -1)
    with pytest.raises(TypeError):
        kk(2, 1.5)


# ---------------------------------------------------------------------------
# Naive oracles
# ---------------------------------------------------------------------------

def test_oracle_equivalence_small():
    for n in range(1, 9):
        for d in range(0, 2 * n + 1):
            fast, slow = keq(n, d), keq_naive(n, d)
            assert fast.value == slow.value
            if fast.value.is_finite:
                assert fast.witness.key() == slow.witness.key()
            fast, slow = kk(n, d), kk_naive(n, d)
            assert fast.value == slow.value
            if fast.value.is_finite:
                assert fast.witness.key() == slow.witness.key()


def test_oracle_examples():
    assert keq_naive(4, 4).value == ExtNat(2)
    assert kk_naive(2, 5).value == ExtNat(1)
    assert keq_naive(3, 2).value == NAT_INF


def test_oracle_cap_enforced():
    with pytest.raises(CapExceededError):
        kk_naive(2, 100)
    with pytest.raises(CapExceededError, match=re.escape("naive oracle capped at n <= 12, got n=13")):
        keq_naive(13, 13)
    with pytest.raises(
        CapExceededError, match=re.escape("naive oracle capped at floor(d) <= 24, got floor(d)=25")
    ):
        kk_naive(2, 25)


# Reference oracles: a separate enumeration per max weight and a linear
# filter per query, kept to check the (weight, dim) table against.

@lru_cache(maxsize=None)
def _enumerate_upto_weight(max_weight):
    out = []

    def extend(prefix, budget, k_hi, m_hi):
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


def _reference_filter(max_weight, keep):
    found = None
    for key in _enumerate_upto_weight(max_weight):
        weight = sum(k * m for k, m in key)
        dim = sum(k * (2 * m - k) for k, m in key)
        if keep(weight, dim):
            cand = (sum(k for k, _ in key), key)
            if found is None or cand < found:
                found = cand
    return found


def test_naive_table_matches_the_unpruned_walk_entry_for_entry():
    # least (cost, key) at each (weight, dim <= 2 * ORACLE_CAP) over every
    # canonical pair tuple of the plain walk, which also visits the empty
    # children at the cap; dim >= weight, so the weight cap loses none
    want = {}
    for key in _enumerate_upto_weight(2 * ORACLE_CAP):
        at = (sum(k * m for k, m in key), sum(k * (2 * m - k) for k, m in key))
        cand = (sum(k for k, _ in key), key)
        if at[1] <= 2 * ORACLE_CAP and (at not in want or cand < want[at]):
            want[at] = cand
    got = _naive_table()
    assert len(want) == 156 and set(got) == set(want)
    for at, (cost, key) in want.items():
        assert got[at] == (cost, key), at


def _assert_matches(got, found):
    if found is None:
        assert got.value == NAT_INF and got.witness is None
    else:
        assert got.value == ExtNat(found[0])
        assert got.witness.key() == found[1]


def test_keq_naive_matches_reference_enumeration():
    for n in range(1, 13):
        for d in range(31):
            found = _reference_filter(n, lambda w, dim: w == n and dim == d)
            _assert_matches(keq_naive(n, d), found)


def _kk_naive_scan(n, d):
    """The reference of ``kk_naive``'s table: a scan of every (weight, dim)
    entry for the least with weight >= n and dim <= floor(d)."""
    return min((entry for (weight, dim), entry in _naive_table().items()
                if weight >= n and dim <= math.floor(d)), default=None)


def test_kk_naive_table_matches_the_scan():
    for n in range(1, ORACLE_CAP + 1):
        for dcap in range(2 * ORACLE_CAP + 1):
            for d in (dcap, Fraction(2 * dcap + 1, 2), Fraction(3 * dcap + 2, 3)):
                _assert_matches(kk_naive(n, d), _kk_naive_scan(n, d))


def test_kk_naive_matches_reference_enumeration():
    by_floor = {}
    for n in range(1, 13):
        for j in range(75):
            dcap = j // 3
            if (n, dcap) not in by_floor:
                by_floor[n, dcap] = _reference_filter(dcap, lambda w, dim: w >= n and dim <= dcap)
            _assert_matches(kk_naive(n, Fraction(j, 3)), by_floor[n, dcap])


# ---------------------------------------------------------------------------
# Constructive decompositions
# ---------------------------------------------------------------------------

def test_four_square_examples():
    assert four_square(0) == (0, 0, 0, 0)
    assert four_square(7) == (2, 1, 1, 1)
    assert four_square(16) == (4, 0, 0, 0)


def test_four_square_identity_sweep():
    for n in range(0, 400):
        a, b, c, d = four_square(n)
        assert a * a + b * b + c * c + d * d == n
        assert a >= b >= c >= d >= 0


def test_sqrt_bound_witness_examples():
    assert sqrt_bound_witness(9, 18).key() == ((2, 5),)
    assert sqrt_bound_witness(16, 31).key() == ((3, 6),)
    with pytest.raises(OutOfRangeError):
        sqrt_bound_witness(9, 8)
    with pytest.raises(OutOfRangeError):
        sqrt_bound_witness(8, 16)
    with pytest.raises(OutOfRangeError):
        sqrt_bound_witness(16, 33)
    with pytest.raises(OutOfRangeError):
        sqrt_bound_witness(16, 30)  # below the window floor


def test_sqrt_bound_witness_certifies_bound():
    for n in range(9, 40):
        for d in range(n, 2 * n + 1):
            if (d - n + 9) ** 2 < 36 * n:
                continue
            wit = sqrt_bound_witness(n, d)
            assert is_valid_relaxed_witness(wit, n, d)
            assert lt_sqrt_plus(wit.cost, 2 * n - d, 3)
            cost = kk(n, d).value
            assert cost.is_finite and cost.value <= wit.cost
            assert lt_sqrt_plus(cost.value, 2 * n - d, 3)


# ---------------------------------------------------------------------------
# Exact comparators
# ---------------------------------------------------------------------------

def test_lt_sqrt_plus_hand_cases():
    assert lt_sqrt_plus(2, 0, 3)       # 2 < 0 + 3
    assert not lt_sqrt_plus(3, 0, 3)   # 3 < 0 + 3 fails
    assert lt_sqrt_plus(3, 1, 3)       # 3 < 1 + 3
    assert not lt_sqrt_plus(5, 4, 3)   # 5 < 2 + 3 fails
    assert lt_sqrt_plus(4, 4, 3)


def _root_bound_reference(n: int, c: int):
    # Outward-rounded decimal comparison of c vs sqrt(n) + 2^(3/2)*n^(1/4);
    # returns None when the rounding cannot decide.
    scale = 10 ** 12
    sqrt_lo = math.isqrt(n * scale * scale)
    fourth_lo = math.isqrt(math.isqrt(n * scale ** 4))
    coeff_lo = math.isqrt(8 * scale * scale)
    rhs_lo = sqrt_lo + (coeff_lo * fourth_lo) // scale
    rhs_hi = (sqrt_lo + 1) + ((coeff_lo + 1) * (fourth_lo + 1)) // scale + 1
    if c * scale < rhs_lo:
        return True
    if c * scale > rhs_hi:
        return False
    return None


def test_root_bound_matches_reference():
    for n in (1, 2, 3, 4, 7, 10, 16, 50, 64, 100, 1000, 99991):
        for c in range(0, math.isqrt(n) + 10):
            ref = _root_bound_reference(n, c)
            if ref is not None:
                assert root_bound_holds(n, c) == ref
    # n = 4 makes the right side exactly 6; strictness matters.
    assert root_bound_holds(4, 5)
    assert not root_bound_holds(4, 6)
    # n = 64 makes the right side exactly 16.
    assert root_bound_holds(64, 15)
    assert not root_bound_holds(64, 16)


def test_root_bound_holds_for_square_costs():
    table = big_k_table(2000)
    for n in range(1, 2001):
        assert root_bound_holds(n, table[n])


# ---------------------------------------------------------------------------
# Witness audits
# ---------------------------------------------------------------------------

def test_witness_audits_sweep():
    for n in range(1, 16):
        for d in range(0, 2 * n + 2):
            exact = keq(n, d)
            if exact.value.is_finite:
                assert is_valid_exact_witness(exact.witness, n, d)
                assert exact.witness.cost == exact.value.value
            relaxed = kk(n, d)
            if relaxed.value.is_finite:
                assert is_valid_relaxed_witness(relaxed.witness, n, d)
                assert relaxed.witness.cost == relaxed.value.value
