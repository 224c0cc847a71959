"""An independent value oracle for ``keq``, ``kk`` and ``K`` at mid sizes.

A pair (k, m) with 1 <= k <= m has weight k*m, dimension k*(2m - k) and
cost k.  An unbounded-knapsack dynamic program over (weight, dimension)
gives the least cost at every (n, d), with no pruning and no code shared
with ``kfun``: keq(n, d) is the entry at weight n and dimension d, K(n) is
keq(n, n), and kk(n, d) is the least entry at weight >= n and dimension
<= d.  As no pair has a dimension below its weight, the table runs to
weight 2N for the cells n <= N, d <= 2N.

Tier-1 compares the kernel and both ``verify`` grids with it on every cell
n <= 100, d <= 2n.

A second oracle works on the kernel's own reduction, square mass and slack,
with none of its code: ``verify.square_mass_costs``, the table ``verify``
reads its value grids from, is a dynamic program for the least part sum of
parts with square sum q and slack r, so keq(q + r, q + 2r) is its entry at
(q, r), and kk(n, d) the least entry with q + r >= n and q + 2r <= d.
Tier-1 compares ``keq`` with it on every cell q + r <= 200, and ``kk`` on
drawn cells.

Run as a script, it compares one function further, with the knapsack on
n <= N, d <= 2n, or (``slack``) ``keq`` with the slack table on q + r <= N:

    PYTHONPATH=src python tests/test_value_oracle.py keq 200
    PYTHONPATH=src python tests/test_value_oracle.py slack 600
"""
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from coisocap import kfun, verify

N = 100
INF = 10**9  # above every cost the table holds


@lru_cache(maxsize=1)
def knapsack(top: int) -> tuple[list[list[int | None]], list[list[int | None]]]:
    """(keq, kk) at [n][d] for n, d <= top, None for infinity.

    best[w][s] is the least cost at weight w and dimension w + s.  A
    multiset of weight w >= 1 has dimension 2w - (sum of k*k), so s runs
    over 0 <= s <= w - 1, and s <= top - w."""
    best = [[0]] + [[INF] * min(w, top - w + 1) for w in range(1, top + 1)]
    for k in range(1, math.isqrt(top) + 1):
        for m in range(k, top + 1):
            weight, slack = k * m, k * (m - k)
            if weight + slack > top:
                break
            for w in range(weight, top + 1):  # upwards, so a pair may repeat
                row, prev = best[w], best[w - weight]
                span = min(len(prev), len(row) - slack)
                if span > 0:
                    row[slack:slack + span] = map(
                        min, row[slack:slack + span], [c + k for c in prev[:span]]
                    )
    keq = [[None if not 0 <= d - n < len(best[n]) or best[n][d - n] == INF else best[n][d - n]
            for d in range(top + 1)] for n in range(top + 1)]
    # kk(n, d) is the least of keq(n, d), kk(n + 1, d) and kk(n, d - 1)
    kk = [[] for _ in range(top + 1)]
    above: list[int | None] = [None] * (top + 1)
    for n in range(top, 0, -1):
        left = None
        for here, up in zip(keq[n], above):
            left = min((v for v in (here, up, left) if v is not None), default=None)
            kk[n].append(left)
        above = kk[n]
    return keq, kk


def value(result: kfun.WitnessedValue) -> int | None:
    return result.value.value if result.value.is_finite else None


def cells(nmax: int):
    return [(n, d) for n in range(1, nmax + 1) for d in range(2 * n + 1)]


def test_knapsack_gives_the_k_row():
    keq, kk = knapsack(2 * N)
    assert [keq[n][n] for n in range(1, 21)] == [
        1, 2, 3, 2, 3, 4, 5, 4, 3, 4, 5, 6, 5, 6, 7, 4, 5, 6, 7, 6]
    assert keq[3][2] is None and keq[3][6] is None  # d < n and d > 2n - 1
    assert kk[5][9] == 1 and kk[5][8] == 2  # the pair (1, 5); (1, 1) + (1, 4)


def test_keq_and_k_match_the_knapsack():
    keq, _ = knapsack(2 * N)
    wrong = [(n, d) for n, d in cells(N) if value(kfun.keq(n, d)) != keq[n][d]]
    wrong += [(n, n) for n in range(1, N + 1) if value(kfun.big_k(n)) != keq[n][n]]
    assert wrong == []


def test_kk_matches_the_knapsack():
    _, kk = knapsack(2 * N)
    assert [(n, d) for n, d in cells(N) if value(kfun.kk(n, d)) != kk[n][d]] == []


@pytest.mark.parametrize("fn", ["keq", "kk"])
def test_verify_grids_match_the_knapsack(fn):
    want = knapsack(2 * N)[fn == "kk"]
    costs = verify.square_mass_costs(2 * N)  # more than either grid reads
    got = (verify._keq_grid(costs, N, 2 * N) if fn == "keq"
           else verify._kk_grid(costs, N // 2, N))
    assert [(n, d) for n, d in cells(N) if got[n][d] != want[n][d]] == []


SLACK_TOP = 200


# the hypothesis property below reads one table across its examples
slack_table = lru_cache(maxsize=1)(verify.square_mass_costs)


def slack_cells(top: int) -> list[tuple[int, int]]:
    return [(q, r) for q in range(1, top + 1) for r in range(top - q + 1)]


def slack_mismatches(top: int) -> list[tuple[int, int]]:
    """The cells (q, r) of ``slack_cells`` where keq(q + r, q + 2r) is not
    the slack table's entry; every entry with q >= 1 is finite."""
    costs = slack_table(top)
    return [(q, r) for q, r in slack_cells(top)
            if value(kfun.keq(q + r, q + 2 * r)) != costs[q][r]]


def test_keq_matches_the_slack_costs_on_every_cell():
    assert len(slack_cells(SLACK_TOP)) == 20100
    assert slack_mismatches(SLACK_TOP) == []


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, SLACK_TOP // 2).flatmap(
    lambda n: st.tuples(st.just(n), st.fractions(n - 1, 2 * n))))  # kk is 1 from d = 2n - 1 on
@example((1, Fraction(0)))
@example((1, Fraction(1)))
@example((5, Fraction(7)))  # a slack range one too wide at odd d - q reads 2 here
@example((7, Fraction(27, 2)))
@example((SLACK_TOP // 2, Fraction(SLACK_TOP)))
@example((SLACK_TOP, Fraction(SLACK_TOP)))
def test_kk_is_the_least_slack_cost_in_range(cell):
    # weight q + r >= n and dimension q + 2r <= floor(d), so q + r <= SLACK_TOP
    n, d = cell
    dcap, costs = math.floor(d), slack_table(SLACK_TOP)
    least = min((c for q in range(1, dcap + 1) for r, c in enumerate(costs[q][:(dcap - q) // 2 + 1])
                 if q + r >= n), default=None)
    assert value(kfun.kk(n, d)) == least


if __name__ == "__main__":
    mode, top = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    if mode == "slack":
        fn, oracle, cell, where = "keq", "the slack table", "(q, r)", f"q + r <= {top}"
        total, wrong = len(slack_cells(top)), slack_mismatches(top)
    else:
        fn, oracle, cell, where = mode, "the knapsack", "(n, d)", f"n <= {top}, d <= 2n"
        want = knapsack(2 * top)[fn == "kk"]
        total = len(cells(top))
        wrong = [(n, d) for n, d in cells(top) if value(getattr(kfun, fn)(n, d)) != want[n][d]]
    print(f"{fn}: {total - len(wrong)} of {total} cells {where} agree with {oracle}"
          f" ({time.perf_counter() - t0:.1f} s)")
    if wrong:
        sys.exit(f"{fn} differs from {oracle} at {cell} = {wrong[:10]}")
