"""Property tests of the minimizers on random (n, d), rational d included.

For n <= 300 the witnesses pass the raw audits, carry the value as their
cost, and the values respect the feasibility windows, the domination
keq >= kk and the monotonicity of kk in d.  For n <= 12 the values and
witnesses equal those of the exhaustive oracles.  The slack step of the
kernel, which gives up early above the Frobenius bound, agrees with a
plain scan over an exhaustive membership table.
"""
import math

from hypothesis import given, settings, strategies as st

from coisocap import keq, keq_naive, kk, kk_naive
from coisocap.kfun import (
    _least_total,
    _monoid,
    is_valid_exact_witness,
    is_valid_relaxed_witness,
)

SETTINGS = settings(max_examples=200, deadline=None, database=None)


@st.composite
def queries(draw, nmax, dmax=None):
    """(n, d, d2) with d <= d2 <= 2n + 2 (and <= dmax), each an int or a
    Fraction."""
    n = draw(st.integers(1, nmax))
    top = 2 * n + 2 if dmax is None else min(2 * n + 2, dmax)

    def ds(lo):
        return st.one_of(st.integers(math.ceil(lo), top),
                         st.fractions(lo, top, max_denominator=6))

    d = draw(ds(0))
    return n, d, draw(ds(d))


def _key(result):
    return result.witness and result.witness.key()


@SETTINGS
@given(queries(300))
def test_witnesses_windows_and_order(query):
    n, d, d2 = query
    dint = math.floor(d)
    exact, relaxed = keq(n, dint), kk(n, d)
    assert exact.value.is_finite == (n <= dint <= 2 * n - 1)
    assert relaxed.value.is_finite == (dint >= n)
    if exact.value.is_finite:
        assert is_valid_exact_witness(exact.witness, n, dint)
        assert exact.witness.cost == exact.value.value
    if relaxed.value.is_finite:
        assert is_valid_relaxed_witness(relaxed.witness, n, d)
        assert relaxed.witness.cost == relaxed.value.value
    assert exact.value >= relaxed.value
    assert relaxed.value >= kk(n, d2).value


@SETTINGS
@given(queries(12, dmax=24))
def test_agrees_with_the_oracles(query):
    n, d, _ = query
    dint = math.floor(d)
    for fast, slow in ((keq(n, dint), keq_naive(n, dint)), (kk(n, d), kk_naive(n, d))):
        assert (fast.value, _key(fast)) == (slow.value, _key(slow))


@SETTINGS
@given(st.sets(st.integers(1, 30), min_size=1, max_size=3), st.integers(1, 30),
       st.integers(0, 3000), st.integers(0, 40))
def test_least_slack_total_matches_a_scan(gens, k, lo, width):
    hi = lo + width
    member = bytearray(hi + 1)
    member[0] = 1
    for x in range(1, hi + 1):
        member[x] = any(a <= x and member[x - a] for a in gens)
    want = next((u for u in range(hi // k + 1)
                 if any(member[max(lo - k * u, 0):hi - k * u + 1])), None)
    assert _least_total(k, lo, hi, _monoid(tuple(sorted(gens, reverse=True)))) == want
