"""Differential tests of the argument fast paths and of the values built
from checked parts without their constructors' checks.

``keq``, ``kk``, ``capacity_bounds`` and ``squeeze_bounds`` take a short
path for plain ints in range.  On drawn n and d (bools, an int subclass,
0, negatives, Fractions and 5,000-digit ints) each either raises the
class and message of the checked path, written out here as it reads
without the fast path, or returns what that path's answer builds through
the public constructors.  ``from_generators``, ``spectrum_sum``, the
``scaled`` methods and ``minimal_action`` equal the values the public
constructors build, with a reduce over ``_fraction_gcd`` as the reference
gcd, and every number they hold is exactly an int or a Fraction.
"""
import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from coisocap import (
    BoundInterval,
    Closed,
    ExtRat,
    OutOfRangeError,
    ProductObject,
    RAT_INF,
    Spectrum,
    Sphere,
    Stiefel,
    capacity_bounds,
    citation,
    keq,
    kk,
    minimal_action,
    spectrum_sum,
    squeeze_bounds,
)
from coisocap.errors import (Frozen, clip, require_area, require_exact, require_int, require_n,
                             trusted)
from coisocap.kfun import _square_mass_search, _witnessed
from coisocap.spectra import _fraction_gcd

SETTINGS = settings(max_examples=300, deadline=None, database=None)

HUGE = 10**4999  # 5,000 digits, past the default int-to-str limit of 4,300


def huge(*offsets):
    """HUGE plus one of ``offsets``, drawn through ``map``: hypothesis
    describes a strategy by its values, which cannot be printed."""
    return st.sampled_from(offsets).map(lambda offset: HUGE + offset)


class Int(int):
    """An int subclass, which every fast path leaves to the checked path."""


def _is_huge(x) -> bool:
    return abs(x) >= HUGE


numbers = st.one_of(
    st.integers(-3, 40),
    st.booleans(),
    st.integers(-3, 40).map(Int),
    st.fractions(-3, 40, max_denominator=5),
    huge(0, 7),
    huge(0).map(lambda big: -big),
    st.sampled_from([0.5, "3", None]),
)


def queries():
    """(n, d) from ``numbers``, leaving out the huge queries that search:
    both n and d huge with d >= n."""
    def searches(query):
        n, d = query
        return not (isinstance(n, (int, Fraction)) and isinstance(d, (int, Fraction))
                    and _is_huge(n) and _is_huge(d) and d >= n)

    return st.tuples(numbers, numbers).filter(searches)


def outcome(call, *args):
    """("ok", value) or ("raised", class, message) of ``call(*args)``."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # noqa: BLE001 - any refusal is compared
        return "raised", type(exc), str(exc)


def leaves(value):
    """The fields of ``value``, through nested ``Frozen`` values and tuples."""
    if isinstance(value, Frozen):
        for name in value.__slots__:
            yield from leaves(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def same(got, want) -> bool:
    """Whether ``got`` equals ``want`` with every field of the same type,
    each number exactly an int or a Fraction (a label is a str and a flag
    a bool): equality alone reads 2 and Fraction(2) as one value."""
    kinds = list(map(type, leaves(got)))
    return (got == want and kinds == list(map(type, leaves(want)))
            and set(kinds) <= {type(None), str, bool, int, Fraction})


def same_outcome(got, want) -> bool:
    """Whether two outcomes are one refusal, or ``same`` answers."""
    if got[0] == want[0] == "ok":
        return same(got[1], want[1])
    return got == want


# ---------------------------------------------------------------------------
# The checked paths, as they read without the fast paths
# ---------------------------------------------------------------------------

def checked_cap(n, d, exact):
    require_int(n, "n")
    (require_int if exact else require_exact)(d, "d")
    require_n(n)
    if d < 0:
        raise OutOfRangeError("d must be >= 0")
    return d if exact else math.floor(d)


def checked_keq(n, d):
    d = checked_cap(n, d, exact=True)
    return _witnessed(_square_mass_search(n, n, d, d))


def checked_kk(n, d):
    dcap = checked_cap(n, d, exact=False)
    return _witnessed(_square_mass_search(n, dcap, 0, dcap))


def _interval(found, lower_ids, upper_ids):
    return BoundInterval(ExtRat.fin(Fraction(1, found.value.value)), ExtRat.fin(1),
                         tuple(map(citation, lower_ids)), tuple(map(citation, upper_ids)),
                         found.witness)


def checked_capacity(n, d):
    require_int(n, "n")
    require_int(d, "d")
    require_n(n)
    if not n <= d <= 2 * n - 1:
        raise OutOfRangeError(
            f"d must satisfy n <= d <= 2n - 1, got (n, d)=({clip(str(n))}, {clip(str(d))})")
    return _interval(checked_keq(n, d), ["eq:A-coiso-d-B"], ["eq:A-coiso-d-Z", "mono:B-in-Z"])


def checked_squeeze(n, d):
    require_int(n, "n")
    require_exact(d, "d")
    if n < 2:
        raise OutOfRangeError("n must be >= 2")
    if d < n:
        raise OutOfRangeError(f"d must be >= n, got (n, d)=({clip(str(n))}, {clip(str(d))})")
    return _interval(checked_kk(n, d), ["thm:emb-d-B"], ["def:emb-d-B"])


def checked_from_generators(gens):
    positive = []
    for g in gens:
        q = require_exact(g, "generators")
        if q.numerator < 0:
            raise ValueError(f"generators must be nonnegative, got {q}")
        if q.numerator > 0:
            positive.append(q)
    return Spectrum(reduce(_fraction_gcd, positive)) if positive else Spectrum.zero()


# ---------------------------------------------------------------------------
# The fast paths against the checked ones
# ---------------------------------------------------------------------------

PAIRS = [(keq, checked_keq), (kk, checked_kk), (capacity_bounds, checked_capacity),
         (squeeze_bounds, checked_squeeze)]


def assert_as_checked(query):
    for fast, checked in PAIRS:
        assert same_outcome(outcome(fast, *query), outcome(checked, *query)), (fast, query)


@SETTINGS
@given(queries())
def test_a_query_refuses_or_answers_as_the_checked_path(query):
    assert_as_checked(query)


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, Int(3), True])
def test_a_query_at_the_range_edges_refuses_or_answers_as_the_checked_path(n):
    # every edge of the four fast paths' ranges: n >= 1 or 2, d >= 0, and
    # the capacity window n <= d <= 2n - 1
    for d in (-2, -1, 0, 1, 2, 3, 4, 5, 6, Fraction(7, 2)):
        assert_as_checked((n, d))


def test_the_drawn_queries_reach_both_paths_and_both_outcomes():
    # plain ints in range take the fast path; every odd type the checked one
    assert outcome(keq, 5, 7) == ("ok", checked_keq(5, 7))
    assert outcome(squeeze_bounds, Int(5), Int(9)) == outcome(checked_squeeze, 5, 9)
    assert outcome(capacity_bounds, True, 1) == ("raised", TypeError,
                                                 "n must be an int, got bool")
    assert outcome(kk, HUGE, 3) == ("ok", checked_kk(HUGE, 3))
    # a refusal that echoes a 5,000-digit int fails on str(), on both paths
    assert outcome(capacity_bounds, HUGE, 3)[:2] == ("raised", ValueError)


# ---------------------------------------------------------------------------
# Spectra built from checked parts
# ---------------------------------------------------------------------------

nonnegative = st.one_of(
    st.integers(0, 60),
    st.fractions(0, 60, max_denominator=12),
    huge(0, 3),
    huge(0).map(lambda big: Fraction(big, 7)),
)
positive = st.one_of(st.integers(1, 60), st.fractions(0, 60, max_denominator=12).filter(bool),
                     huge(0), huge(0).map(lambda big: Fraction(7, big)))
spectra = st.one_of(st.just(Spectrum.zero()), positive.map(Spectrum.lattice))


@SETTINGS
@given(st.lists(st.one_of(nonnegative, numbers), max_size=5))
@example([-1])
@example([0, Fraction(-1, 2)])
@example([0, 0])
@example([Int(4), Fraction(6, 5)])
def test_from_generators_equals_the_gcd_reduce(gens):
    got, want = outcome(Spectrum.from_generators, gens), outcome(checked_from_generators, gens)
    assert same_outcome(got, want)


@SETTINGS
@given(spectra, spectra)
def test_spectrum_sum_and_minimal_action_equal_the_constructors(s1, s2):
    total = spectrum_sum(s1, s2)
    if s1.is_zero or s2.is_zero:
        assert total is (s2 if s1.is_zero else s1)
    else:
        assert same(total, Spectrum(_fraction_gcd(s1.gen, s2.gen)))
    least = minimal_action(total)
    assert same(least, RAT_INF if total.is_zero else ExtRat.fin(total.gen))


def scalings(factor):
    """Each scaled value against the one its public constructor builds."""
    lattice, action = Spectrum.lattice(Fraction(2, 3)), ExtRat.fin(Fraction(5, 2))
    sphere, frames = Sphere(2, Fraction(1, 2)), Stiefel(2, 3, 3)
    closed = Closed("M", 1, Spectrum.lattice(4))
    c = require_area(factor, "scale factor")
    return [
        (lambda: lattice.scaled(factor), lambda: Spectrum.lattice(lattice.gen * c)),
        (lambda: action.scaled(factor), lambda: ExtRat.fin(action.value * c)),
        (lambda: sphere.scaled(factor), lambda: Sphere(2, sphere.area * c)),
        (lambda: frames.scaled(factor), lambda: Stiefel(2, 3, frames.area * c)),
        (lambda: closed.scaled(factor), lambda: Closed("M", 1, Spectrum.lattice(4 * c))),
        (lambda: ProductObject((sphere, frames, closed)).scaled(factor),
         lambda: ProductObject((Sphere(2, sphere.area * c), Stiefel(2, 3, frames.area * c),
                                Closed("M", 1, Spectrum.lattice(4 * c))))),
    ]


@SETTINGS
@given(st.one_of(positive, numbers))
def test_scaled_values_equal_the_constructors_and_refuse_as_require_area(factor):
    refused = outcome(require_area, factor, "scale factor")
    if refused[0] == "raised":
        lattice = Spectrum.lattice(1)
        for value in (lattice, ExtRat.fin(1), Sphere(1, 1), ProductObject((Sphere(1, 1),))):
            assert outcome(value.scaled, factor) == refused
        # {0} and infinity scale to themselves, without reading the factor
        assert Spectrum.zero().scaled(factor) == Spectrum.zero()
        assert RAT_INF.scaled(factor) is RAT_INF
        return
    for scaled, built in scalings(factor):
        assert same(scaled(), built())


def test_same_sees_a_number_of_another_type():
    assert same(Sphere(2, 1), Sphere(2, Fraction(1)))
    assert not same(Sphere(Int(2), 1), Sphere(2, 1))
    assert not same(ExtRat.fin(2), trusted(ExtRat, 2))
