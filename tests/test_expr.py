from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coisocap import (
    Closed,
    ExprParseError,
    ProductObject,
    Spectrum,
    Sphere,
    Stiefel,
    format_pi,
    format_product,
    parse_area,
    parse_product,
)
from coisocap.expr import parse_atom


def test_parse_area_forms():
    assert parse_area("pi") == Fraction(1)
    assert parse_area("pi/2") == Fraction(1, 2)
    assert parse_area("2pi") == Fraction(2)
    assert parse_area("3pi/2") == Fraction(3, 2)
    assert parse_area("3/2pi") == Fraction(3, 2)
    assert parse_area("3/2") == Fraction(3, 2)
    assert parse_area("2") == Fraction(2)
    assert parse_area(" 2 * pi ") == Fraction(2)
    assert parse_area("2*pi/3") == Fraction(2, 3)
    assert parse_area("3/2*pi") == Fraction(3, 2)
    assert parse_area("0") == Fraction(0)


def test_parse_area_rejects_junk():
    for bad in ("", "pi pi", "pipi", "two", "1/0", "-pi", "-1/2", "2pi3", "1/pi2", "pi3/2",
                "2*3", "2*3pi", "3*2", "*2", "2**pi", "pi*", "*pi", "/2", "/2pi",
                "1 2", "1 2pi", "3/2 1", "1  0 pi"):
        with pytest.raises(ExprParseError):
            parse_area(bad)


@settings(max_examples=200, deadline=None, database=None)
@given(st.fractions(min_value=0))
def test_parse_area_reads_back_every_written_area(q):
    assert parse_area(format_pi(q)) == q
    assert parse_area(f"{q.numerator}*pi/{q.denominator}") == q


def test_parse_atoms():
    assert parse_atom("S(2;pi)") == Sphere(2, Fraction(1))
    assert parse_atom("S(3; pi/2)") == Sphere(3, Fraction(1, 2))
    assert parse_atom("V(2,3;pi)") == Stiefel(2, 3, Fraction(1))
    assert parse_atom("C(T2,1;0;asph)") == Closed("T2", 1, Spectrum.zero(), aspherical=True)
    assert parse_atom("C(S2,1;pi)") == Closed("S2", 1, Spectrum.lattice(1))
    assert parse_atom("C(M,2;2pi/3)") == Closed("M", 2, Spectrum.lattice(Fraction(2, 3)))
    assert parse_atom("S(1;3 pi)") == parse_atom("S(1;3 * pi) ") == Sphere(1, Fraction(3))
    assert parse_atom(" S( 2 ; pi )") == Sphere(2, Fraction(1))


def test_parse_atom_rejects_bad_factors():
    for bad in (
        "S(0;pi)",          # m < 1
        "S(2;0)",           # zero area
        "V(3,2;pi)",        # k > n
        "C(M,1;pi;asph)",   # aspherical with nonzero spectrum
        "T(1;pi)",          # unknown head
        "S(2,pi)",          # wrong separator
        "S(1 0;pi)",        # blanks between the digits of m
        "S(1;1 2pi)",       # ... of an area
        "V(1,2 3;pi)",      # ... of n
        "C(M,1;1\t2)",      # a tab is a blank too
    ):
        with pytest.raises(ExprParseError):
            parse_atom(bad)


def test_parse_product():
    obj = parse_product("S(2;pi) x S(2;pi)")
    assert obj == ProductObject((Sphere(2, Fraction(1)), Sphere(2, Fraction(1))))
    obj = parse_product("S(1;pi)xS(1;pi)xC(S2,1;pi)")
    assert obj.atoms[2] == Closed("S2", 1, Spectrum.lattice(1))
    with pytest.raises(ExprParseError):
        parse_product("S(2;pi) x")
    with pytest.raises(ExprParseError):
        parse_product("")
    with pytest.raises(ExprParseError):
        parse_product("S(2;pi")


def test_round_trip():
    samples = (
        "S(2;pi)",
        "S(2;pi) x S(3;pi/2)",
        "V(2,3;2pi/3) x C(T2,1;0;asph)",
        "S(1;3pi/2) x C(S2w,1;pi/3) x V(1,4;pi)",
    )
    for text in samples:
        obj = parse_product(text)
        canonical = format_product(obj)
        assert parse_product(canonical) == obj
        # canonical form is a fixed point
        assert format_product(parse_product(canonical)) == canonical
