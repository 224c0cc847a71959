import re
import string
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

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
                "1 2", "1 2pi", "3/2 1", "1  0 pi", "p i", "1e3", "1E3", "1_000", "1.5pi",
                ".5", "+3", "0x10", "\u0661", "2 pi pi", "1/0pi", "pi/0"):
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
        "C(T 2,1;pi)",      # ... of a label
        "C(T2,1;0;as ph)",  # ... of asph
        "C(M',1;pi)",       # a label is a word
        "S(\u0661;pi)",     # digits are ASCII
        "S(1;pi;asph)",     # only a closed factor is aspherical
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


# An independent statement of the token grammar: an ASCII integer, a word,
# or any other single non-blank character.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")
_BLANKS = st.sampled_from(["", " ", "  ", "\t"])
_POSITIVE = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
_LABELS = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_letters + "_"),
    st.text(string.ascii_letters + string.digits + "_", max_size=6),
)
_ATOMS = st.one_of(
    st.builds(Sphere, st.integers(1, 10**4), _POSITIVE),
    st.integers(1, 10**4).flatmap(
        lambda n: st.builds(Stiefel, st.integers(1, n), st.just(n), _POSITIVE)),
    st.builds(Closed, _LABELS, st.integers(1, 10**4), st.builds(Spectrum.lattice, _POSITIVE)),
    st.builds(Closed, _LABELS, st.integers(1, 10**4), st.just(Spectrum.zero()),
              aspherical=st.booleans()),
)
_PRODUCTS = st.lists(_ATOMS, min_size=1, max_size=3).map(ProductObject)


@settings(max_examples=200, deadline=None, database=None)
@given(_PRODUCTS, st.data())
def test_blanks_between_tokens_never_change_the_object(obj, data):
    tokens = _TOKEN.findall(format_product(obj))
    blanks = data.draw(st.lists(_BLANKS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(blank + token for blank, token in zip(blanks, tokens + [""]))
    assert parse_product(text) == obj


@settings(max_examples=200, deadline=None, database=None)
@given(_PRODUCTS, st.data())
def test_a_blank_inside_a_token_is_a_parse_error(obj, data):
    # the tokens of two or more characters are integers, "pi", "asph" and labels
    text = format_product(obj)
    spans = [m.span() for m in _TOKEN.finditer(text) if m.end() - m.start() > 1]
    assume(spans)
    start, end = data.draw(st.sampled_from(spans))
    cut = data.draw(st.integers(start + 1, end - 1))
    with pytest.raises(ExprParseError):
        parse_product(text[:cut] + data.draw(st.sampled_from([" ", "\t"])) + text[cut:])
