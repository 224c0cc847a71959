import itertools
import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from coisocap import (
    Closed,
    ExtRat,
    ProductObject,
    RAT_INF,
    Spectrum,
    Sphere,
    Stiefel,
    format_pi,
    minimal_action,
    product_spectrum,
    spectrum_of_atom,
    spectrum_sum,
    split_min_action,
)
from coisocap.spectra import assumption_notes

FRACS = sorted({Fraction(p, q) for p in range(4) for q in range(1, 4)})
POSITIVE = [f for f in FRACS if f > 0]


def test_format_pi():
    assert format_pi(Fraction(0)) == "0"
    assert format_pi(Fraction(1)) == "pi"
    assert format_pi(Fraction(2)) == "2pi"
    assert format_pi(Fraction(1, 2)) == "pi/2"
    assert format_pi(Fraction(2, 3)) == "2pi/3"


def test_extrat_order_and_scaling():
    assert ExtRat.fin(Fraction(1, 3)) < ExtRat.fin(1) < RAT_INF
    assert ExtRat(0) == ExtRat.fin(Fraction(0)) < ExtRat.fin(Fraction(1, 3))
    assert ExtRat.fin(Fraction(1, 2)).scaled(Fraction(2, 3)) == ExtRat.fin(Fraction(1, 3))
    assert RAT_INF.scaled(5) == RAT_INF
    assert str(ExtRat.fin(Fraction(2, 3))) == "2pi/3"
    with pytest.raises(ValueError):
        ExtRat.fin(Fraction(-1, 2))
    with pytest.raises(TypeError):
        ExtRat(0.5)


def test_spectrum_normal_form():
    assert Spectrum.from_generators([]) == Spectrum.zero()
    assert Spectrum.from_generators([0, 0]) == Spectrum.zero()
    assert Spectrum.from_generators([Fraction(0)]) == Spectrum.zero()
    assert Spectrum.from_generators([0, Fraction(1, 2)]) == Spectrum.lattice(Fraction(1, 2))
    gens = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
    base = Spectrum.from_generators(gens)
    assert base == Spectrum.lattice(Fraction(1, 12))
    for perm in itertools.permutations(gens):
        assert Spectrum.from_generators(perm) == base
    # renormalizing is the identity
    assert Spectrum.from_generators([base.gen]) == base
    with pytest.raises(ValueError):
        Spectrum.lattice(0)
    with pytest.raises(ValueError):
        Spectrum.from_generators([Fraction(-1, 2)])


def _cross_multiplied_gcd(a, b):
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
                min_size=1, max_size=6))
def test_generator_gcd_matches_the_cross_multiplied_fold(gens):
    got = Spectrum.from_generators(gens)
    assert got == Spectrum(reduce(_cross_multiplied_gcd, gens))
    assert type(got.gen) is Fraction


def test_spectrum_sum_examples():
    pi = Spectrum.lattice(1)
    assert spectrum_sum(pi, pi) == pi
    assert spectrum_sum(Spectrum.lattice(Fraction(1, 2)), Spectrum.lattice(Fraction(1, 3))) \
        == Spectrum.lattice(Fraction(1, 6))
    assert spectrum_sum(Spectrum.zero(), Spectrum.lattice(Fraction(5, 7))) \
        == Spectrum.lattice(Fraction(5, 7))
    assert Spectrum.lattice(2) + Spectrum.lattice(3) == Spectrum.lattice(1)


def test_spectrum_sum_algebra_grid():
    lattices = [Spectrum.lattice(f) for f in POSITIVE] + [Spectrum.zero()]
    for s1, s2 in itertools.product(lattices, repeat=2):
        assert spectrum_sum(s1, s2) == spectrum_sum(s2, s1)
        assert spectrum_sum(s1, s1) == s1
    for s1, s2, s3 in itertools.product(lattices, repeat=3):
        assert spectrum_sum(spectrum_sum(s1, s2), s3) == spectrum_sum(s1, spectrum_sum(s2, s3))


def test_minimal_action():
    assert minimal_action(Spectrum.zero()) == RAT_INF
    assert minimal_action(Spectrum.lattice(1)) == ExtRat.fin(1)
    assert minimal_action(Spectrum.lattice(Fraction(2, 3))) == ExtRat.fin(Fraction(2, 3))


def test_atom_spectra():
    assert spectrum_of_atom(Sphere(2, Fraction(1))) == Spectrum.lattice(1)
    assert spectrum_of_atom(Stiefel(2, 3, Fraction(1))) == Spectrum.lattice(1)
    torus = Closed("T2", 1, Spectrum.zero(), aspherical=True)
    assert spectrum_of_atom(torus) == Spectrum.zero()
    # independence of m for spheres
    for m, a in itertools.product(range(1, 5), POSITIVE):
        assert spectrum_of_atom(Sphere(m, a)) == Spectrum.lattice(a)


def test_atom_validation():
    with pytest.raises(ValueError):
        Sphere(0, Fraction(1))
    with pytest.raises(ValueError):
        Sphere(2, Fraction(0))
    with pytest.raises(ValueError):
        Stiefel(3, 2, Fraction(1))
    with pytest.raises(ValueError):
        Closed("M", 1, Spectrum.lattice(1), aspherical=True)
    with pytest.raises(ValueError):
        Closed("", 1, Spectrum.zero(), aspherical=True)
    with pytest.raises(TypeError):
        Sphere(2, 0.5)


def test_atom_dimensions():
    assert Sphere(2, Fraction(1)).coiso_dim == 3
    assert Sphere(2, Fraction(1)).ambient_half_dim == 2
    assert Stiefel(2, 3, Fraction(1)).coiso_dim == 2 * (6 - 2)
    assert Stiefel(2, 3, Fraction(1)).ambient_half_dim == 6
    torus = Closed("T2", 2, Spectrum.zero(), aspherical=True)
    assert torus.coiso_dim == 4 and torus.ambient_half_dim == 2
    obj = ProductObject((Sphere(2, Fraction(1)), Stiefel(2, 3, Fraction(1)), torus))
    assert obj.coiso_dim == 3 + 8 + 4
    assert obj.ambient_half_dim == 2 + 6 + 2


def test_product_spectrum_examples():
    pi = Fraction(1)
    two_spheres = ProductObject((Sphere(2, pi), Sphere(2, pi)))
    assert product_spectrum(two_spheres) == Spectrum.lattice(1)
    torus = Closed("T2", 1, Spectrum.zero(), aspherical=True)
    with_aspherical = ProductObject((Sphere(2, pi), torus))
    assert product_spectrum(with_aspherical) == Spectrum.lattice(1)
    mixed = ProductObject((Sphere(2, Fraction(1, 2)), Sphere(3, Fraction(1, 3))))
    assert product_spectrum(mixed) == Spectrum.lattice(Fraction(1, 6))


def test_split_min_action_examples():
    pi = Fraction(1)
    assert split_min_action(ProductObject((Sphere(2, pi), Sphere(2, pi)))) == ExtRat.fin(1)
    assert split_min_action(
        ProductObject((Sphere(2, pi), Sphere(3, Fraction(1, 2))))
    ) == ExtRat.fin(Fraction(1, 2))
    torus = Closed("T2", 1, Spectrum.zero(), aspherical=True)
    assert split_min_action(ProductObject((Sphere(2, pi), torus))) == ExtRat.fin(1)
    assert split_min_action(ProductObject((torus,))) == RAT_INF


def test_product_min_action_below_split():
    torus = Closed("T2", 1, Spectrum.zero(), aspherical=True)
    objects = [
        ProductObject((Sphere(2, a), Sphere(3, b)))
        for a, b in itertools.product(POSITIVE, POSITIVE)
    ] + [ProductObject((Sphere(1, a), torus)) for a in POSITIVE]
    for obj in objects:
        assert minimal_action(product_spectrum(obj)) <= split_min_action(obj)


def test_rescaling_property():
    obj = ProductObject((
        Sphere(2, Fraction(1, 2)),
        Stiefel(2, 4, Fraction(3)),
        Closed("S2", 1, Spectrum.lattice(Fraction(2, 3))),
    ))
    for c in POSITIVE:
        scaled = obj.scaled(c)
        assert split_min_action(scaled) == split_min_action(obj).scaled(c)
        assert minimal_action(product_spectrum(scaled)) \
            == minimal_action(product_spectrum(obj)).scaled(c)


def test_product_object_validation():
    with pytest.raises(ValueError):
        ProductObject(())
    with pytest.raises(TypeError):
        ProductObject((Sphere(2, Fraction(1)), "junk"))


def test_assumption_notes():
    plain = ProductObject((Sphere(2, Fraction(1)),))
    assert assumption_notes(plain) == []
    wide = ProductObject((Stiefel(2, 3, Fraction(1, 2)),))
    notes = assumption_notes(wide)
    assert any("rescaling" in n for n in notes)
    assert any("lattice-assumption" in n for n in notes)
    declared = ProductObject((Closed("S2", 1, Spectrum.lattice(1)),))
    assert any("declared" in n for n in assumption_notes(declared))
