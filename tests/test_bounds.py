from fractions import Fraction

import pytest

from coisocap import (
    BoundInterval,
    Citation,
    Closed,
    ExtRat,
    IntervalConflictError,
    OutOfRangeError,
    ProductObject,
    RAT_INF,
    Spectrum,
    Sphere,
    Stiefel,
    capacity_bounds,
    citation,
    citation_ids,
    energy_bounds,
    keq,
    kk,
    lagrangian_comparison,
    squeeze_bounds,
    width_energy_bound,
)
from coisocap.bounds import _REGISTRY

PI = ExtRat.fin(1)


def ids(cites):
    return [c.id for c in cites]


# ---------------------------------------------------------------------------
# Citation registry and interval sanity
# ---------------------------------------------------------------------------

def test_registry_is_fixed():
    known = citation_ids()
    assert "cor:e-A-Cross" in known
    assert "thm:emb-d-B" in known
    cite = citation("cor:e-A-Cross")
    assert cite.id == "cor:e-A-Cross" and cite.statement
    for cid in known:
        # one shared entry per id, equal to a freshly built one
        assert citation(cid) is citation(cid)
        assert citation(cid) == Citation(cid, _REGISTRY[cid])
    with pytest.raises(KeyError):
        citation("not-a-registered-id")


def test_interval_conflict_is_hard_error():
    with pytest.raises(IntervalConflictError) as err:
        BoundInterval(
            ExtRat.fin(2),
            ExtRat.fin(1),
            (citation("cor:e-w"),),
            (citation("rem:e-Z-2n-a"),),
        )
    assert "cor:e-w" in str(err.value)
    assert "rem:e-Z-2n-a" in str(err.value)
    with pytest.raises(IntervalConflictError):
        BoundInterval(RAT_INF, ExtRat.fin(1), (citation("cor:e-w"),), (citation("cor:e-w"),))


def test_interval_provenance_required_when_nontrivial():
    with pytest.raises(ValueError):
        BoundInterval(ExtRat.fin(1), RAT_INF)  # nontrivial lower, no provenance
    with pytest.raises(ValueError):
        BoundInterval(ExtRat.fin(0), ExtRat.fin(1))  # nontrivial upper, no provenance
    # trivial on both sides is fine
    BoundInterval(ExtRat.fin(0), RAT_INF)


# ---------------------------------------------------------------------------
# Displacement energy
# ---------------------------------------------------------------------------

def test_energy_two_unit_spheres():
    interval = energy_bounds(ProductObject((Sphere(2, Fraction(1)), Sphere(2, Fraction(1)))))
    assert interval.lower == PI and interval.upper == PI
    assert ids(interval.lower_prov) == ["cor:e-A-Cross", "eq:A-min"]
    assert ids(interval.upper_prov) == ["rem:e-M-M'", "rem:e-Z-2n-a"]
    assert interval.witness is None


def test_energy_circle_product_with_closed_sphere():
    obj = ProductObject((
        Sphere(1, Fraction(1)),
        Sphere(1, Fraction(1)),
        Closed("S2", 1, Spectrum.lattice(1)),
    ))
    interval = energy_bounds(obj)
    assert interval.lower == PI and interval.upper == PI


def test_energy_mixed_areas():
    obj = ProductObject((Sphere(2, Fraction(2)), Sphere(3, Fraction(1))))
    interval = energy_bounds(obj)
    assert interval.lower == PI and interval.upper == PI


def test_energy_upper_needs_small_sphere():
    # The closed factor's minimal action is below the least sphere area, so
    # the sharpness argument does not apply and the upper bound is trivial.
    obj = ProductObject((
        Sphere(2, Fraction(1)),
        Closed("S2w", 1, Spectrum.lattice(Fraction(1, 3))),
    ))
    interval = energy_bounds(obj)
    assert interval.lower == ExtRat.fin(Fraction(1, 3))
    assert interval.upper == RAT_INF and interval.upper_prov == ()


def test_energy_upper_blocked_by_wide_frame_manifold():
    obj = ProductObject((Stiefel(2, 3, Fraction(1)), Sphere(2, Fraction(1))))
    interval = energy_bounds(obj)
    assert interval.lower == PI
    assert interval.upper == RAT_INF


def test_energy_unit_frame_manifold_counts_as_sphere():
    # V(1, n; a) is the sphere of area a in C^n.
    obj = ProductObject((Stiefel(1, 3, Fraction(1, 2)),))
    interval = energy_bounds(obj)
    assert interval.lower == ExtRat.fin(Fraction(1, 2))
    assert interval.upper == ExtRat.fin(Fraction(1, 2))


def test_energy_no_spheres_no_upper():
    torus = Closed("T2", 1, Spectrum.zero(), aspherical=True)
    interval = energy_bounds(ProductObject((torus,)))
    assert interval.lower == RAT_INF and interval.upper == RAT_INF


def test_energy_conformality():
    obj = ProductObject((
        Sphere(2, Fraction(1)),
        Sphere(3, Fraction(3, 2)),
        Closed("S2", 1, Spectrum.lattice(2)),
    ))
    base = energy_bounds(obj)
    for c in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        scaled = energy_bounds(obj.scaled(c))
        assert scaled.lower == base.lower.scaled(c)
        assert scaled.upper == base.upper.scaled(c)


# ---------------------------------------------------------------------------
# Regular coisotropic capacity
# ---------------------------------------------------------------------------

def test_capacity_examples():
    top = capacity_bounds(4, 7)
    assert top.lower == PI and top.upper == PI
    mid = capacity_bounds(4, 4)
    assert mid.lower == ExtRat.fin(Fraction(1, 2)) and mid.upper == PI
    assert ids(mid.lower_prov) == ["eq:A-coiso-d-B"]
    assert ids(mid.upper_prov) == ["eq:A-coiso-d-Z", "mono:B-in-Z"]
    with pytest.raises(OutOfRangeError):
        capacity_bounds(3, 2)
    with pytest.raises(OutOfRangeError):
        capacity_bounds(3, 6)


def test_capacity_normalization_sweep():
    for n in range(1, 31):
        interval = capacity_bounds(n, 2 * n - 1)
        assert interval.lower == PI and interval.upper == PI


# ---------------------------------------------------------------------------
# Squeezing constant
# ---------------------------------------------------------------------------

def test_squeeze_examples():
    nine = squeeze_bounds(9, 9)
    assert nine.lower == ExtRat.fin(Fraction(1, 3)) and nine.upper == PI
    assert ids(nine.lower_prov) == ["thm:emb-d-B"]
    assert ids(nine.upper_prov) == ["def:emb-d-B"]
    flat = squeeze_bounds(2, 4)
    assert flat.lower == PI and flat.upper == PI
    four = squeeze_bounds(4, 4)
    assert four.lower == ExtRat.fin(Fraction(1, 2)) and four.upper == PI
    with pytest.raises(OutOfRangeError):
        squeeze_bounds(1, 4)
    with pytest.raises(OutOfRangeError):
        squeeze_bounds(4, 3)


def test_squeeze_accepts_rational_d():
    interval = squeeze_bounds(4, Fraction(9, 2))
    assert interval.lower == ExtRat.fin(Fraction(1, 2))


def test_squeeze_monotone_lower():
    for n in range(2, 11):
        lowers = [squeeze_bounds(n, d).lower for d in range(n, 2 * n + 3)]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))


def test_squeeze_collapse_detection():
    from coisocap import kk, ExtNat

    for n in range(2, 11):
        for d in range(n, 2 * n + 3):
            interval = squeeze_bounds(n, d)
            collapsed = interval.lower == interval.upper == PI
            assert collapsed == (kk(n, d).value == ExtNat(1))
            if d >= 2 * n - 1:
                assert collapsed


def test_minimizer_bounds_carry_the_minimizer_witness():
    # the decomposition whose cost gives the lower endpoint pi / cost
    for n in range(1, 13):
        for d in range(n, 2 * n):
            assert capacity_bounds(n, d).witness == keq(n, d).witness
    for n in range(2, 13):
        for d in range(n, 2 * n + 1):
            assert squeeze_bounds(n, d).witness == kk(n, d).witness


# ---------------------------------------------------------------------------
# Lagrangian comparison and width bound
# ---------------------------------------------------------------------------

def test_lagrangian_examples():
    report = lagrangian_comparison(4, 4)
    assert report.lagrangian_value == Fraction(1, 4)
    assert report.capacity_lower == Fraction(1, 2)
    assert report.strict

    report = lagrangian_comparison(2, 2)
    assert report.lagrangian_value == Fraction(1, 2)
    assert report.capacity_lower == Fraction(1, 2)
    assert not report.strict

    report = lagrangian_comparison(5, 9)
    assert report.lagrangian_value == Fraction(1, 5)
    assert report.capacity_lower == Fraction(1)
    assert report.strict

    with pytest.raises(OutOfRangeError):
        lagrangian_comparison(3, 2)


def test_lagrangian_strict_above_diagonal():
    for n in range(1, 12):
        for d in range(n + 1, 2 * n):
            assert lagrangian_comparison(n, d).strict
    # on the diagonal, strict starts at n = 4
    for n in range(1, 12):
        assert lagrangian_comparison(n, n).strict == (n >= 4)


def test_width_examples():
    both = width_energy_bound(Fraction(2), True)
    assert both.lower == ExtRat.fin(2) and both.upper == ExtRat.fin(2)
    assert ids(both.lower_prov) == ["cor:e-w"]
    assert ids(both.upper_prov) == ["rem:e-M-M'", "rem:e-Z-2n-a"]
    solo = width_energy_bound(Fraction(1), False)
    assert solo.lower == PI and solo.upper == PI
    assert ids(solo.upper_prov) == ["rem:e-Z-2n-a"]
    assert both.witness is None and solo.witness is None
    with pytest.raises(OutOfRangeError):
        width_energy_bound(Fraction(0), True)
    with pytest.raises(TypeError):
        width_energy_bound(0.5, False)


def _lagrangian_reference(n, d):
    """The comparison read straight from keq(n, d), as it was defined
    before it was derived from ``capacity_bounds``."""
    cost = keq(n, d).value.value
    return Fraction(1, n), Fraction(1, cost), n > cost


def test_lagrangian_comparison_matches_keq_reference():
    for n in range(1, 41):
        for d in range(n, 2 * n):
            report = lagrangian_comparison(n, d)
            value, lower, strict = _lagrangian_reference(n, d)
            assert report.lagrangian_value == value
            assert report.capacity_lower == lower
            assert report.strict == strict
