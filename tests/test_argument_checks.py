"""Refusals of bad arguments across kfun, spectra and bounds: exact-number
entry points refuse everything but int and Fraction, and every other
refusal keeps its exception class and message."""
from decimal import Decimal
from fractions import Fraction

import pytest

from coisocap import (
    CapExceededError,
    Closed,
    ExtRat,
    OutOfRangeError,
    ProductObject,
    Spectrum,
    Sphere,
    Stiefel,
    big_k,
    capacity_bounds,
    keq,
    keq_naive,
    kk,
    kk_naive,
    lagrangian_comparison,
    squeeze_bounds,
    width_energy_bound,
)
from coisocap.errors import require_area
from coisocap.kfun import square_cost_naive

ZERO = Spectrum.zero()

EXACT_ENTRY_POINTS = {
    "Spectrum": Spectrum,
    "Spectrum.lattice": Spectrum.lattice,
    "Spectrum.from_generators": lambda x: Spectrum.from_generators([1, x]),
    "ExtRat": ExtRat,
    "ExtRat.fin": ExtRat.fin,
    "Sphere area": lambda x: Sphere(2, x),
    "Stiefel area": lambda x: Stiefel(1, 2, x),
    "Closed spectrum": lambda x: Closed("M", 1, Spectrum.lattice(x)),
    "Spectrum.scaled": lambda x: Spectrum.lattice(1).scaled(x),
    "ExtRat.scaled": lambda x: ExtRat.fin(1).scaled(x),
    "Sphere.scaled": lambda x: Sphere(2, 1).scaled(x),
    "Stiefel.scaled": lambda x: Stiefel(1, 2, 1).scaled(x),
    "Closed.scaled": lambda x: Closed("M", 1, Spectrum.lattice(1)).scaled(x),
    "ProductObject.scaled": lambda x: ProductObject((Sphere(2, 1),)).scaled(x),
    "width_energy_bound": lambda x: width_energy_bound(x, False),
    "kk d": lambda x: kk(1, x),
    "kk_naive d": lambda x: kk_naive(1, x),
    "squeeze_bounds d": lambda x: squeeze_bounds(2, x),
}


@pytest.mark.parametrize("value", [0.5, True, "1/2", Decimal("0.5")],
                         ids=["float", "bool", "str", "Decimal"])
@pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
def test_exact_entry_points_refuse_float_and_bool(entry, value):
    with pytest.raises(TypeError):
        EXACT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", [Spectrum.lattice, ExtRat.fin])
def test_finite_constructors_refuse_none(entry):
    # the plain constructors read None as {0} / infinity
    with pytest.raises(TypeError):
        entry(None)


REFUSALS = [
    # the n/d query checks of the minimizers and their oracles
    *(
        case
        for fn in (keq, kk, keq_naive, kk_naive)
        for case in (
            (fn, (0, 3), OutOfRangeError, "n must be >= 1"),
            (fn, (3, -1), OutOfRangeError, "d must be >= 0"),
            (fn, ("x", "y"), TypeError, "n must be an int, got str"),
        )
    ),
    # types are checked before ranges
    (keq, (0, "x"), TypeError, "d must be an int, got str"),
    (keq_naive, (0, "x"), TypeError, "d must be an int, got str"),
    (kk, (0, "x"), TypeError, "d must be an int or Fraction, got str"),
    (kk_naive, (0, "x"), TypeError, "d must be an int or Fraction, got str"),
    (keq_naive, (13, 20), CapExceededError, "naive oracle capped at n <= 12, got n=13"),
    (kk_naive, (13, 20), CapExceededError, "naive oracle capped at n <= 12, got n=13"),
    # the n cap is checked before the floor(d) cap
    (kk_naive, (13, 25), CapExceededError, "naive oracle capped at n <= 12, got n=13"),
    (kk_naive, (3, 25), CapExceededError,
     "naive oracle capped at floor(d) <= 24, got floor(d)=25"),
    (kk_naive, (3, Fraction(51, 2)), CapExceededError,
     "naive oracle capped at floor(d) <= 24, got floor(d)=25"),
    # the positive-n check
    (big_k, (0,), OutOfRangeError, "n must be >= 1"),
    (big_k, ("x",), TypeError, "n must be an int, got str"),
    (square_cost_naive, (-5,), OutOfRangeError, "n must be >= 1"),
    (square_cost_naive, ("x",), TypeError, "n must be an int, got str"),
    # the capacity window, shared by the Lagrangian comparison
    *(
        case
        for fn in (capacity_bounds, lagrangian_comparison)
        for case in (
            (fn, (0, 0), OutOfRangeError, "n must be >= 1"),
            (fn, (3, 6), OutOfRangeError,
             "d must satisfy n <= d <= 2n - 1, got (n, d)=(3, 6)"),
            (fn, (1, -1), OutOfRangeError,
             "d must satisfy n <= d <= 2n - 1, got (n, d)=(1, -1)"),
            (fn, (0, "x"), TypeError, "d must be an int, got str"),
        )
    ),
    (squeeze_bounds, (0, 3), OutOfRangeError, "n must be >= 2"),
    (squeeze_bounds, (3, Fraction(5, 2)), OutOfRangeError, "d must be >= n, got (n, d)=(3, 5/2)"),
    (squeeze_bounds, (3, "x"), TypeError, "d must be an int or Fraction, got str"),
    (width_energy_bound, (0, False), OutOfRangeError, "ball_area must be positive, got 0"),
    # atoms and spectra
    (Sphere, (0, 1), ValueError, "sphere needs integer m >= 1, got 0"),
    (Sphere, ("2", 1), ValueError, "sphere needs integer m >= 1, got '2'"),
    (Sphere, (2, -1), ValueError, "sphere area must be positive, got -1"),
    (Stiefel, (0, 3, 1), ValueError, "frame manifold needs integer k >= 1, got 0"),
    (Stiefel, (2, True, 1), ValueError, "frame manifold needs integer n >= 1, got True"),
    (Stiefel, (3, 2, 1), ValueError, "frame manifold needs k <= n, got (3, 2)"),
    (Stiefel, (2, 3, 0), ValueError, "frame manifold area must be positive, got 0"),
    (Closed, ("", 1, ZERO), ValueError, "closed factor needs a nonempty label"),
    (Closed, ("M", 0, ZERO), ValueError, "closed factor needs integer half_dim >= 1, got 0"),
    (Closed, ("M", 1, 1), TypeError, "closed factor spectrum must be a Spectrum"),
    (Closed, ("M", 1, Spectrum(1), True), ValueError,
     "an aspherical closed factor must have spectrum {0}"),
    (Spectrum, (0,), ValueError, "lattice generator must be positive, got 0"),
    (Spectrum.from_generators, ([1, -1],), ValueError, "generators must be nonnegative, got -1"),
    (Spectrum.from_generators, ([Fraction(0), Fraction(-1, 2)],), ValueError,
     "generators must be nonnegative, got -1/2"),
    (ExtRat.fin, (-1,), ValueError, "finite ExtRat must be nonnegative"),
    (ExtRat, (-1,), ValueError, "finite ExtRat must be nonnegative"),
    (ExtRat, (Fraction(-1, 3),), ValueError, "finite ExtRat must be nonnegative"),
    (require_area, (0, "area"), ValueError, "area must be positive, got 0"),
    (require_area, (-2, "area"), ValueError, "area must be positive, got -2"),
    (require_area, (Fraction(0), "area"), ValueError, "area must be positive, got 0"),
    (require_area, (Fraction(-3, 2), "area", OutOfRangeError), OutOfRangeError,
     "area must be positive, got -3/2"),
    (Spectrum.lattice(1).scaled, (-2,), ValueError, "scale factor must be positive, got -2"),
]


@pytest.mark.parametrize(
    "fn, args, error, message",
    REFUSALS,
    ids=[f"{getattr(fn, '__qualname__', fn)}{args}" for fn, args, _, _ in REFUSALS],
)
def test_refusal_class_and_message(fn, args, error, message):
    with pytest.raises(Exception) as info:
        fn(*args)
    assert type(info.value) is error
    assert str(info.value) == message
