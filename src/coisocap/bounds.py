"""Provenance-tagged bound intervals built from a fixed inequality registry.

Every emitted endpoint is backed by citations into ``CITATIONS``, a frozen
registry of the certified inequalities this engine is allowed to combine.
The engine never invents a bound: when the hypotheses of the registered
sharpness arguments fail, the corresponding endpoint degrades to the
trivial bound (lower 0 / upper infinity) rather than to a guess.

Intervals are sanity-checked on construction; a crossed interval means two
registered inequalities were combined inconsistently and raises
``IntervalConflictError`` naming both provenance chains.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (Frozen, IntervalConflictError, OutOfRangeError, clip, require_area,
                     require_exact, require_int, require_n, trusted)
from . import kfun
from .spectra import (
    Closed,
    ExtRat,
    ProductObject,
    RAT_INF,
    Sphere,
    Stiefel,
    minimal_action,
    split_min_action,
)


class Citation(Frozen):
    """A stable registry key plus the inequality it stands for."""

    __slots__ = ("id", "statement")

    def __init__(self, id: str, statement: str) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "statement", statement)


_REGISTRY: dict[str, str] = {
    "cor:e-A-Cross": "the displacement energy of a subset of a bounded ambient"
    " manifold is at least its split minimal coisotropic action",
    "eq:A-min": "for a product of spheres and closed factors, the split minimal"
    " action is at least the least of the sphere areas and closed minimal"
    " actions",
    "rem:e-M-M'": "displacement energy does not increase under stabilization by"
    " a closed factor: e(X x M', M x M') <= e(X, M)",
    "rem:e-Z-2n-a": "a cylinder of area a displaces in R^(2n) with energy at"
    " most a",
    "eq:A-coiso-d-B": "the dimension-d regular coisotropic capacity of the unit"
    " ball is at least pi divided by the exact decomposition cost at (n, d)",
    "eq:A-coiso-d-Z": "the dimension-d regular coisotropic capacity of the unit"
    " cylinder is at most pi",
    "mono:B-in-Z": "capacity monotonicity applied to the inclusion of the unit"
    " ball in the unit cylinder",
    "thm:emb-d-B": "the dimension-d squeezing constant of the unit ball is at"
    " least pi divided by the relaxed decomposition cost at (n, d)",
    "def:emb-d-B": "the dimension-d squeezing constant of the unit ball is at"
    " most pi, directly from its definition",
    "cor:e-w": "the displacement energy of a stabilized open set is at least"
    " its Gromov width",
    "eq:c-L": "the Lagrangian capacity of the unit ball equals pi / n",
}


# One shared, immutable Citation per registry entry.
_CITATIONS = {cid: Citation(cid, text) for cid, text in _REGISTRY.items()}


def citation(cid: str) -> Citation:
    """Look up a registry entry; unknown ids are a programming error."""
    return _CITATIONS[cid]


def citation_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


_ZERO = ExtRat.fin(0)


class BoundInterval(Frozen):
    """Certified enclosure [lower, upper] with per-side provenance, and the
    decomposition behind a lower endpoint of the form pi / cost (None for
    the other bounds)."""

    __slots__ = ("lower", "upper", "lower_prov", "upper_prov", "witness")

    def __init__(self, lower: ExtRat, upper: ExtRat, lower_prov: tuple[Citation, ...] = (),
                 upper_prov: tuple[Citation, ...] = (),
                 witness: kfun.Decomposition | None = None) -> None:
        if upper < lower:
            lo = ", ".join(c.id for c in lower_prov) or "<none>"
            hi = ", ".join(c.id for c in upper_prov) or "<none>"
            raise IntervalConflictError(
                f"crossed interval [{lower}, {upper}]:"
                f" lower backed by [{lo}], upper backed by [{hi}]"
            )
        if lower != _ZERO and not lower_prov:
            raise ValueError("nontrivial lower bound requires provenance")
        if upper.is_finite and not upper_prov:
            raise ValueError("nontrivial upper bound requires provenance")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower_prov", lower_prov)
        object.__setattr__(self, "upper_prov", upper_prov)
        object.__setattr__(self, "witness", witness)


def energy_bounds(obj: ProductObject) -> BoundInterval:
    """Displacement-energy interval for a product of atoms in the standard
    ambient space R^(2n) x (closed factors).

    Lower endpoint: the finest-splitting minimal action.  Upper endpoint:
    the least sphere area, provided the registered sharpness argument
    applies (at least one sphere factor, the least sphere area does not
    exceed any closed factor's minimal action, and no frame-manifold
    factor with k >= 2 is present); otherwise infinity.  A frame manifold
    with k == 1 is the sphere S^(2n-1) of the same area and is treated as
    a sphere factor.
    """
    lower = split_min_action(obj)
    lower_prov = (citation("cor:e-A-Cross"), citation("eq:A-min"))
    sphere_areas = [
        a.area
        for a in obj.atoms
        if isinstance(a, Sphere) or (isinstance(a, Stiefel) and a.k == 1)
    ]
    wide_frames = any(isinstance(a, Stiefel) and a.k >= 2 for a in obj.atoms)
    upper, upper_prov = RAT_INF, ()
    if sphere_areas and not wide_frames:
        a_min = ExtRat.fin(min(sphere_areas))
        closed_ok = all(
            a_min <= minimal_action(a.spectrum)
            for a in obj.atoms
            if isinstance(a, Closed)
        )
        if closed_ok:
            upper = a_min
            upper_prov = (citation("rem:e-M-M'"), citation("rem:e-Z-2n-a"))
    return BoundInterval(lower, upper, lower_prov, upper_prov)


_ONE = ExtRat.fin(1)


@lru_cache(maxsize=64)
def _reciprocal(cost: int) -> ExtRat:
    """1/cost, made once per cost: a sweep's many cells share a few costs."""
    return ExtRat.fin(Fraction(1, cost))


# The (lower, upper) provenance of the capacity and squeeze intervals.
_CAPACITY_PROV = (citation("eq:A-coiso-d-B"),), (citation("eq:A-coiso-d-Z"),
                                                 citation("mono:B-in-Z"))
_SQUEEZE_PROV = (citation("thm:emb-d-B"),), (citation("def:emb-d-B"),)


def _reciprocal_interval(found: kfun.WitnessedValue,
                         provenance: tuple[tuple[Citation, ...], ...]) -> BoundInterval:
    """The interval [1/cost, 1] for a finite minimizer value, witnessed by
    its decomposition.  A cost is at least 1, so the interval neither
    crosses nor lacks provenance, and is built without those checks."""
    assert found.value.is_finite  # guaranteed by the callers' argument checks
    return trusted(BoundInterval, _reciprocal(found.value.value), _ONE, *provenance,
                   found.witness)


def capacity_bounds(n: int, d: int) -> BoundInterval:
    """Interval for the dimension-d regular coisotropic capacity of the unit
    ball B^(2n), valid on the capacity window n <= d <= 2n - 1."""
    if not (type(n) is int and type(d) is int and 1 <= n <= d <= 2 * n - 1):
        require_int(n, "n")
        require_int(d, "d")
        require_n(n)
        if not n <= d <= 2 * n - 1:
            raise OutOfRangeError(
                f"d must satisfy n <= d <= 2n - 1, got (n, d)=({clip(str(n))}, {clip(str(d))})"
            )
    return _reciprocal_interval(kfun.keq(n, d), _CAPACITY_PROV)


def squeeze_bounds(n: int, d: int | Fraction) -> BoundInterval:
    """Interval for the dimension-d squeezing constant of the unit ball,
    for n >= 2 and d >= n."""
    if not (type(n) is int and type(d) is int and 2 <= n <= d):
        require_int(n, "n")
        require_exact(d, "d")
        if n < 2:
            raise OutOfRangeError("n must be >= 2")
        if d < n:
            raise OutOfRangeError(
                f"d must be >= n, got (n, d)=({clip(str(n))}, {clip(str(d))})"
            )
    return _reciprocal_interval(kfun.kk(n, d), _SQUEEZE_PROV)


class LagrangianComparison(Frozen):
    """Lagrangian capacity of the unit ball against the capacity lower
    bound at (n, d); ``strict`` records whether the lower bound already
    exceeds the Lagrangian value."""

    __slots__ = ("lagrangian_value", "capacity_lower", "strict")

    def __init__(self, lagrangian_value: Fraction, capacity_lower: Fraction,
                 strict: bool) -> None:
        object.__setattr__(self, "lagrangian_value", lagrangian_value)
        object.__setattr__(self, "capacity_lower", capacity_lower)
        object.__setattr__(self, "strict", strict)


def lagrangian_comparison(n: int, d: int) -> LagrangianComparison:
    """Compare pi/n with the lower endpoint pi / keq(n, d) of
    ``capacity_bounds(n, d)``, which also checks the arguments.

    The comparison is strict exactly when n exceeds the exact decomposition
    cost; for d > n this always holds, for d = n it first holds at n = 4.
    """
    lower = capacity_bounds(n, d).lower.value
    return LagrangianComparison(Fraction(1, n), lower, Fraction(1, n) < lower)


def width_energy_bound(ball_area, has_closed_aspherical_factor: bool) -> BoundInterval:
    """Displacement-energy interval for a ball of the given area, optionally
    stabilized by a closed aspherical factor.

    The lower endpoint is the Gromov width of the ball (its area).  The
    input is itself a ball, which is exactly the case where the sharpness
    construction applies, so the upper endpoint equals the area as well;
    the stabilization remark enters the upper provenance only when a
    closed factor is present.
    """
    value = ExtRat.fin(require_area(ball_area, "ball_area", OutOfRangeError))
    if has_closed_aspherical_factor:
        upper_prov = (citation("rem:e-M-M'"), citation("rem:e-Z-2n-a"))
    else:
        upper_prov = (citation("rem:e-Z-2n-a"),)
    return BoundInterval(value, value, (citation("cor:e-w"),), upper_prov)
