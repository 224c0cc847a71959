"""Action-spectrum lattice algebra for products of symbolic factors.

Factors are odd spheres ``S(m; a)`` (the sphere S^(2m-1) of area a inside
R^(2m)), frame manifolds ``V(k, n; a)`` (complex k x n matrices T with
T T* = (a/pi) * identity), and user-declared closed factors.  Areas and
actions are exact rationals measured in units of pi.

Every spectrum arising from these factors is either the trivial group {0}
or a lattice g*Z with g > 0 rational; the ``Spectrum`` type is restricted
to exactly these two shapes and group sums are computed by rational gcd.

Constructors and public functions check their arguments; a spectrum,
action or atom they build from checked parts (a sum, a scaling, a
minimal action) is made with ``errors.trusted``, and only a scale factor
is checked again.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .errors import Extended, Frozen, clip, require_area, require_exact, trusted

RatPi = Fraction  # rational multiple of pi


def format_pi(q: Fraction) -> str:
    """Render a rational multiple of pi ("0", "pi", "2pi/3", ...)."""
    if q < 0:
        raise ValueError("negative multiples of pi are not used here")
    if q == 0:
        return "0"
    head = "pi" if q.numerator == 1 else f"{q.numerator}pi"
    return head if q.denominator == 1 else f"{head}/{q.denominator}"


def _require_count(value, owner: str, name: str) -> None:
    """Refuse a ``name`` of ``owner`` that is not an int >= 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{owner} needs integer {name} >= 1, got {clip(repr(value))}")


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd(p/q, r/s) = gcd(p, r) / lcm(q, s) for fractions in lowest terms."""
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


class Spectrum(Frozen):
    """The trivial group {0} (``gen is None``) or the lattice gen * Z."""

    __slots__ = ("gen",)

    def __init__(self, gen: Fraction | None) -> None:
        if gen is not None:
            gen = require_area(gen, "lattice generator")
        object.__setattr__(self, "gen", gen)

    @classmethod
    def zero(cls) -> "Spectrum":
        return cls(None)

    @classmethod
    def lattice(cls, gen) -> "Spectrum":
        # require_exact also refuses None, which the constructor reads as {0}
        return cls(require_exact(gen, "lattice generator"))

    @classmethod
    def from_generators(cls, gens: Iterable) -> "Spectrum":
        """Normal form of the group generated by the given multiples of pi:
        gcd-lattice of the positive generators, {0} if there are none.

        As for two (``_fraction_gcd``), the gcd of fractions in lowest terms
        is the gcd of their numerators over the lcm of their denominators;
        a zero generator, 0/1, changes neither."""
        num, den = 0, 1
        for g in gens:
            q = require_exact(g, "generators")
            p = q.numerator
            if p < 0:
                raise ValueError(f"generators must be nonnegative, got {q}")
            num, den = gcd(num, p), lcm(den, q.denominator)
        return trusted(cls, Fraction(num, den)) if num else cls.zero()

    @property
    def is_zero(self) -> bool:
        return self.gen is None

    def scaled(self, factor) -> "Spectrum":
        if self.gen is None:
            return self
        return trusted(Spectrum, self.gen * require_area(factor, "scale factor"))

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return spectrum_sum(self, other)

    def __str__(self) -> str:
        return "{0}" if self.gen is None else f"{format_pi(self.gen)}*Z"


class ExtRat(Extended, Frozen):
    """A nonnegative rational (in units of pi) extended with infinity."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction | None) -> None:
        if value is not None:
            if type(value) is not Fraction:
                value = Fraction(require_exact(value, "finite ExtRat"))
            if value.numerator < 0:
                raise ValueError("finite ExtRat must be nonnegative")
        object.__setattr__(self, "value", value)

    @classmethod
    def fin(cls, value) -> "ExtRat":
        # require_exact also refuses None, which the constructor reads as infinity
        return cls(require_exact(value, "finite ExtRat"))

    def scaled(self, factor) -> "ExtRat":
        if self.value is None:
            return self
        return trusted(ExtRat, self.value * require_area(factor, "scale factor"))

    def __str__(self) -> str:
        return "inf" if self.value is None else format_pi(self.value)


RAT_INF = ExtRat(None)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class Sphere(Frozen):
    """The sphere S^(2m-1) of area ``area`` inside R^(2m)."""

    __slots__ = ("m", "area")

    def __init__(self, m: int, area: Fraction) -> None:
        _require_count(m, "sphere", "m")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "area", require_area(area, "sphere area"))

    @property
    def coiso_dim(self) -> int:
        return 2 * self.m - 1

    @property
    def ambient_half_dim(self) -> int:
        return self.m

    def scaled(self, factor) -> "Sphere":
        return trusted(Sphere, self.m, self.area * require_area(factor, "scale factor"))

    def __str__(self) -> str:
        return f"S({self.m};{format_pi(self.area)})"


class Stiefel(Frozen):
    """The frame manifold V(k, n; area) inside C^(k x n), 1 <= k <= n."""

    __slots__ = ("k", "n", "area")

    def __init__(self, k: int, n: int, area: Fraction) -> None:
        _require_count(k, "frame manifold", "k")
        _require_count(n, "frame manifold", "n")
        if k > n:
            raise ValueError(f"frame manifold needs k <= n, got ({clip(str(k))}, {clip(str(n))})")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "area", require_area(area, "frame manifold area"))

    @property
    def coiso_dim(self) -> int:
        return self.k * (2 * self.n - self.k)

    @property
    def ambient_half_dim(self) -> int:
        return self.k * self.n

    def scaled(self, factor) -> "Stiefel":
        return trusted(Stiefel, self.k, self.n,
                       self.area * require_area(factor, "scale factor"))

    def __str__(self) -> str:
        return f"V({self.k},{self.n};{format_pi(self.area)})"


class Closed(Frozen):
    """A closed symplectic factor with a user-declared spectrum.

    The spectrum is taken on trust; an aspherical factor must declare the
    trivial spectrum.  Nothing geometric is verified here.
    """

    __slots__ = ("label", "half_dim", "spectrum", "aspherical")

    def __init__(self, label: str, half_dim: int, spectrum: Spectrum,
                 aspherical: bool = False) -> None:
        if not label:
            raise ValueError("closed factor needs a nonempty label")
        _require_count(half_dim, "closed factor", "half_dim")
        if not isinstance(spectrum, Spectrum):
            raise TypeError("closed factor spectrum must be a Spectrum")
        if aspherical and not spectrum.is_zero:
            raise ValueError("an aspherical closed factor must have spectrum {0}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "half_dim", half_dim)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "aspherical", aspherical)

    @property
    def coiso_dim(self) -> int:
        return 2 * self.half_dim

    @property
    def ambient_half_dim(self) -> int:
        return self.half_dim

    def scaled(self, factor) -> "Closed":
        return trusted(Closed, self.label, self.half_dim, self.spectrum.scaled(factor),
                       self.aspherical)

    def __str__(self) -> str:
        gen = "0" if self.spectrum.is_zero else format_pi(self.spectrum.gen)
        tail = ";asph" if self.aspherical else ""
        return f"C({self.label},{self.half_dim};{gen}{tail})"


CoisotropicAtom = Sphere | Stiefel | Closed


class ProductObject(Frozen):
    """A nonempty ordered product of atoms."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[CoisotropicAtom]) -> None:
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("product object must contain at least one atom")
        for atom in atoms:
            if not isinstance(atom, (Sphere, Stiefel, Closed)):
                raise TypeError(f"not a coisotropic atom: {atom!r}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def coiso_dim(self) -> int:
        return sum(a.coiso_dim for a in self.atoms)

    @property
    def ambient_half_dim(self) -> int:
        return sum(a.ambient_half_dim for a in self.atoms)

    def scaled(self, factor) -> "ProductObject":
        return trusted(ProductObject, tuple(a.scaled(factor) for a in self.atoms))

    def __str__(self) -> str:
        return " x ".join(str(a) for a in self.atoms)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def spectrum_of_atom(atom: CoisotropicAtom) -> Spectrum:
    """Spectrum of a single factor: the area lattice for spheres and frame
    manifolds (general areas by linear rescaling of the unit-area case),
    the declared spectrum for closed factors."""
    if isinstance(atom, (Sphere, Stiefel)):
        return trusted(Spectrum, atom.area)
    if isinstance(atom, Closed):
        return atom.spectrum
    raise TypeError(f"not a coisotropic atom: {atom!r}")


def spectrum_sum(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Group sum; {0} is the identity and lattices combine by rational gcd."""
    if s1.is_zero:
        return s2
    if s2.is_zero:
        return s1
    return trusted(Spectrum, _fraction_gcd(s1.gen, s2.gen))


def minimal_action(s: Spectrum) -> ExtRat:
    """Infimum of the positive part of the spectrum (infinity for {0})."""
    if s.is_zero:
        return RAT_INF
    return trusted(ExtRat, s.gen)


def product_spectrum(obj: ProductObject) -> Spectrum:
    """Spectrum of the product: the sum of the factor spectra."""
    acc = Spectrum.zero()
    for atom in obj.atoms:
        acc = spectrum_sum(acc, spectrum_of_atom(atom))
    return acc


def split_min_action(obj: ProductObject) -> ExtRat:
    """Finest-splitting value: the minimum of the factor minimal actions.

    This is a certified lower bound for the split minimal action of the
    product, hence for its displacement energy.
    """
    return min(minimal_action(spectrum_of_atom(a)) for a in obj.atoms)


def assumption_notes(obj: ProductObject) -> list[str]:
    """Trust assumptions behind spectra of the given object, for reporting."""
    notes = []
    if any(isinstance(a, Stiefel) and a.area != 1 for a in obj.atoms):
        notes.append(
            "stiefel-rescaling: spectra of frame manifolds with area != pi are"
            " obtained from the unit-area case by linear rescaling"
        )
    if any(isinstance(a, Stiefel) and a.k >= 2 for a in obj.atoms):
        notes.append(
            "stiefel-lattice-assumption: for k >= 2 only the minimal action of"
            " V(k,n;a) is certified; the full lattice a*Z is an assumption"
        )
    if any(isinstance(a, Closed) for a in obj.atoms):
        notes.append(
            "closed-factor-declared: spectra of closed factors are taken on"
            " trust as declared"
        )
    return notes
