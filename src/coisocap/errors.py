"""Exception types shared across the package, the bases of its value
types, the argument rules every layer applies, and the helper that keeps
their messages short.

Arguments are checked once, where they enter: at a public function or a
public constructor.  A value that a layer builds from parts it has
already checked (a sum or scaling of spectra, an interval of a
minimizer's answer) is not checked again; ``trusted`` makes it from its
fields without running its class's ``__init__``.

This module does not import ``fractions`` (which loads ``decimal`` and
``numbers``): an int passes the exact-number rules without it, and any
other value is checked against ``sys.modules``, since no value can be a
``Fraction`` before ``fractions`` has been imported.  ``require_area``,
which returns a ``Fraction``, imports it on a call made before any
``Fraction`` exists."""
from __future__ import annotations

import sys
from operator import attrgetter


class CoisocapError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(CoisocapError, ValueError):
    """An argument violates a stated precondition."""


# Largest n of the naive oracles, and half the largest floor(d) of kk_naive:
# their enumeration grows exponentially with the dimension.  It lives here,
# not in ``oracles``, so that a sweep can state its range without running
# the kernel.
ORACLE_CAP = 12


class CapExceededError(CoisocapError, ValueError):
    """A naive-oracle call exceeds the size cap ``ORACLE_CAP``."""


class ExprParseError(CoisocapError, ValueError):
    """A product-object expression does not match the grammar."""


class IntervalConflictError(CoisocapError, RuntimeError):
    """Two certified bounds contradict each other (lower > upper).

    This is always an internal error: it means the inequality registry
    was combined incorrectly, never that the inputs were bad.
    """


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``object.__setattr__``.  An instance equals only an
    instance of the same class with equal fields, hashes as the tuple of its
    fields, refuses assignment and deletion with ``AttributeError``, and
    copies and pickles by calling its class with its fields in order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # One field value, or the tuple of several: not a descriptor, so an
        # instance reads it unbound.
        cls._values = attrgetter(*cls.__slots__)
        # the slots' own setters, which ``trusted`` calls past __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fields(self) -> tuple:
        values = self._values(self)
        return values if len(self.__slots__) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


def trusted(cls: type[Frozen], *fields) -> Frozen:
    """An instance of the ``Frozen`` class ``cls`` with ``fields`` in slot
    order, made without running ``cls.__init__``: only for fields that
    already pass its checks, such as those a layer builds from checked
    parts."""
    self = object.__new__(cls)
    if len(fields) == 1:  # most such values: set without a loop
        cls._setters[0](self, fields[0])
    else:
        for setter, value in zip(cls._setters, fields):
            setter(self, value)
    return self


class Extended:
    """Base of the ``Frozen`` types extended with infinity, whose field
    ``value`` is None for infinity.  Infinity is above every finite value,
    and only instances of one class are ordered."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value is not None and (other.value is None or self.value < other.value)

    def __le__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other.value is None or (self.value is not None and self.value <= other.value)


def clip(text: str) -> str:
    """``text`` cut to 40 characters plus an ellipsis, for echoing a token
    in an error message."""
    return text if len(text) <= 40 else text[:40] + "\u2026"


def digit_limit() -> int:
    """The most digits an integer may have: ``sys.get_int_max_str_digits()``,
    or its default where the limit is switched off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def check_rational_size(text: str, error: type[ValueError], name: str) -> None:
    """Raise ``error`` when ``Fraction(text)`` could have a numerator or a
    denominator of ``digit_limit()`` digits or more: the one digit-limit
    check of a rational (an area, or the ``d`` of ``kk``).  Such a value
    cannot be printed, and a large exponent (``1e10000000``) takes seconds
    to build, so the token is refused before ``Fraction()``.  Each is
    bounded by the digits of its part of the mantissa plus the exponent.
    """
    limit = digit_limit()
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").lstrip("0") or "0"
    if not exponent.isdecimal():  # Fraction() refuses the token
        return
    size = max(sum(ch.isdecimal() for ch in part) for part in mantissa.split("/"))
    if len(exponent) > len(str(limit)) or size + int(exponent) >= limit:
        raise error(f"{name} needs a numerator and a denominator of fewer than {limit} digits")


def require_int(value, name: str) -> int:
    """``value``, refused with ``TypeError`` unless it is an int (a bool
    is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


def is_fraction(value) -> bool:
    """Whether ``value`` is a ``Fraction``, read without importing ``fractions``."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def require_exact(value, name: str) -> int | Fraction:
    """``value``, refused with ``TypeError`` unless it is an int or a
    Fraction: a float, bool, str or Decimal is never converted."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not (isinstance(value, int) or is_fraction(value)):
        raise TypeError(f"{name} must be an int or Fraction, got {type(value).__name__}")
    return value


def require_n(n) -> int:
    """``n``, refused unless it is an int >= 1."""
    if require_int(n, "n") < 1:
        raise OutOfRangeError("n must be >= 1")
    return n


def require_area(value, name: str, error: type[ValueError] = ValueError) -> Fraction:
    """``value`` as a Fraction, refused unless it is a positive exact
    number; ``error`` is the class of the range refusal."""
    fraction = (sys.modules.get("fractions") or __import__("fractions")).Fraction
    area = value if type(value) is fraction else fraction(require_exact(value, name))
    if area.numerator <= 0:
        raise error(f"{name} must be positive, got {area}")
    return area
