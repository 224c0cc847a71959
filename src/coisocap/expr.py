"""Text grammar for product objects, shared by the CLI and tests.

Grammar (factors joined by ``x``; blanks are dropped, except that blanks
between two digits are a parse error, so ``1 0`` is not read as ``10``):

    product  = factor { "x" factor }
    factor   = "S(" m ";" area ")"                       sphere S^(2m-1)
             | "V(" k "," n ";" area ")"                 frame manifold
             | "C(" label "," halfdim ";" gen [";asph"] ")"   closed factor
    area     = rational with an optional "pi" that ends its numerator, where
               "pi" alone is 1, or the whole token; a "*" may join only a
               nonempty coefficient to that "pi" ("pi", "pi/2", "3pi/2",
               "3*pi/2", "3/2pi", "3/2*pi", "3/2", ...)
    gen      = "0" (trivial spectrum) | area (lattice generator)

Areas are measured in units of pi, so a bare rational and the same
rational with a "pi" suffix parse identically.  ``format_product`` writes
the canonical form; parsing it back returns an equal object.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ExprParseError, clip
from .spectra import Closed, ProductObject, Sphere, Spectrum, Stiefel

_SPHERE_RE = re.compile(r"^S\((\d+);([^;]+)\)$")
_STIEFEL_RE = re.compile(r"^V\((\d+),(\d+);([^;]+)\)$")
_CLOSED_RE = re.compile(r"^C\(([^,;()]+),(\d+);([^;]+?)(;asph)?\)$")
_DIGIT_GAP_RE = re.compile(r"\d\s+\d")


def _digit_limit() -> int:
    """The most digits an integer may have: ``sys.get_int_max_str_digits()``,
    or its default where the limit is switched off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def check_rational_size(text: str, error: type[ValueError], name: str) -> None:
    """Raise ``error`` when ``Fraction(text)`` could have a numerator or a
    denominator of ``_digit_limit()`` digits or more.

    Such a value cannot be printed, and a large exponent (``1e10000000``)
    takes seconds to build, so the token is refused before ``Fraction()``.
    Each is bounded by the digits of its part of the mantissa plus the
    size of the exponent.
    """
    limit = _digit_limit()
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
    if not exponent.isdecimal():  # Fraction() refuses the token
        return
    size = max(sum(ch.isdecimal() for ch in part) for part in mantissa.split("/"))
    if len(exponent) > len(str(limit)) or size + int(exponent) >= limit:
        raise error(f"{name} needs a numerator and a denominator of fewer than {limit} digits")


def _parse_int(digits: str, name: str) -> int:
    """An integer field of the grammar, refused like an oversized rational
    when it has ``_digit_limit()`` digits or more."""
    limit = _digit_limit()
    if len(digits) >= limit:
        raise ExprParseError(f"{name} needs fewer than {limit} digits")
    return int(digits)


def parse_area(text: str) -> Fraction:
    """Parse a nonnegative rational in units of pi."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ExprParseError("empty area")
    if _DIGIT_GAP_RE.search(text):
        raise ExprParseError(f"bad area {clip(text)!r}")
    # "pi" may end the numerator, where "pi" alone stands for 1, or the whole
    # token; a "*" may stand only between a nonempty coefficient and that "pi"
    coef, pi, rest = s.partition("pi")
    if pi and rest[:1] in ("", "/"):
        if coef != "*":
            coef = coef.removesuffix("*") or "1"
        s = coef + rest
    check_rational_size(s, ExprParseError, "area")
    try:
        value = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprParseError(f"bad area {clip(text)!r}") from exc
    if value < 0:
        raise ExprParseError(f"area must be nonnegative, got {clip(text)!r}")
    return value


def _split_factors(text: str) -> list[str]:
    # Split on 'x' at parenthesis depth 0 only.
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ExprParseError(f"unbalanced parentheses in {clip(text)!r}")
        if ch == "x" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ExprParseError(f"unbalanced parentheses in {clip(text)!r}")
    parts.append("".join(current))
    return parts


def parse_atom(text: str):
    """Parse a single factor."""
    if _DIGIT_GAP_RE.search(text):
        raise ExprParseError(f"unrecognized factor {clip(text.strip())!r}")
    s = "".join(text.split())
    try:
        match = _SPHERE_RE.match(s)
        if match:
            return Sphere(_parse_int(match.group(1), "m"), parse_area(match.group(2)))
        match = _STIEFEL_RE.match(s)
        if match:
            k, n = _parse_int(match.group(1), "k"), _parse_int(match.group(2), "n")
            return Stiefel(k, n, parse_area(match.group(3)))
        match = _CLOSED_RE.match(s)
        if match:
            label, half_dim, gen_text, asph = match.groups()
            spectrum = (
                Spectrum.zero() if gen_text == "0" else Spectrum.lattice(parse_area(gen_text))
            )
            return Closed(label, _parse_int(half_dim, "half_dim"), spectrum,
                          aspherical=asph is not None)
    except ExprParseError:
        raise
    except ValueError as exc:
        raise ExprParseError(str(exc)) from exc
    raise ExprParseError(f"unrecognized factor {clip(text.strip())!r}")


def parse_product(text: str) -> ProductObject:
    """Parse a product expression into a ``ProductObject``."""
    pieces = _split_factors(text)
    if any(not p.strip() for p in pieces):
        raise ExprParseError(f"empty factor in {clip(text)!r}")
    return ProductObject(tuple(parse_atom(p) for p in pieces))


def format_product(obj: ProductObject) -> str:
    """Canonical text for an object; ``parse_product`` inverts it."""
    return str(obj)
