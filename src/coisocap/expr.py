"""Text grammar for product objects, shared by the CLI and tests.

A text is read as tokens: an ASCII integer, a word ``[A-Za-z_][A-Za-z0-9_]*``
or any other non-blank character.  Blanks separate tokens and never join
them, so ``1 0`` is not ``10`` and ``p i`` is not ``pi``.

    product  = factor { "x" factor }
    factor   = "S" "(" m ";" area ")"                        sphere S^(2m-1)
             | "V" "(" k "," n ";" area ")"                  frame manifold
             | "C" "(" label "," halfdim ";" gen [";" "asph"] ")"   closed factor
    area     = the token shapes n, n/n, p, p/n, np, n*p, np/n, n*p/n, n/np and
               n/n*p, where n is an integer and p is "pi" ("pi", "pi/2", "2pi",
               "3pi/2", "3*pi/2", "3/2pi", "3/2*pi", "3/2", ...)
    gen      = "0" (trivial spectrum) | area (lattice generator)

``m``, ``k``, ``n`` and ``halfdim`` are integers and ``label`` is a word.
Areas are rationals in units of pi, with no decimal point, exponent, sign
or underscore.  ``format_product`` writes the canonical form; parsing it
back returns an equal object.  The token pattern is compiled by the first
parse, so a call that parses no text never compiles it.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExprParseError, check_rational_size, clip, digit_limit
from .spectra import Closed, ProductObject, Sphere, Spectrum, Stiefel

# A token's kind is "n" (integer), "w" (word) or the character itself.  The
# pattern is compiled by the first parse, which ``re`` caches for the rest.
_TOKEN = r"(?P<n>[0-9]+)|(?P<w>[A-Za-z_][A-Za-z0-9_]*)|\S"

# The kinds between a factor's head and its area, and its integer fields.
_FIELDS = {"S": ("(n;", ("m",)), "V": ("(n,n;", ("k", "n")), "C": ("(w,n;", ("half_dim",))}

# Every area, as the kinds of its tokens with "p" for "pi".
_AREA_SHAPES = frozenset(("n", "n/n", "p", "p/n", "np", "n*p", "np/n", "n*p/n", "n/np", "n/n*p"))


def _parse_int(digits: str, name: str) -> int:
    """An integer field, refused from ``digit_limit()`` digits on."""
    limit = digit_limit()
    if len(digits) >= limit:
        raise ExprParseError(f"{name} needs fewer than {limit} digits")
    return int(digits)


def parse_area(text: str) -> Fraction:
    """Parse an area: a nonnegative rational in units of pi."""
    tokens = list(re.finditer(_TOKEN, text))
    if not tokens:
        raise ExprParseError("empty area")
    shape = "".join("p" if m.group() == "pi" else m.lastgroup or m.group() for m in tokens)
    ints = [m.group() for m in tokens if m.lastgroup == "n"]
    if shape not in _AREA_SHAPES or "/" in shape and not ints[-1].strip("0"):
        raise ExprParseError(f"bad area {clip(text)!r}")
    check_rational_size(text, ExprParseError, "area")
    # the numerator is 1 or the first integer, the denominator 1 or the last one
    return Fraction(1 if shape[0] == "p" else int(ints[0]), int(ints[-1]) if "/" in shape else 1)


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
    tokens = list(re.finditer(_TOKEN, text))
    kinds = "".join(m.lastgroup or m.group() for m in tokens)  # one character per token
    head = tokens[0].group() if tokens else ""
    fields, names = _FIELDS.get(head, ("", ()))
    end = len(fields) + 1
    # the area follows the fields, up to ")" or a closed factor's "; asph"
    aspherical = head == "C" and kinds[end:-1].endswith(";w") and tokens[-2].group() == "asph"
    area = tokens[end:len(tokens) - 1 - 2 * aspherical]
    if (not fields or kinds[1:end] != fields or not kinds.endswith(")") or not area
            or not set(";,()").isdisjoint(kinds[end:end + len(area)])):
        raise ExprParseError(f"unrecognized factor {clip(text.strip())!r}")
    ints = [_parse_int(m.group(), name)
            for m, name in zip([m for m in tokens[1:end] if m.lastgroup == "n"], names)]
    area_text = text[area[0].start():area[-1].end()]
    value = None if head == "C" and area_text == "0" else parse_area(area_text)
    try:
        if head == "C":
            spectrum = Spectrum.zero() if value is None else Spectrum.lattice(value)
            return Closed(tokens[2].group(), *ints, spectrum, aspherical=aspherical)
        return (Sphere if head == "S" else Stiefel)(*ints, value)
    except ValueError as exc:
        raise ExprParseError(str(exc)) from exc


def parse_product(text: str) -> ProductObject:
    """Parse a product expression into a ``ProductObject``."""
    pieces = _split_factors(text)
    if any(not p.strip() for p in pieces):
        raise ExprParseError(f"empty factor in {clip(text)!r}")
    return ProductObject(tuple(parse_atom(p) for p in pieces))


def format_product(obj: ProductObject) -> str:
    """Canonical text for an object; ``parse_product`` inverts it."""
    return str(obj)
