"""Exact arithmetic primitives shared by every formula module.

Python integers are arbitrary precision, and ``fractions.Fraction`` is kept
reduced with a strictly positive denominator, so structural equality of
values coincides with mathematical equality.  Every computation in this
package stays in these two types; nothing ever passes through floating
point.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial requires n >= 0, got %d" % n)
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with C(n, k) = 0 outside 0 <= k <= n.

    Returning 0 out of range keeps alternating binomial sums free of
    boundary special cases.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0, got %d" % n)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")
_ECHO = 40  # characters of rejected input quoted back in the error


def _digits_to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the str-to-int digit limit, which Decimal lacks
        return int(Decimal(digits))


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a reduced Fraction.

    The whole text must be ASCII digits with an optional sign on either
    part: no spaces, underscores or non-ASCII digits.  "p/1" is accepted
    and normalizes to "p".  Numerals of any length are accepted.
    """
    match = _RATIONAL.fullmatch(text)
    den = _digits_to_int(match[2]) if match and match[2] else 1
    if match is None or den == 0:
        tail = "..." if len(text) > _ECHO else ""
        raise ValueError("not a rational: %r%s" % (text[:_ECHO], tail))
    return Fraction(_digits_to_int(match[1]), den)


def format_rational(value: Fraction | int) -> str:
    """Render as "p" for integers and "p/q" (q > 0, reduced) otherwise."""
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit, which Decimal lacks
        value = Fraction(value)
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else "%s/%s" % (text, Decimal(value.denominator))
