"""Exact arithmetic primitives shared by every formula module.

Python integers are arbitrary precision, and ``fractions.Fraction`` is kept
reduced with a strictly positive denominator, so structural equality of
values coincides with mathematical equality.  Every computation in this
package stays in these two types; nothing ever passes through floating
point.
"""

from __future__ import annotations

import math
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


def rat(num: int, den: int = 1) -> Fraction:
    """The reduced fraction num/den with positive denominator."""
    if den == 0:
        raise ValueError("rational with zero denominator: %d/0" % num)
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a reduced Fraction.

    Either part may carry a sign; "p/1" is accepted and normalizes to "p".
    """
    num, sep, den = text.strip().partition("/")
    try:
        return rat(int(num), int(den) if sep else 1)
    except ValueError:
        raise ValueError("not a rational: %r" % text) from None


def format_rational(value: Fraction | int) -> str:
    """Render as "p" for integers and "p/q" (q > 0, reduced) otherwise."""
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit, which Decimal lacks
        value = Fraction(value)
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else "%s/%s" % (text, Decimal(value.denominator))
