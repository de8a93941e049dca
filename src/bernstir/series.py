"""The series oracle: Bernoulli numbers by exact long division.

`bernoulli_series` runs the long division of t/(e^t - 1) with every
coefficient multiplied through by j!, on integer numerators over one common
denominator.  It imports nothing from the Stirling routes and assumes no
property of B_n (neither von Staudt-Clausen nor B_odd = 0), so a route that
agrees with it has been checked against the defining series and not against
itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import check_at_least


def bernoulli_series(order: int) -> list[Fraction]:
    """B_0..B_order by exact long division.

    t/(e^t - 1) is the reciprocal of sum_{j>=0} c_j t^j with
    c_j = 1/(j+1)!, and B_j is j! times its j-th coefficient b_j.  The
    division step b_j = -sum_{i=1}^{j} c_i b_{j-i}, multiplied through by
    j!, is term for term

        B_j = -(1/(j+1)) sum_{m=0}^{j-1} C(j+1, m) B_m.

    B_0..B_(j-1) are held as integer numerators over one common
    denominator, so each step is one integer dot product and one Fraction.
    C(j+1, m) is stepped along m by exact divisions.  The common
    denominator and the numerators are rescaled only when a new B_j's
    reduced denominator does not divide it.  A term is skipped only when
    the B_m it multiplies computed to 0.
    """
    check_at_least("order", order, 0)
    values = [Fraction(1)]
    numerators, common = [1], 1  # B_m = numerators[m]/common
    for j in range(1, order + 1):
        total, binom = 0, 1  # binom = C(j+1, m)
        for m, x in enumerate(numerators):  # m = 0..j-1
            if x:
                total += binom * x
            binom = binom * (j + 1 - m) // (m + 1)
        value = Fraction(-total, (j + 1) * common)
        den = value.denominator
        if common % den:
            scale = den // gcd(common, den)
            numerators = [x * scale for x in numerators]
            common *= scale
        numerators.append(value.numerator * (common // den))
        values.append(value)
    return values

