"""Exact power-series coefficients, summed in integers.

This is the independent oracle for every generating function in the
package: Bernoulli numbers fall out of one exact long division, and Bell
polynomial values out of powers of an exponential-coefficient series.  At
the arguments (1, ..., 1) that value is S(n, k), so the EGF is also a
Stirling route; `verify.identity_suite` checks it there at every (n, k).

`bernoulli_series` runs the long division of t/(e^t - 1) with every
coefficient multiplied through by j!, on integer numerators over one common
denominator.  It imports nothing from the Stirling routes and assumes no
property of B_n (neither von Staudt-Clausen nor B_odd = 0), so a route that
agrees with it has been checked against the defining series and not against
itself.

`bell_egf_coeff` raises the series to its power by truncated Cauchy products
on integer coefficients over one scale, and divides once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Sequence

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


def bell_egf_coeff(n: int, k: int, xs: Sequence[Fraction | int]) -> Fraction:
    """n!/k! times the t^n coefficient of (sum_{m>=1} x_m t^m/m!)^k;
    equals B_{n,k}(x_1, ..., x_{n-k+1}).

    Arguments beyond x_{n-k+1} cannot reach the t^n coefficient, so they may
    be omitted or set to anything.

    With q the lcm of the denominators of x_1..x_{n-k+1}, the series is
    U(t)/(q n!) for the integer coefficients u_m = (q x_m) n!/m!.  U^k is
    taken by k - 1 Cauchy products, each truncated where the factors still
    to come cannot reach t^n, and the value is [t^n] U^k over
    k! q^k n!^(k-1).
    """
    if not 0 <= k <= n:
        raise ValueError("needs 0 <= k <= n, got (%d, %d)" % (n, k))
    vals = [Fraction(x) for x in xs]
    top = n - k + 1  # x_1..x_top reach t^n
    if k == 0:
        return Fraction(int(n == 0))
    if len(vals) < top:
        raise ValueError(
            "coefficient t^%d of a k=%d power needs x_1..x_%d, got %d"
            % (n, k, top, len(vals))
        )
    q = lcm(*(x.denominator for x in vals[:top]))
    n_fact = factorial(n)
    power = [0] + [  # U^1 to degree top
        x.numerator * (q // x.denominator) * (n_fact // factorial(m))
        for m, x in enumerate(vals[:top], start=1)
    ]
    terms = [(m, u) for m, u in enumerate(power) if u]
    for j in range(2, k + 1):  # U^j is needed to degree n - k + j
        size = n - k + j + 1
        product = [0] * size
        for i in range(j - 1, size - 1):
            a = power[i]
            if a:
                for m, u in terms:
                    if i + m >= size:
                        break
                    product[i + m] += a * u
        power = product
    return Fraction(power[n], factorial(k) * q**k * n_fact ** (k - 1))
