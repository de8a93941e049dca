"""Exact truncated formal power series over Fraction.

This is the independent oracle for every generating function in the
package: Bernoulli numbers fall out of one exact long division, Stirling
numbers out of powers of e^t - 1, and Bell polynomial values out of powers
of a general exponential-coefficient series.

Each coefficient of a product or a reciprocal is one sum of products of
coefficients; `_dot` adds those products as integers over the running lcm
of their denominators and reduces once, so the sums never normalise a
Fraction term by term.

Orders are explicit and carried by the value; mixing orders raises instead
of truncating silently, because oracle code must fail loudly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Sequence


def _dot(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
    """sum_i x_i y_i over zip(xs, ys), as one reduced Fraction.

    The numerators of the nonzero products are added as integers over the
    lcm of the denominators seen so far; zero terms are skipped.
    """
    total, common = 0, 1  # the sum so far is total/common
    for x, y in zip(xs, ys):
        if x and y:
            den = x.denominator * y.denominator
            g = gcd(common, den)
            total = total * (den // g) + x.numerator * y.numerator * (common // g)
            common *= den // g
    return Fraction(total, common)


class TruncatedSeries:
    """sum_{j=0}^{order} c_j t^j, arithmetic modulo t^(order+1)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if len(cs) > order + 1:
                raise ValueError(
                    "%d coefficients exceed order %d" % (len(cs), order)
                )
            cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        elif not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, j: int) -> Fraction:
        if not 0 <= j <= self.order:
            raise ValueError("coefficient %d outside order %d" % (j, self.order))
        return self._coeffs[j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return "TruncatedSeries(%r)" % (self._coeffs,)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """The Cauchy product truncated at the order.

        (ab)_j = sum_{i=0}^{j} a_i b_{j-i}, each sum taken in integers over
        one denominator (see `_dot`).
        """
        if self.order != other.order:
            raise ValueError("order mismatch: %d vs %d" % (self.order, other.order))
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries(
            [_dot(a[: j + 1], b[j::-1]) for j in range(self.order + 1)]
        )

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative power %d; invert explicitly" % exponent)
        result = one(self.order)
        for _ in range(exponent):  # repeated multiplication: oracle clarity
            result = result * self
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """b with self * b = 1 mod t^(order+1); needs a nonzero constant term.

        b_0 = 1/c_0 and b_j = -(1/c_0) sum_{i=1}^{j} c_i b_{j-i}, where
        each sum is taken in integers over one denominator (see `_dot`).
        """
        c0 = self._coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        inv0 = 1 / c0
        out = [inv0]
        for j in range(1, self.order + 1):
            out.append(-inv0 * _dot(self._coeffs[1 : j + 1], out[j - 1 :: -1]))
        return TruncatedSeries(out)


def one(order: int) -> TruncatedSeries:
    """The multiplicative identity at the given order."""
    return TruncatedSeries([1], order=order)


def exp_minus_one(order: int) -> TruncatedSeries:
    """e^t - 1 truncated: coefficients 0, 1/1!, 1/2!, ..."""
    return TruncatedSeries(
        [Fraction(0)] + [Fraction(1, factorial(j)) for j in range(1, order + 1)]
    )


def bernoulli_series(order: int) -> list[Fraction]:
    """B_0..B_order by exact long division.

    t/(e^t - 1) is the reciprocal of sum_{j>=0} t^j/(j+1)!, and B_j is j!
    times its j-th coefficient.
    """
    if order < 0:
        raise ValueError("order must be >= 0, got %d" % order)
    g = TruncatedSeries([Fraction(1, factorial(j + 1)) for j in range(order + 1)])
    inv = g.reciprocal()
    return [inv.coefficient(j) * factorial(j) for j in range(order + 1)]


def stirling_egf_coeff(n: int, k: int) -> Fraction:
    """n!/k! times the t^n coefficient of (e^t - 1)^k; equals S(n, k)."""
    if not 0 <= k <= n:
        raise ValueError("needs 0 <= k <= n, got (%d, %d)" % (n, k))
    power = exp_minus_one(n) ** k
    return power.coefficient(n) * Fraction(factorial(n), factorial(k))


def bell_egf_coeff(n: int, k: int, xs: Sequence[Fraction | int]) -> Fraction:
    """n!/k! times the t^n coefficient of (sum_{m>=1} x_m t^m/m!)^k;
    equals B_{n,k}(x_1, ..., x_{n-k+1}).

    Arguments beyond x_{n-k+1} cannot reach the t^n coefficient, so they may
    be omitted or set to anything.
    """
    if not 0 <= k <= n:
        raise ValueError("needs 0 <= k <= n, got (%d, %d)" % (n, k))
    vals = tuple(Fraction(x) for x in xs)
    if k >= 1 and len(vals) < n - k + 1:
        raise ValueError(
            "coefficient t^%d of a k=%d power needs x_1..x_%d, got %d"
            % (n, k, n - k + 1, len(vals))
        )
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(1, min(len(vals), n) + 1):
        coeffs[m] = vals[m - 1] / factorial(m)
    base = TruncatedSeries(coeffs)
    return (base**k).coefficient(n) * Fraction(factorial(n), factorial(k))
