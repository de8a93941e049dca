"""Reference values the benchmark checks every program output against.

Nothing here imports bernstir.  Each value comes from a route the package
does not use, so a defect in the package cannot hide by also being in its
reference:

* B_n from the integer tangent-number recurrence of Brent & Harvey, "Fast
  computation of Bernoulli, Tangent and Secant numbers" (arXiv:1108.0286).
* The ``alternating`` route from this file's own transcription of the
  published double sum, which is known not to equal B_2k.  A route that is
  silently "fixed" therefore fails the check.
* S(n, k) from a triangle built here.
* B_{n,k}(x_1, ...) as n!/k! times the t^n coefficient of the k-th power of
  the argument EGF, in integer arithmetic over one common denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction


def render(value: Fraction | int) -> str:
    """The wire form of an exact rational: "p", or "p/q" reduced with q > 0."""
    value = Fraction(value)
    if value.denominator == 1:
        return "%d" % value.numerator
    return "%d/%d" % (value.numerator, value.denominator)


def tangent_numbers(count: int) -> list[int]:
    """T_1..T_count (1, 2, 16, 272, ...) by Brent & Harvey's in-place
    recurrence: integer additions and small multiplications only."""
    t = [0] * (count + 1)
    if count >= 1:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_numbers(max_n: int) -> list[Fraction]:
    """B_0..B_max_n with B_1 = -1/2, from
    B_2k = (-1)^(k-1) 2k T_k / (2^2k (2^2k - 1))."""
    out = [Fraction(0)] * (max_n + 1)
    out[0] = Fraction(1)
    if max_n >= 1:
        out[1] = Fraction(-1, 2)
    for k, t in enumerate(tangent_numbers(max_n // 2), start=1):
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))
    return out


def alternating_published(k: int) -> Fraction:
    """The published ``alternating`` formula for index 2k, verbatim:
    (-1)^(k-1) k / (2^(2(k-1)) (2^(2k) - 1))
      * sum_{i=0}^{k-1} sum_{l=0}^{k-i-1} (-1)^(i+l) C(2k, l) (k-i-l)^(2k-1).
    """
    total = 0
    for i in range(k):
        for l in range(k - i):
            total += (-1) ** (i + l) * math.comb(2 * k, l) * (k - i - l) ** (2 * k - 1)
    return Fraction((-1) ** (k - 1) * k, 2 ** (2 * (k - 1)) * (2 ** (2 * k) - 1)) * total


def stirling_rows(max_n: int) -> list[list[int]]:
    """Rows 0..max_n of S(n, k), each row listing k = 0..n."""
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def bell_value(n: int, k: int, xs: list[Fraction]) -> Fraction:
    """B_{n,k}(x_1, ..., x_{n-k+1}) = n!/k! [t^n] (sum_m x_m t^m / m!)^k.

    With D the common denominator of the x_m, each x_m t^m / m! is
    a_m t^m / (D n!) for an integer a_m, so the power is taken over
    integers and divided once at the end.
    """
    width = n - k + 1
    den = math.lcm(*(x.denominator for x in xs[:width]))
    scale = den * math.factorial(n)
    base = [0] * (width + 1)
    for m in range(1, width + 1):
        x = xs[m - 1]
        base[m] = x.numerator * (den // x.denominator) * (math.factorial(n) // math.factorial(m))
    power = [1] + [0] * n  # base^0, truncated after t^n
    for _ in range(k):
        nxt = [0] * (n + 1)
        for i, c in enumerate(power):
            if c:
                for m in range(1, min(width, n - i) + 1):
                    nxt[i + m] += c * base[m]
        power = nxt
    return Fraction(power[n] * math.factorial(n), scale**k * math.factorial(k))
