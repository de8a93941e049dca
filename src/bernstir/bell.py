"""Partial Bell polynomials B_{n,k}(x_1, ..., x_{n-k+1}).

Two independent evaluators: the defining sum over block-size profiles
(``bell_partition_sum``, the oracle) and a convolution recurrence
(``bell_recurrence``, the production path for larger n).  On top of those,
closed forms for the two argument specializations (0, 1, ..., 1) and
(1/2, 1/3, ...), and a rescaling identity evaluated on both sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import binomial, factorial
from .stirling import StirlingSource, StirlingTable

Args = Sequence[Fraction | int]


def _validated(n: int, k: int, xs: Args, need: int) -> tuple[Fraction, ...]:
    if not n >= k >= 1:
        raise ValueError("B_{n,k} needs n >= k >= 1, got (%d, %d)" % (n, k))
    out = tuple(Fraction(x) for x in xs)
    if len(out) < need:
        raise ValueError(
            "B_{%d,%d} needs arguments x_1..x_%d, got %d" % (n, k, need, len(out))
        )
    return out


def bell_partition_sum(n: int, k: int, xs: Args) -> Fraction:
    """Evaluate the defining sum over block-size profiles (l_1, ..., l_m),
    m = n-k+1, with sum(i * l_i) = n and sum(l_i) = k.

    Each profile contributes n! / (prod l_i! * prod (i!)^l_i) * prod x_i^l_i.
    The multiplicity is an exact integer (it counts the set partitions with
    that profile) and is computed in integer arithmetic before the rational
    arguments enter.
    """
    m = n - k + 1
    xs = _validated(n, k, xs, m)
    n_fact = factorial(n)
    total = Fraction(0)
    profile = [0] * (m + 1)

    def emit() -> None:
        nonlocal total
        denom = 1
        prod = Fraction(1)
        for i in range(1, m + 1):
            li = profile[i]
            if li:
                denom *= factorial(li) * factorial(i) ** li
                prod *= xs[i - 1] ** li
        total += (n_fact // denom) * prod  # exact: counts profile partitions

    def search(size: int, weight: int, count: int) -> None:
        # multiplicities for block sizes `size` down to 1; `weight` elements
        # and `count` blocks still to place
        if size == 1:
            if weight == count:
                profile[1] = count
                emit()
                profile[1] = 0
            return
        for mult in range(min(weight // size, count), -1, -1):
            w = weight - mult * size
            c = count - mult
            if c <= w <= (size - 1) * c:
                profile[size] = mult
                search(size - 1, w, c)
        profile[size] = 0

    search(m, n, k)
    return total


def bell_recurrence(n: int, k: int, xs: Args) -> Fraction:
    """Same value through the convolution on the block holding one marked
    element: B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1}.
    """
    xs = _validated(n, k, xs, n - k + 1)
    memo: dict[tuple[int, int], Fraction] = {}

    def rec(m: int, j: int) -> Fraction:
        if j == 0 or m < j:
            return Fraction(1) if m == 0 and j == 0 else Fraction(0)
        key = (m, j)
        cached = memo.get(key)
        if cached is None:
            cached = Fraction(0)
            for i in range(1, m - j + 2):
                cached += binomial(m - 1, i - 1) * xs[i - 1] * rec(m - i, j - 1)
            memo[key] = cached
        return cached

    return rec(n, k)


def bell_zero_one(n: int, k: int, table: StirlingTable) -> int:
    """B_{n,k}(0, 1, ..., 1) = sum_{i=0}^{k} (-1)^i C(n, i) S(n-i, k-i).

    Counts the partitions of an n-set into k blocks, every block of size
    at least 2.
    """
    if not n >= k >= 1:
        raise ValueError("needs n >= k >= 1, got (%d, %d)" % (n, k))
    return sum(
        (-1) ** i * binomial(n, i) * table.value(n - i, k - i) for i in range(k + 1)
    )


def reciprocal_args_sum(n: int, k: int, diagonal: Sequence[int]) -> int:
    """T_k = sum_{j=0}^{k} (-1)^j C(n+k, j) S(n+k-j, k-j), an integer, where
    diagonal[i] holds S(n+i, i) for 0 <= i <= k and n >= k >= 1.

    C(n+k, j) is updated step by step; each division is exact, because
    c*(n+k-j) is (j+1)*C(n+k, j+1).
    """
    total = 0
    c = 1  # C(n+k, j)
    for j in range(k + 1):
        term = c * diagonal[k - j]
        total += -term if j & 1 else term
        c = c * (n + k - j) // (j + 1)
    return total


def bell_reciprocal_args(n: int, k: int, table: StirlingSource) -> Fraction:
    """B_{n,k}(1/2, 1/3, ..., 1/(n-k+2))
    = n!/(n+k)! * sum_{i=0}^{k} (-1)^(k-i) C(n+k, k-i) S(n+i, i),

    which is n!/(n+k)! times `reciprocal_args_sum`.  Reads only the diagonal
    S(n+i, i), 0 <= i <= k.
    """
    if not n >= k >= 1:
        raise ValueError("needs n >= k >= 1, got (%d, %d)" % (n, k))
    diagonal = [table.value(n + i, i) for i in range(k + 1)]
    return Fraction(factorial(n), factorial(n + k)) * reciprocal_args_sum(n, k, diagonal)


def bell_scaling_identity_lhs_rhs(
    n: int, k: int, xs: Args
) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of

        B_{n,k}(x_2/2, ..., x_{n-k+2}/(n-k+2)) = n!/(n+k)! * B_{n+k,k}(0, x_2, ..., x_{n+1})

    where ``xs`` supplies x_2..x_{n+1}.  Both sides go through the
    partition-sum evaluator; for a correct build they are always equal.
    """
    if not n >= k >= 1:
        raise ValueError("needs n >= k >= 1, got (%d, %d)" % (n, k))
    vals = tuple(Fraction(x) for x in xs)
    if len(vals) < n:
        raise ValueError(
            "scaling identity at (%d, %d) needs x_2..x_%d, got %d arguments"
            % (n, k, n + 1, len(vals))
        )
    lhs = bell_partition_sum(
        n, k, [vals[i] / (i + 2) for i in range(n - k + 1)]
    )
    rhs = Fraction(factorial(n), factorial(n + k)) * bell_partition_sum(
        n + k, k, (Fraction(0),) + vals[:n]
    )
    return lhs, rhs
