"""Partial Bell polynomials B_{n,k}(x_1, ..., x_{n-k+1}).

Two independent evaluators: the defining sum over block-size profiles
(``bell_partition_sum``, the oracle) and a convolution recurrence
(``bell_recurrence``, the production path for larger n).  On top of those,
a closed form for the argument specialization (0, 1, ..., 1), and a
rescaling identity evaluated on both sides.  The identity at x = 1 carries
the closed form to the arguments (1/2, 1/3, ...), so both read one diagonal
S(d+i, i) of the Stirling triangle as a plain sequence, an item of
`stirling.stirling_diagonals`, and only the first sums over it.

Both evaluators run in integers.  B_{n,k} is homogeneous of degree k, so
with q the lcm of the denominators of x_1..x_{n-k+1} and a_i = q * x_i,
B_{n,k}(x) = B_{n,k}(a) / q^k (Comtet, Advanced Combinatorics, 1974, 3.3).
Each evaluator sums B_{n,k}(a) exactly and divides by q^k once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact import check_cells, echo_int

Args = Sequence[Fraction | int]


def _check_indices(n: int, k: int) -> None:
    if not n >= k >= 1:
        raise ValueError(
            "B_{n,k} needs n >= k >= 1, got (%s, %s)" % (echo_int(n), echo_int(k))
        )


def _scaled(n: int, k: int, xs: Args) -> tuple[list[int], int]:
    """The integers a_i = q * x_i for i = 1..n-k+1, and q, the lcm of the
    denominators of those x_i.  Arguments past x_{n-k+1} do not enter q.
    """
    _check_indices(n, k)
    m = n - k + 1
    if len(xs) < m:
        raise ValueError(
            "B_{%s,%s} needs arguments x_1..x_%s, got %d"
            % (echo_int(n), echo_int(k), echo_int(m), len(xs))
        )
    xs = [Fraction(x) for x in xs[:m]]
    q = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (q // x.denominator) for x in xs], q


def bell_partition_sum(n: int, k: int, xs: Args) -> Fraction:
    """Evaluate the defining sum over block-size profiles (l_1, ..., l_m),
    m = n-k+1, with sum(i * l_i) = n and sum(l_i) = k.

    Each profile contributes n! / (prod l_i! * prod (i!)^l_i) * prod x_i^l_i.
    The multiplicity is an exact integer (it counts the set partitions with
    that profile).  The sum runs on the integers a_i = q * x_i and returns
    B_{n,k}(a) / q^k (see the module docstring).  Both products are carried
    down the search as it places blocks, and the search keeps its own stack,
    so its Python depth does not grow with n.
    """
    a, q = _scaled(n, k, xs)
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    total = 0
    # (size, weight, count, denom, prod): multiplicities for block sizes
    # `size` down to 1 are still open, with `weight` elements in `count`
    # blocks to place; `denom` is prod l_i! (i!)^l_i and `prod` is
    # prod a_i^l_i over the sizes already placed.  No block is larger than
    # weight - count + 1, so the sizes above that are skipped.
    stack = [(n - k + 1, n, k, 1, 1)]
    while stack:
        size, weight, count, denom, prod = stack.pop()
        if size <= 2:  # only pairs and singletons are open: their counts follow
            pairs = weight - count
            if pairs:
                denom *= fact[pairs] << pairs
                prod *= a[1] ** pairs
            singles = count - pairs
            denom *= fact[singles]
            total += fact[n] // denom * prod * a[0] ** singles  # exact
            continue
        step, a_size = fact[size], a[size - 1]
        for mult in range(min(weight // size, count) + 1):
            if mult:
                denom *= step * mult
                prod *= a_size
            w, c = weight - mult * size, count - mult
            if c <= w <= (size - 1) * c:
                top = w - c + 1
                stack.append((top if top < size else size - 1, w, c, denom, prod))
    return Fraction(total, q**k)


def bell_recurrence(n: int, k: int, xs: Args) -> Fraction:
    """Same value through the convolution on the block holding one marked
    element: B_{m,j} = sum_i C(m-1, i-1) x_i B_{m-i,j-1}.

    Runs bottom up over j on the integers a_i = q * x_i and returns
    B_{n,k}(a) / q^k.  Row j holds B_{m,j}(a) for m = j..j+n-k, which is all
    that row j+1 reads; the last row is the one value m = n.
    """
    a, q = _scaled(n, k, xs)
    width = n - k + 1
    row = a  # B_{m,1}(a) = a_m
    for j in range(2, k + 1):
        nxt = []
        for t in range(width - 1 if j == k else 0, width):
            top = j + t - 1  # m - 1 for m = j + t
            c = 1  # C(m-1, i)
            acc = 0
            for i in range(t + 1):
                acc += c * a[i] * row[t - i]
                c = c * (top - i) // (i + 1)
            nxt.append(acc)
        row = nxt
    return Fraction(row[-1], q**k)


def bell_zero_one(n: int, k: int, diagonal: Sequence[int]) -> int:
    """B_{n,k}(0, 1, ..., 1) = sum_{i=0}^{k} (-1)^i C(n, i) S(n-i, k-i),
    where diagonal[j] holds S(n-k+j, j) for 0 <= j <= k.

    Counts the partitions of an n-set into k blocks, every block of size
    at least 2: the 2-associated number S_2(n, k) that
    `stirling.associated_diagonals` streams by its own recurrence.
    """
    _check_indices(n, k)
    check_cells(diagonal, k + 1)
    return sum(
        (-1) ** i * math.comb(n, i) * diagonal[k - i] for i in range(k + 1)
    )


def bell_reciprocal_args(n: int, k: int, diagonal: Sequence[int]) -> Fraction:
    """B_{n,k}(1/2, 1/3, ..., 1/(n-k+2)) = n!/(n+k)! * B_{n+k,k}(0, 1, ..., 1),
    where diagonal[i] holds S(n+i, i) for 0 <= i <= k.

    This is the rescaling identity at x = 1 (see
    `bell_scaling_identity_lhs_rhs`), and the same diagonal holds the cells
    `bell_zero_one` reads at (n+k, k), so it checks their number.
    """
    _check_indices(n, k)
    return Fraction(math.factorial(n), math.factorial(n + k)) * bell_zero_one(
        n + k, k, diagonal
    )


def bell_scaling_identity_lhs_rhs(
    n: int, k: int, xs: Args
) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of

        B_{n,k}(x_2/2, ..., x_{n-k+2}/(n-k+2)) = n!/(n+k)! * B_{n+k,k}(0, x_2, ..., x_{n+1})

    where ``xs`` supplies x_2..x_{n+1}.  Both sides go through the
    partition-sum evaluator; for a correct build they are always equal.
    """
    _check_indices(n, k)
    vals = tuple(Fraction(x) for x in xs)
    if len(vals) < n:
        raise ValueError(
            "scaling identity at (%d, %d) needs x_2..x_%d, got %d arguments"
            % (n, k, n + 1, len(vals))
        )
    lhs = bell_partition_sum(
        n, k, [vals[i] / (i + 2) for i in range(n - k + 1)]
    )
    rhs = Fraction(math.factorial(n), math.factorial(n + k)) * bell_partition_sum(
        n + k, k, (Fraction(0),) + vals[:n]
    )
    return lhs, rhs
