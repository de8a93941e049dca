"""Partial Bell polynomials B_{n,k}(x_1, ..., x_{n-k+1}).

Two independent evaluators: the defining sum over block-size profiles
(``bell_partition_sum``, which ``identity_suite`` judges against) and a
convolution recurrence (``bell_recurrence``, the CLI's default).  Neither
is faster everywhere: the partition sum is severalfold faster at k >= n/2,
the recurrence at small k and large n (README gives measured times).  On
top of those, a closed form for the argument specialization (0, 1, ..., 1),
and a rescaling identity evaluated on both sides.  The identity at x = 1
carries the closed form to the arguments (1/2, 1/3, ...), so both read one
diagonal S(d+i, i) of the Stirling triangle as a plain sequence, an item of
`stirling.stirling_diagonals`, and only the first sums over it.

The partition sum places block sizes from the largest down, and merges
the profiles that leave the same open weight w and block count c into one
integer state.  Placing the l-th block of size s multiplies a state by
C(w, s) * a_s and divides it by l; the division is exact, because each
profile in the state counts its ways as the ways for l-1 blocks times
C(w, s) / l.  There are at most (k+1)(n-k+1) states per size, so the sum's
work grows polynomially in n, not with the number of profiles.

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

# The arguments x_1, x_2, ... of a Bell evaluator: ints or Fractions, read
# through their `numerator` and `denominator` as given.
Args = Sequence[Fraction | int]


def _check_indices(n: int, k: int) -> None:
    if not n >= k >= 1:
        raise ValueError(
            "B_{n,k} needs n >= k >= 1, got (%s, %s)" % (echo_int(n), echo_int(k))
        )


def _scaled(n: int, k: int, xs: Args) -> tuple[list[int], int]:
    """The integers a_i = q * x_i for i = 1..n-k+1, and q, the lcm of the
    denominators of those x_i.  Arguments past x_{n-k+1} do not enter q.
    Each x_i is an int or a Fraction, read through its `numerator` and
    `denominator` as given, with no Fraction built.
    """
    _check_indices(n, k)
    m = n - k + 1
    if len(xs) < m:
        raise ValueError(
            "B_{%s,%s} needs arguments x_1..x_%s, got %d"
            % (echo_int(n), echo_int(k), echo_int(m), len(xs))
        )
    xs = xs[:m]
    q = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (q // x.denominator) for x in xs], q


def bell_partition_sum(n: int, k: int, xs: Args) -> Fraction:
    """Evaluate the defining sum over block-size profiles (l_1, ..., l_m),
    m = n-k+1, with sum(i * l_i) = n and sum(l_i) = k.

    Each profile contributes n! / (prod l_i! * prod (i!)^l_i) * prod x_i^l_i.
    The multiplicity is an exact integer (it counts the set partitions with
    that profile).  The sum runs on the integers a_i = q * x_i and returns
    B_{n,k}(a) / q^k (see the module docstring).

    Block sizes are placed from the largest down.  Once the sizes above s
    are placed, all profiles that leave the same open weight w (elements)
    and count c (blocks) are one state: a single integer, the sum over
    those profiles of the ways to choose the blocks placed so far from the
    n elements, times prod a_i^l_i.  The l-th block of size s multiplies a
    state by C(w, s) * a_s, w being the weight still open before it, and
    divides it by l.  The division is exact: the ways for l blocks are the
    ways for l-1 blocks times C(w, s) / l, and a merged state is a sum of
    such terms.  No block is larger than w - c + 1, so a state waits at
    that size, and pairs and singletons close in one step.  There are at
    most (k+1)(n-k+1) states per size, so the work grows polynomially in n.
    """
    a, q = _scaled(n, k, xs)
    top = n - k + 1
    # waiting[s] maps (weight, count) to the state whose next block size is
    # s; the states at s = 1 and 2 are closed by pairs and singletons
    waiting: list[dict[tuple[int, int], int]] = [{} for _ in range(top + 1)]
    waiting[top][n, k] = 1
    for size in range(top, 2, -1):
        a_size, below = a[size - 1], size - 1
        states, waiting[size] = waiting[size], {}
        for (weight, count), state in states.items():
            room = weight - count + 1  # the largest block that still fits
            mult = 0
            while True:
                if weight <= below * count:  # smaller blocks can close it
                    nxt = waiting[room if room < below else below]
                    key = weight, count
                    nxt[key] = nxt.get(key, 0) + state
                if room < size:  # no further block of size s fits
                    break
                mult += 1
                state = state * math.comb(weight, size) * a_size // mult  # exact
                weight -= size
                count -= 1
                room -= below
    total = 0
    for states in waiting[1:3]:
        for (weight, count), state in states.items():
            pairs, singles = weight - count, 2 * count - weight
            if pairs:  # x_2 is an argument whenever a pair can be open
                state *= a[1] ** pairs
            ways = math.factorial(weight) // (
                (math.factorial(pairs) << pairs) * math.factorial(singles)
            )
            total += state * ways * a[0] ** singles
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
    if len(xs) < n:
        raise ValueError(
            "scaling identity at (%s, %s) needs x_2..x_%s, got %d arguments"
            % (echo_int(n), echo_int(k), echo_int(n + 1), len(xs))
        )
    lhs = bell_partition_sum(n, k, [Fraction(xs[i], i + 2) for i in range(n - k + 1)])
    rhs = Fraction(math.factorial(n), math.factorial(n + k)) * bell_partition_sum(
        n + k, k, [0, *xs[:n]]
    )
    return lhs, rhs
