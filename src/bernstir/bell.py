"""Partial Bell polynomials B_{n,k}(x_1, ..., x_{n-k+1}).

Two evaluators: the defining sum over block-size profiles
(``bell_partition_sum``, which ``identity_suite`` judges against) and a
recurrence (``bell_recurrence``, the CLI's default).  The recurrence is
the faster at every (n, k) README lists, by up to 34 times, except at
k >= n-1, where both take microseconds: from k = 4 on it costs about
w^2/2 steps, w = n-k+1, whatever k is.  On top of those, EGF coefficient
extraction (``bell_egf_coeff``, the recurrence under the EGF identity's
name), a closed form for the argument specialization (0, 1, ..., 1), and
a rescaling identity evaluated on both sides.  The identity at x = 1
carries the closed form to the arguments (1/2, 1/3, ...), so both read
one diagonal S(d+i, i) of the Stirling triangle as a plain sequence, an
item of `stirling.stirling_diagonals`, and only the first sums over it.

B_{n,k} = n!/k! [t^n] U^k with U = sum_m x_m t^m/m!, and both branches
of `bell_recurrence` take that coefficient: its marked-block rows, for
k <= 3, are the coefficient form of (U^j/j!)' = U' U^(j-1)/(j-1)!, and
`_power_coeff`, which serves k >= 4 only, runs the power recurrence
U P' = k U' P.  `bell_egf_coeff` returns `bell_recurrence` for k >= 1, so
`identity_suite`, judging `bell_egf_coeff` against the partition sum,
judges whatever the recurrence runs at every k.

The partition sum places block sizes from the largest down, and merges
the profiles that leave the same open weight w and block count c into one
integer state.  Placing the l-th block of size s multiplies a state by
C(w, s) * a_s and divides it by l; the division is exact, because each
profile in the state counts its ways as the ways for l-1 blocks times
C(w, s) / l.  There are at most (k+1)(n-k+1) states per size, so the sum's
work grows polynomially in n, not with the number of profiles.

Every evaluator runs in integers.  B_{n,k} is homogeneous of degree k, so
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


def _first_nonzero(a: Sequence[int]) -> int:
    """The smallest i with a_i != 0, where a[i-1] = a_i, or len(a) + 1."""
    return next((i for i, x in enumerate(a, 1) if x), len(a) + 1)


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

    A state is dropped unless low * c <= w <= (s-1) * c, low being the
    smallest i with a_i != 0 (n-k+2 if there is none).  Above the upper
    bound the c blocks still to place, each smaller than s, cannot fill w.
    Below the lower bound one of them is smaller than low, and its factor
    a_i is 0, so every profile in the state contributes 0.
    """
    a, q = _scaled(n, k, xs)
    top = n - k + 1
    low = _first_nonzero(a)
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
                if low * count <= weight <= below * count:  # see the docstring
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


# bell_recurrence keeps the marked-block rows up to this k.  They cost
# about (k-2) * w^2/2 + w steps, w = n-k+1, against w^2/2 for the power
# recurrence, whose steps are dearer.  Best of several in-process calls on
# all-ones arguments, rows against power recurrence: (40, 3) 0.20 against
# 0.28 ms and (400, 3) 20 against 34 ms; (40, 4) 0.24 against 0.17 ms and
# (400, 4) 43 against 36 ms.  At (1500, 4), six alternating calls each,
# the rows took 1.67-2.13 s against 1.86-2.55 s: the crossover moves with n.
_ROWS_UP_TO_K = 3


def bell_recurrence(n: int, k: int, xs: Args) -> Fraction:
    """Same value by a recurrence, on the integers a_i = q * x_i; returns
    B_{n,k}(a) / q^k.

    For k <= 3 it runs the convolution on the block holding one marked
    element, B_{m,j} = sum_i C(m-1, i-1) a_i B_{m-i,j-1}, bottom up over
    j: row j holds B_{m,j}(a) for m = j..j+n-k, which is all that row j+1
    reads, and the last row is the one value m = n.  That is at most two
    rows, and row 2 costs only w = n-k+1 steps.

    From k = 4 on it raises U = sum_m a_m t^m/m! to the k-th power by the
    power recurrence U P' = k U' P (J. C. P. Miller's rule; Knuth, TAOCP
    Vol. 2, 4.7), in about w^2/2 steps whatever k is; see `_power_coeff`.
    """
    a, q = _scaled(n, k, xs)
    if k > _ROWS_UP_TO_K:
        return Fraction(_power_coeff(n, k, a), math.factorial(k) * q**k)
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


def _power_coeff(n: int, k: int, a: Sequence[int]) -> int:
    """p_n = k! B_{n,k}(a), the t^n/n! coefficient of P = U^k with
    U = sum_m a_m t^m/m! and a[m-1] = a_m.

    Let s be the smallest index with a_s != 0; P starts at t^(ks) with
    p_(ks) = (ks)!/(s!)^k a_s^k, and p_n = 0 when ks > n.  With no such s,
    s = n-k+2 makes ks > n.
    The t^e/e! coefficient of U P' = k U' P, at e = d + s - 1, is

        (C(e,s) - k C(e,s-1)) a_s p_d
            = sum_{m=s}^{e-ks} (k C(e,m) - C(e,m+1)) a_(m+1) p_(e-m),

    which gives p_d from p_(ks)..p_(d-1) for d = ks+1..n.  The factor on
    the left is C(e,s-1) (d - ks)/s > 0 and p_d is an integer, so the
    division is exact.  `bell_recurrence` calls it for k >= 4 only.
    """
    s = _first_nonzero(a)
    if k * s > n:
        return 0
    ks, a_s = k * s, a[s - 1]
    p = [math.factorial(ks) // math.factorial(s) ** k * a_s**k]  # p[j] = p_(ks+j)
    for d in range(ks + 1, n + 1):
        e = d + s - 1
        last = e - ks
        c = math.comb(e, s)  # C(e, m)
        acc = 0
        for m in range(s, last + 1):
            c_next = c * (e - m) // (m + 1)
            if a[m]:
                acc += (k * c - c_next) * a[m] * p[last - m]
            c = c_next
        p.append(acc // (math.comb(e, s - 1) * (d - ks) // s * a_s))  # exact
    return p[-1]


def bell_egf_coeff(n: int, k: int, xs: Args) -> Fraction:
    """n!/k! times the t^n coefficient of (sum_{m>=1} x_m t^m/m!)^k;
    equals B_{n,k}(x_1, ..., x_{n-k+1}), and 1 or 0 at k = 0.

    Arguments beyond x_{n-k+1} cannot reach the t^n coefficient, so they may
    be omitted or set to anything.  Ints and Fractions are read as given.
    For k >= 1 the value, and any error, is `bell_recurrence`'s: its
    marked-block rows up to k = 3 and `_power_coeff` from k = 4 on both
    take [t^n] U^k, so whatever judges this function judges the recurrence.
    """
    if k == 0 <= n:
        return Fraction(int(n == 0))
    return bell_recurrence(n, k, xs)


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
