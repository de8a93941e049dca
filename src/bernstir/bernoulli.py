"""Bernoulli numbers by six independent published formulas plus the series
oracle.  ``ROUTES`` is the one place that says what each method is: its
domain, the Stirling cells it reads, how to call it, and whether it is a
known discrepancy; ``bernoulli`` dispatches through it.  The Stirling
routes read plain integer sequences, which ``stirling_cells`` streams in
step with n, so no caller holds the whole triangle.

All methods agree exactly with the oracle, with one deliberate exception:
the "alternating" double-sum formula is implemented verbatim from its
published form, which already disagrees at B_2 (it yields 1/3 instead of
1/6).  It is kept verbatim so that cross-verification documents the
discrepancy instead of masking it.
"""

from __future__ import annotations

import collections
import enum
import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .exact import check_at_least
from .series import bernoulli_series
from .stirling import associated_diagonals, check_cells, stirling_diagonals, stirling_rows


class Method(enum.Enum):
    """One entry per computation route; values are the CLI/JSON wire names,
    declared in wire-name order so that iterating lists them sorted."""

    __hash__ = object.__hash__  # members are singletons compared by identity

    ALTERNATING = "alternating"
    BELL = "bell"
    DOUBLE_STIRLING = "double-stirling"
    GUO_QI = "guo-qi"
    LOGAN = "logan"
    ORACLE = "oracle"
    THEOREM = "theorem"


class Reads(enum.Enum):
    """The Stirling cells a route reads at index n: a diagonal of S, two
    rows of S, or a diagonal of the 2-associated numbers S_2 (partitions
    into blocks of size at least 2)."""

    __hash__ = object.__hash__  # members are singletons compared by identity

    DIAGONAL = "diagonal"  # S(n+i, i) for i = 0..n
    ROWS = "rows"  # rows n and n+1 of the triangle
    ASSOCIATED = "associated"  # S_2(n+k, k) for k = 0..n


Cells = dict[Reads, Any]  # one item of stirling_cells: the cells per spec


class Route(NamedTuple):
    """One method: B_n is defined for n >= `first` (even n only when
    `even_only`), reads the Stirling cells `reads` (None: no Stirling
    numbers), and is `compute(n, cells)` on those cells."""

    first: int
    even_only: bool
    reads: Reads | None
    compute: Callable[[int, Any], Fraction]
    known_discrepancy: bool = False


# The adapters name each route function at call time rather than holding it,
# so a wrapper installed on the module attribute sees dispatched calls too.
ROUTES: dict[Method, Route] = {
    Method.ALTERNATING: Route(
        2, True, None, lambda n, c: bernoulli_alternating(n // 2), known_discrepancy=True
    ),
    Method.BELL: Route(1, False, Reads.ASSOCIATED, lambda n, c: bernoulli_bell(n, c)),
    Method.DOUBLE_STIRLING: Route(
        2, True, Reads.ROWS, lambda n, c: bernoulli_double_stirling(n // 2, c)
    ),
    Method.GUO_QI: Route(2, True, None, lambda n, c: bernoulli_guo_qi(n // 2)),
    Method.LOGAN: Route(1, False, Reads.ROWS, lambda n, c: bernoulli_logan(n, c[0])),
    Method.ORACLE: Route(0, False, None, lambda n, c: bernoulli_oracle(n)),
    Method.THEOREM: Route(0, False, Reads.DIAGONAL, lambda n, c: bernoulli_theorem(n, c)),
}


def supports(method: Method, n: int) -> bool:
    """Whether `method` defines B_n at index n."""
    route = ROUTES[method]
    return n >= route.first and not (route.even_only and n % 2)


def supported_methods(n: int) -> list[Method]:
    return [m for m in Method if supports(m, n)]


class UnsupportedIndexError(ValueError):
    """A method asked for an index outside its domain.

    Even-only formulas are undefined at odd n, which is different from
    computing 0 there.
    """

    def __init__(self, n: int, method: Method):
        self.n = n
        self.method = method
        route = ROUTES[method]
        domain = "even n >= 2" if route.even_only else "n >= %d" % route.first
        names = ", ".join(m.value for m in supported_methods(n))
        super().__init__(
            "method '%s' is defined for %s only; methods defined at n=%d: %s"
            % (method.value, domain, n, names)
        )


def bernoulli_oracle(n: int) -> Fraction:
    """B_n from the exact series long division (the reference path)."""
    check_at_least("n", n, 0)
    return bernoulli_series(n)[n]


def bernoulli_theorem(n: int, diagonal: Sequence[int]) -> Fraction:
    """B_n = sum_{i=0}^{n} (-1)^i * C(n+1, i+1)/C(n+i, i) * S(n+i, i),
    where diagonal[i] holds S(n+i, i) for 0 <= i <= n.

    Summed in integers over the one denominator P = (2n)!/n!.  The weight
    C(n+1, i+1)/C(n+i, i) is C(n+1, i+1) i! n!/(n+i)!, so times P it is the
    integer w_i/(i+1) with w_i = (n+1)!/(n-i)! * (2n)!/(n+i)!, and
    w_{i+1} = w_i (n-i)/(n+i+1).  Every division is exact.
    """
    check_at_least("n", n, 0)
    check_cells(diagonal, n + 1)
    denom = math.factorial(2 * n) // math.factorial(n)
    w = (n + 1) * denom  # w_0
    total = 0
    for i in range(n + 1):
        term = w // (i + 1) * diagonal[i]
        total += -term if i & 1 else term
        w = w * (n - i) // (n + i + 1)
    return Fraction(total, denom)


def bernoulli_bell(n: int, associated: Sequence[int]) -> Fraction:
    """B_n = sum_{k=1}^{n} (-1)^k k! B_{n,k}(1/2, 1/3, ..., 1/(n-k+2)),
    where associated[k] holds S_2(n+k, k) for 0 <= k <= n.

    The scaling identity at x = 1 gives each Bell value as
    n!/(n+k)! B_{n+k,k}(0, 1, ..., 1) = n!/(n+k)! S_2(n+k, k), the count of
    partitions of an (n+k)-set into k blocks of size at least 2.  Summed in
    integers over the one denominator (2n)!/n!, the k-th term is
    u_k S_2(n+k, k) with u_k = k! (2n)!/(n+k)!, and
    u_{k+1} = u_k (k+1)/(n+k+1) exactly.
    """
    check_at_least("n", n, 1)
    check_cells(associated, n + 1)
    denom = math.factorial(2 * n) // math.factorial(n)
    u = denom // (n + 1)  # u_1
    total = 0
    for k in range(1, n + 1):
        term = u * associated[k]
        total += -term if k & 1 else term
        u = u * (k + 1) // (n + k + 1)
    return Fraction(total, denom)


def bernoulli_logan(n: int, row: Sequence[int]) -> Fraction:
    """B_n = sum_{k=1}^{n} (-1)^k * k!/(k+1) * S(n, k), where row[k] holds
    S(n, k) for 0 <= k <= n.

    Summed in integers over the one denominator L = lcm(1, ..., n+1), where
    the weight k!/(k+1) becomes k! L/(k+1).
    """
    check_at_least("n", n, 1)
    check_cells(row, n + 1)
    lcm = math.lcm(*range(1, n + 2))
    scaled = lcm  # k! L
    total = 0
    for k in range(1, n + 1):
        scaled *= k
        term = scaled // (k + 1) * row[k]
        total += -term if k & 1 else term
    return Fraction(total, lcm)


def power_sum_numerators(p: int) -> tuple[int, ...]:
    """The coefficients A_0..A_{p+1} of the polynomial identity
    sum_{m=1}^{n} m^p = sum_{m=0}^{p+1} A_m n^m (so A_0 = 0 always), as the
    integers L! A_m over the one denominator L! = (p+1)!.

    Evaluating both sides at n = 0..L pins the unique coefficient vector
    (a Vandermonde system on distinct nodes); it is solved exactly by Newton
    interpolation on those nodes.  No Bernoulli numbers are involved, so the
    recursion built on top of this stays non-circular.

    The work stays in integers: on the nodes 0..L the Newton form is
    sum_l (Delta^l y_0 / l!) x(x-1)...(x-l+1), so scaling by L! makes every
    weight Delta^l y_0 * L!/l! an integer.  The forward differences and the
    expansion into monomials are integer arithmetic.
    """
    check_at_least("exponent", p, 0)
    top = p + 1
    diffs = [0]
    acc = 0
    for node in range(1, top + 1):
        acc += node**p
        diffs.append(acc)
    # in place, diffs[l] becomes the forward difference Delta^l y_0
    for level in range(1, top + 1):
        for j in range(top, level - 1, -1):
            diffs[j] -= diffs[j - 1]
    # Horner on the Newton form, weights scaled by L!: poly = poly*(x - j) + w_j
    scale = 1  # L!/l! for the current l
    poly = [diffs[top]]
    for j in range(top - 1, -1, -1):
        scale *= j + 1
        nxt = [0] + poly
        for m, c in enumerate(poly):
            nxt[m] -= j * c
        nxt[0] += diffs[j] * scale
        poly = nxt
    return tuple(poly)


def bernoulli_guo_qi(k: int) -> Fraction:
    """B_{2k} = 1/2 - 1/(2k+1) - 2k * sum_{i=1}^{k-1} A_{2(k-i)} / (2(k-i)+1).

    The A_m are the power-sum coefficients for exponent 2k-1.  That exponent
    choice is the one that reproduces B_4, B_6, ... exactly (exponent 2k does
    not), and the cross-verification suite revalidates it at every even index.

    Summed in integers: A_m = c_m/L! with L = 2k and c_m from
    `power_sum_numerators`, so the tail sum_m A_m/(m+1) over
    m = 2, 4, ..., 2k-2 is sum_m c_m (M/(m+1)) over the one denominator
    L! M, where M = lcm(3, 5, ..., 2k-1).  1/2 - 1/(2k+1) = (2k-1)/(2(2k+1))
    joins it over 2(2k+1) L! M, and the value is one Fraction.
    """
    check_at_least("k", k, 1)
    n = 2 * k
    tail, common = 0, 1  # the tail is tail/common
    if k > 1:
        coeffs = power_sum_numerators(n - 1)
        lcm = math.lcm(*range(3, n, 2))
        for m in range(2, n - 1, 2):
            tail += coeffs[m] * (lcm // (m + 1))
        common = math.factorial(n) * lcm
    head = 2 * (n + 1)
    return Fraction((n - 1) * common - n * head * tail, head * common)


def bernoulli_double_stirling(k: int, rows: Sequence[Sequence[int]]) -> Fraction:
    """B_{2k} = 1 + sum_{m=1}^{2k-1} S(2k+1, m+1) S(2k, 2k-m) / C(2k, m)
              - 2k/(2k+1) * sum_{m=1}^{2k} S(2k, m) S(2k+1, 2k-m+1) / C(2k, m-1),
    where `rows` holds the rows (S(2k, 0..2k), S(2k+1, 0..2k+1)).

    With n = 2k, both sums are taken in integers over the one denominator
    D = lcm(1, ..., n+1)/(n+1), which is the lcm of every C(n, m), so
    1/C(n, m) becomes D/C(n, m); the whole value is over L = (n+1) D.
    """
    check_at_least("k", k, 1)
    n = 2 * k
    row, next_row = rows
    check_cells(row, n + 1)
    check_cells(next_row, n + 2)
    lcm = math.lcm(*range(1, n + 2))
    d = lcm // (n + 1)
    scaled = []  # D / C(n, m) for m = 0..n
    c = 1  # C(n, m)
    for m in range(n + 1):
        scaled.append(d // c)
        c = c * (n - m) // (m + 1)
    first = sum(next_row[m + 1] * row[n - m] * scaled[m] for m in range(1, n))
    second = sum(row[m] * next_row[n - m + 1] * scaled[m - 1] for m in range(1, n + 1))
    return Fraction(lcm + (n + 1) * first - n * second, lcm)


def alternating_double_sum(k: int) -> int:
    """sum_{i=0}^{k-1} sum_{l=0}^{k-i-1} (-1)^(i+l) C(2k, l) (k-i-l)^(2k-1).

    Every term is added, over the same i and l in the same order; only the
    powers m^(2k-1), m = 0..k, and the binomials C(2k, l), l = 0..k-1, are
    each computed once.  C(2k, l) is updated step by step, and each division
    is exact.
    """
    check_at_least("k", k, 1)
    powers = [m ** (2 * k - 1) for m in range(k + 1)]
    binomials = []
    c = 1  # C(2k, l)
    for l in range(k):
        binomials.append(c)
        c = c * (2 * k - l) // (l + 1)
    total = 0
    for i in range(k):
        for l in range(k - i):
            term = binomials[l] * powers[k - i - l]
            total += -term if (i + l) & 1 else term
    return total


def bernoulli_alternating(k: int) -> Fraction:
    """(-1)^(k-1) k / (2^(2(k-1)) (2^(2k) - 1)) times the alternating double
    sum, evaluated exactly as published.

    As published this does NOT reproduce B_{2k}: already at k=1 it gives 1/3
    against B_2 = 1/6, and no single prefactor tweak repairs both k=1 and
    k=2.  The verifier reports the mismatch instead of this module silently
    "fixing" the formula.
    """
    check_at_least("k", k, 1)
    prefactor = Fraction(
        (-1) ** (k - 1) * k, 2 ** (2 * (k - 1)) * (2 ** (2 * k) - 1)
    )
    return prefactor * alternating_double_sum(k)


def stirling_cells(max_n: int, methods: Iterable[Method]) -> Iterator[Cells]:
    """Yield, for n = 0..max_n in order, the cells that `methods` read at n:
    the diagonals of `stirling_diagonals(max_n)`, the consecutive pairs of
    `stirling_rows(max_n + 1)` and the diagonals of
    `associated_diagonals(max_n)`, each stream advanced one step per n."""
    check_at_least("max_n", max_n, 0)
    reads = {ROUTES[m].reads for m in methods}
    streams: dict[Reads, Iterator] = {}
    if Reads.DIAGONAL in reads:
        streams[Reads.DIAGONAL] = stirling_diagonals(max_n)
    if Reads.ROWS in reads:
        streams[Reads.ROWS] = itertools.pairwise(stirling_rows(max_n + 1))
    if Reads.ASSOCIATED in reads:
        streams[Reads.ASSOCIATED] = associated_diagonals(max_n)
    for _ in range(max_n + 1):
        yield {spec: next(stream) for spec, stream in streams.items()}


def cells_at(n: int, methods: Iterable[Method]) -> Cells:
    """The last item of `stirling_cells(n, methods)`."""
    check_at_least("n", n, 0)
    return collections.deque(stirling_cells(n, methods), maxlen=1).pop()


def bernoulli(n: int, method: Method | str, cells: Cells | None = None) -> Fraction:
    """Compute B_n by the chosen method.

    Raises UnsupportedIndexError when the method does not define B_n; the
    message lists the methods that do.  `cells` is the item of
    `stirling_cells` at n for a set of methods that includes this one; when
    omitted, the call streams the cells its own route reads.
    """
    if not isinstance(method, Method):
        method = Method(method)
    check_at_least("n", n, 0)
    if not supports(method, n):
        raise UnsupportedIndexError(n, method)
    route = ROUTES[method]
    if route.reads is None:
        return route.compute(n, None)
    if cells is None:
        cells = cells_at(n, (method,))
    return route.compute(n, cells[route.reads])
