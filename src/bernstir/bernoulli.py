"""Bernoulli numbers by six independent published formulas plus the series
oracle.  ``ROUTES``, keyed by wire name in sorted order, is the one place
that says what each method is: its domain, the stream it reads, how to call
it, and whether it is a known discrepancy.  Every function here takes method
names and looks them up through ``route_of``.  Every route but
``alternating`` reads a stream that ``stirling_cells`` advances in step
with n: Stirling cells or power-sum numerators as plain integer sequences,
or the oracle's B_n, so no caller holds the whole triangle or solves for a
single exponent.

All methods agree exactly with the oracle, with one deliberate exception:
the "alternating" double-sum formula is implemented verbatim from its
published form, which already disagrees at B_2 (it yields 1/3 instead of
1/6).  It is kept verbatim so that cross-verification documents the
discrepancy instead of masking it.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .exact import check_at_least, check_cells, echo_int, quote_rejected
from .series import bernoulli_series
from .stirling import associated_diagonals, stirling_diagonals, stirling_rows


def _row_pairs(max_n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield rows n and n+1 of the triangle, (S(n, 0..n), S(n+1, 0..n+1)),
    for n = 0..max_n."""
    return itertools.pairwise(stirling_rows(max_n + 1))


def _power_sums(max_n: int) -> Iterator[tuple[int, ...]]:
    """Yield, for n = 0..max_n, the integers c_j = n! A_j, j = 0..n, of the
    power-sum identity sum_{m=1}^{x} m^p = sum_j A_j x^j for p = n-1; item 0
    is empty.

    Differentiating P_p(x) - P_p(x-1) = x^p shows j A_j^(p) = p A_{j-1}^(p-1)
    for j >= 2, so c_j^(p) = (p+1) p c_{j-1}^(p-1)/j, an exact division.
    P_p(1) = 1 then gives c_1^(p) = (p+1)! - sum_{j>=2} c_j^(p), and c_0 = 0.
    No Bernoulli number enters, so the route built on it stays non-circular.
    """
    check_at_least("max_n", max_n, 0)
    coeffs: tuple[int, ...] = ()
    yield coeffs
    scale = 1  # (p+1)!
    for p in range(max_n):
        scale *= p + 1
        step = (p + 1) * p
        high = [step * c // j for j, c in enumerate(coeffs[1:], 2)]
        coeffs = (0, scale - sum(high), *high)
        yield coeffs


def _oracle_values(max_n: int) -> Iterator[Fraction]:
    """B_0..B_max_n by the series long division.  Not a generator: max_n is
    checked and the series built when the stream is created, through the
    module global, so a wrapper installed on `bernoulli_series` sees it."""
    check_at_least("max_n", max_n, 0)
    return iter(bernoulli_series(max_n))


class Route(NamedTuple):
    """One method: B_n is defined for n >= `first` (even n only when
    `even_only`), reads item n of the stream `reads(max_n)` (None: it reads
    no stream), and is `compute(n, cells)` on that item (the oracle's is B_n)."""

    first: int
    even_only: bool
    reads: Callable[[int], Iterator] | None
    compute: Callable[[int, Any], Fraction]
    known_discrepancy: bool = False


# The adapters name each route function at call time rather than holding it,
# so a wrapper installed on the module attribute sees dispatched calls too.
ROUTES: dict[str, Route] = {
    "alternating": Route(
        2, True, None, lambda n, c: bernoulli_alternating(n // 2), known_discrepancy=True
    ),
    "bell": Route(1, False, associated_diagonals, lambda n, c: bernoulli_bell(n, c)),
    "double-stirling": Route(
        2, True, _row_pairs, lambda n, c: bernoulli_double_stirling(n // 2, c)
    ),
    "guo-qi": Route(2, True, _power_sums, lambda n, c: bernoulli_guo_qi(n // 2, c)),
    "logan": Route(1, False, _row_pairs, lambda n, c: bernoulli_logan(n, c[0])),
    "oracle": Route(0, False, _oracle_values, lambda n, c: c),
    "theorem": Route(0, False, stirling_diagonals, lambda n, c: bernoulli_theorem(n, c)),
}


def route_of(method: str) -> Route:
    """The route named `method`; the one unknown-method ValueError otherwise."""
    try:
        return ROUTES[method]
    except KeyError:
        message = "unknown method %s; choose from: %s"
        raise ValueError(message % (quote_rejected(method), ", ".join(ROUTES))) from None


def supports(method: str, n: int) -> bool:
    """Whether `method` defines B_n at index n."""
    route = route_of(method)
    return n >= route.first and not (route.even_only and n % 2)


def supported_methods(n: int) -> list[str]:
    return [m for m in ROUTES if supports(m, n)]


class UnsupportedIndexError(ValueError):
    """A method asked for an index outside its domain.

    Even-only formulas are undefined at odd n, which is different from
    computing 0 there.
    """

    def __init__(self, n: int, method: str):
        self.n = n
        self.method = method
        route = ROUTES[method]
        domain = "even n >= 2" if route.even_only else "n >= %d" % route.first
        names = ", ".join(supported_methods(n))
        super().__init__(
            "method '%s' is defined for %s only; methods defined at n=%s: %s"
            % (method, domain, echo_int(n), names)
        )


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


def bernoulli_guo_qi(k: int, coeffs: Sequence[int]) -> Fraction:
    """B_{2k} = 1/2 - 1/(2k+1) - 2k * sum_{i=1}^{k-1} A_{2(k-i)} / (2(k-i)+1),
    where coeffs[m] holds c_m = (2k)! A_m for 0 <= m <= 2k.

    The A_m are the power-sum coefficients for exponent 2k-1.  That exponent
    choice is the one that reproduces B_4, B_6, ... exactly (exponent 2k does
    not), and the cross-verification suite revalidates it at every even index.

    Summed in integers: A_m = c_m/L! with L = 2k, so the tail
    sum_m A_m/(m+1) over m = 2, 4, ..., 2k-2 is sum_m c_m (M/(m+1)) over the
    one denominator L! M, where M = lcm(3, 5, ..., 2k-1).
    1/2 - 1/(2k+1) = (2k-1)/(2(2k+1)) joins it over 2(2k+1) L! M, and the
    value is one Fraction.
    """
    check_at_least("k", k, 1)
    n = 2 * k
    check_cells(coeffs, n + 1)
    tail, common = 0, 1  # the tail is tail/common
    if k > 1:
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


def stirling_cells(max_n: int, methods: Iterable[str]) -> Iterator[dict]:
    """Yield, for n = 0..max_n in order, the items that `methods` read at n,
    keyed by their routes' `reads`: one stream `reads(max_n)` per distinct
    generator, advanced one step per n, so routes that read the same cells
    share one stream.  The items are Stirling cells, the power-sum
    numerators that `guo-qi` reads, or the oracle's B_n."""
    check_at_least("max_n", max_n, 0)
    generators = {route_of(m).reads for m in methods} - {None}
    streams = {reads: reads(max_n) for reads in generators}
    for _ in range(max_n + 1):
        yield {reads: next(stream) for reads, stream in streams.items()}


def cells_at(n: int, methods: Iterable[str]) -> dict:
    """The last item of `stirling_cells(n, methods)`."""
    check_at_least("n", n, 0)
    return collections.deque(stirling_cells(n, methods), maxlen=1).pop()


def bernoulli(n: int, method: str, cells: dict | None = None) -> Fraction:
    """Compute B_n by the method named `method`.

    Raises UnsupportedIndexError when the method does not define B_n; the
    message lists the methods that do.  `cells` is the item of
    `stirling_cells` at n for a set of methods that includes this one; when
    omitted, the call streams the cells its own route reads.
    """
    route = route_of(method)
    check_at_least("n", n, 0)
    if not supports(method, n):
        raise UnsupportedIndexError(n, method)
    if route.reads is None:
        return route.compute(n, None)
    if cells is None:
        cells = cells_at(n, (method,))
    return route.compute(n, cells[route.reads])
