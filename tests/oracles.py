"""Brute-force combinatorial oracles.

Everything here is deliberately naive enumeration, independent of the code
paths under test, and intended for small n only (set partitions up to
n = 10 or so).  Two helpers read the library instead: `power_sum_coeffs`
divides an item of the power-sum stream that `guo-qi` reads, and
`report_to_dict` writes values with its `format_rational`.  The two
power-sum solves below, `power_sum_coeffs_fraction` and
`power_sum_coeffs_solved`, do not use the stream's step rule, so they check
it.
"""

from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Sequence

from bernstir.bernoulli import ROUTES, cells_at
from bernstir.exact import format_rational

Block = tuple[int, ...]
Partition = tuple[Block, ...]


def set_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0, ..., n-1}: each element joins an existing block
    or opens a new one."""

    def rec(i: int) -> Iterator[list[Block]]:
        if i == n:
            yield []
            return
        for rest in rec(i + 1):
            for j in range(len(rest)):
                yield rest[:j] + [rest[j] + (i,)] + rest[j + 1 :]
            yield rest + [(i,)]

    for part in rec(0):
        yield tuple(part)


def count_partitions_into(n: int, k: int, min_block: int = 1) -> int:
    """Partitions of an n-set into exactly k blocks, each of size >= min_block."""
    return sum(
        1
        for part in set_partitions(n)
        if len(part) == k and all(len(b) >= min_block for b in part)
    )


def stirling_explicit(n: int, k: int) -> int:
    """S(n, k) = (1/k!) * sum_{l=1}^{k} (-1)^(k-l) C(k, l) l^n.

    Extended to k = 0 and k > n by the triangle conventions.  The alternating
    sum is exactly divisible by k!; a failed division means the implementation
    is broken, not the input.
    """
    if n < 0 or k < 0:
        raise ValueError("S(n, k) needs n, k >= 0, got (%d, %d)" % (n, k))
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    total = sum((-1) ** (k - l) * comb(k, l) * l**n for l in range(1, k + 1))
    q, r = divmod(total, factorial(k))
    if r:
        raise RuntimeError(
            "alternating sum for S(%d, %d) is not divisible by %d!" % (n, k, k)
        )
    return q


def bell_by_set_partitions(n: int, k: int, xs: Sequence[Fraction | int]) -> Fraction:
    """B_{n,k}(x_1, ..., x_{n-k+1}) straight from its combinatorial meaning:
    sum over partitions into k blocks of the product of x_{block size}."""
    vals = [Fraction(x) for x in xs]
    total = Fraction(0)
    for part in set_partitions(n):
        if len(part) != k:
            continue
        prod = Fraction(1)
        for block in part:
            prod *= vals[len(block) - 1]
        total += prod
    return total


def power_sum_coeffs(p: int) -> tuple[Fraction, ...]:
    """The coefficients A_0..A_{p+1} of the polynomial identity
    sum_{m=1}^{n} m^p = sum_{m=0}^{p+1} A_m n^m, as reduced Fractions:
    item p+1 of the library's stream `ROUTES["guo-qi"].reads` over
    (p+1)!."""
    return power_sum_fractions(cells_at(p + 1, ["guo-qi"])[ROUTES["guo-qi"].reads])


def power_sum_fractions(numerators: Sequence[int]) -> tuple[Fraction, ...]:
    """An item c_0..c_n of the library's power-sum stream as the Fractions
    A_j = c_j/n!."""
    scale = factorial(len(numerators) - 1)
    return tuple(Fraction(c, scale) for c in numerators)


def power_sum_coeffs_fraction(p: int) -> tuple[Fraction, ...]:
    """Monomial coefficients A_0..A_{p+1} of sum_{m=1}^{n} m^p, solved by
    Newton interpolation on the nodes 0..p+1 with Fraction divided
    differences throughout."""
    size = p + 2
    ys = [Fraction(0)]
    acc = 0
    for node in range(1, size):
        acc += node**p
        ys.append(Fraction(acc))
    # divided differences; nodes are 0..p+1 so x_j - x_{j-level} = level
    dd = ys
    for level in range(1, size):
        for j in range(size - 1, level - 1, -1):
            dd[j] = (dd[j] - dd[j - 1]) / level
    # expand the Newton form into monomial coefficients
    poly = [dd[size - 1]]
    for j in range(size - 2, -1, -1):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for m, c in enumerate(poly):
            nxt[m + 1] += c
            nxt[m] -= j * c
        nxt[0] += dd[j]
        poly = nxt
    return tuple(poly)


def power_sum_coeffs_solved(p: int) -> tuple[Fraction, ...]:
    """The same A_0..A_{p+1} as `power_sum_coeffs_fraction`, solved top down
    from P(x) - P(x-1) = x^p and P(0) = 0 for P(x) = sum_m A_m x^m.

    x^m - (x-1)^m = sum_{j<m} (-1)^(m-j+1) C(m, j) x^j, so the coefficient
    of x^j gives (j+1) A_{j+1} = [j = p] + sum_{m>j+1} (-1)^(m-j) C(m, j) A_m;
    terms whose A_m solved to 0 are skipped."""
    a = [Fraction(0)] * (p + 2)
    a[p + 1] = Fraction(1, p + 1)
    for j in range(p - 1, -1, -1):
        acc = Fraction(0)
        for m in range(j + 2, p + 2):
            if a[m]:
                term = comb(m, j) * a[m]
                acc += -term if (m - j) & 1 else term
        a[j + 1] = acc / (j + 1)
    return tuple(a)


# Fraction transcriptions of the Stirling routes, one Fraction per term, as
# the routes were written before they were summed in integers.  Each reads
# the same cells as its route: diagonal[i] = S(n+i, i), row[k] = S(n, k),
# rows = (row n, row n+1) and associated[k] = S_2(n+k, k).


def theorem_fraction(n: int, diagonal) -> Fraction:
    total = Fraction(0)
    for i in range(n + 1):
        term = Fraction(comb(n + 1, i + 1), comb(n + i, i))
        total += (-1) ** i * term * diagonal[i]
    return total


def bell_fraction(n: int, associated) -> Fraction:
    total = Fraction(0)
    for k in range(1, n + 1):
        bell_value = Fraction(factorial(n), factorial(n + k)) * associated[k]
        total += (-1) ** k * factorial(k) * bell_value
    return total


def bell_over_diagonal(n: int, diagonal) -> Fraction:
    """The `bell` route as it read the diagonal S(n+i, i): each Bell value is
    n!/(n+k)! T_k with T_k = sum_j (-1)^j C(n+k, j) S(n+k-j, k-j), and the
    terms u_k T_k, u_k = k! (2n)!/(n+k)!, are summed over (2n)!/n!."""
    denom = factorial(2 * n) // factorial(n)
    u = denom // (n + 1)  # u_1
    total = 0
    for k in range(1, n + 1):
        t = 0
        c = 1  # C(n+k, j)
        for j in range(k + 1):
            term = c * diagonal[k - j]  # S(n+k-j, k-j)
            t += -term if j & 1 else term
            c = c * (n + k - j) // (j + 1)
        term = u * t
        total += -term if k & 1 else term
        u = u * (k + 1) // (n + k + 1)
    return Fraction(total, denom)


def alternating_double_sum_verbatim(k: int) -> int:
    """The alternating double sum as one generator expression, every power
    and binomial computed afresh for each term."""
    return sum(
        (-1) ** (i + l) * comb(2 * k, l) * (k - i - l) ** (2 * k - 1)
        for i in range(k)
        for l in range(k - i)
    )


def alternating_fraction(k: int) -> Fraction:
    """The published alternating expression, prefactor included:
    (-1)^(k-1) k / (2^(2(k-1)) (2^(2k) - 1)) times the double sum."""
    prefactor = Fraction((-1) ** (k - 1) * k, 2 ** (2 * (k - 1)) * (2 ** (2 * k) - 1))
    return prefactor * alternating_double_sum_verbatim(k)


def logan_fraction(n: int, row) -> Fraction:
    return sum(
        (-1) ** k * Fraction(factorial(k), k + 1) * row[k]
        for k in range(1, n + 1)
    )


def guo_qi_fraction(k: int, coeffs: Sequence[Fraction]) -> Fraction:
    """`coeffs` are the power-sum coefficients for exponent 2k-1."""
    total = Fraction(1, 2) - Fraction(1, 2 * k + 1)
    if k > 1:
        total -= (
            2 * k * sum(coeffs[2 * (k - i)] / (2 * (k - i) + 1) for i in range(1, k))
        )
    return total


def double_stirling_fraction(k: int, rows) -> Fraction:
    n = 2 * k
    row, next_row = rows
    first = sum(
        Fraction(next_row[m + 1] * row[n - m], comb(n, m))
        for m in range(1, n)
    )
    second = sum(
        Fraction(row[m] * next_row[n - m + 1], comb(n, m - 1))
        for m in range(1, n + 1)
    )
    return 1 + first - Fraction(n, n + 1) * second


# Fraction transcriptions of the two Bell evaluators, one Fraction per step,
# as they were written before they ran in integers over q^k.


def bell_partition_sum_fraction(n: int, k: int, xs: Sequence[Fraction | int]) -> Fraction:
    m = n - k + 1
    xs = [Fraction(x) for x in xs]
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
        total += (n_fact // denom) * prod

    def search(size: int, weight: int, count: int) -> None:
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


def bell_recurrence_fraction(n: int, k: int, xs: Sequence[Fraction | int]) -> Fraction:
    xs = [Fraction(x) for x in xs]
    memo: dict[tuple[int, int], Fraction] = {}

    def rec(m: int, j: int) -> Fraction:
        if j == 0 or m < j:
            return Fraction(1) if m == 0 and j == 0 else Fraction(0)
        key = (m, j)
        cached = memo.get(key)
        if cached is None:
            cached = Fraction(0)
            for i in range(1, m - j + 2):
                cached += comb(m - 1, i - 1) * xs[i - 1] * rec(m - i, j - 1)
            memo[key] = cached
        return cached

    return rec(n, k)


# The Cauchy product and the reciprocal of truncated power series on
# coefficient lists, one Fraction per term.


def series_mul_fraction(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(n - i + 1):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def series_reciprocal_fraction(c: Sequence[Fraction]) -> list[Fraction]:
    inv0 = 1 / Fraction(c[0])
    out = [inv0]
    for j in range(1, len(c)):
        acc = Fraction(0)
        for i in range(1, j + 1):
            ci = c[i]
            if ci:
                acc += ci * out[j - i]
        out.append(-inv0 * acc)
    return out


def bernoulli_long_division_fraction(order: int) -> list[Fraction]:
    """B_0..B_order from the reciprocal of sum_j t^j/(j+1)!."""
    inv = series_reciprocal_fraction(
        [Fraction(1, factorial(j + 1)) for j in range(order + 1)]
    )
    return [inv[j] * factorial(j) for j in range(order + 1)]


def report_to_dict(report) -> dict:
    """A `VerificationReport` as the document its `to_json` writes, for
    json.dumps(..., sort_keys=True, indent=2) to render as the reference.
    Values are written by `format_rational`, as the package writes them."""
    summary = {
        "checked": report.checked,
        "mismatches": [[n, m] for n, m in report.mismatches],
        "known_discrepancies": [[n, m] for n, m in report.known_discrepancies],
    }
    if report.identity_counts:
        summary["identities"] = {
            name: {"checked": c, "passed": p} for name, c, p in report.identity_counts
        }
    return {
        "max_n": report.max_n,
        "entries": [
            {"n": e.n, "method": e.method, "agrees_with_oracle": e.agrees_with_oracle,
             "value": None if e.value is None else format_rational(e.value)}
            for e in report.entries
        ],
        "summary": summary,
    }
