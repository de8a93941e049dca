import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import pytest

from bernstir.bernoulli import (
    ROUTES,
    Method,
    UnsupportedIndexError,
    alternating_double_sum,
    bernoulli,
    bernoulli_alternating,
    bernoulli_bell,
    bernoulli_double_stirling,
    bernoulli_guo_qi,
    bernoulli_logan,
    bernoulli_oracle,
    bernoulli_theorem,
    cells_at,
    stirling_cells,
    supported_methods,
    supports,
)
from bernstir.bell import bell_zero_one
from bernstir.series import bernoulli_series
from bernstir.stirling import associated_diagonals, stirling_diagonals
from bernstir.verify import cross_verify

from oracles import (
    alternating_double_sum_verbatim,
    alternating_fraction,
    bell_fraction,
    bell_over_diagonal,
    double_stirling_fraction,
    guo_qi_fraction,
    logan_fraction,
    power_sum_coeffs,
    power_sum_coeffs_fraction,
    power_sum_coeffs_solved,
    power_sum_fractions,
    stirling_explicit,
    theorem_fraction,
)


def diagonal(n):
    """The cells S(n+i, i), 0 <= i <= n, from the explicit sum."""
    return [stirling_explicit(n + i, i) for i in range(n + 1)]


def rows(n):
    """Rows n and n+1 of the triangle, from the explicit sum."""
    return tuple([stirling_explicit(m, k) for k in range(m + 1)] for m in (n, n + 1))


def associated(n):
    """The cells S_2(n+k, k), 0 <= k <= n, each one from the closed form
    B_{n+k,k}(0, 1, ..., 1) over the explicit diagonal n."""
    cells = diagonal(n)
    return [int(n == 0)] + [bell_zero_one(n + k, k, cells) for k in range(1, n + 1)]


# each Stirling stream a route reads, and its item n from the explicit sum
EXPLICIT_READS = {
    ROUTES[Method.THEOREM].reads: diagonal,
    ROUTES[Method.LOGAN].reads: rows,
    ROUTES[Method.BELL].reads: associated,
}


def test_theorem_known_values():
    assert bernoulli_theorem(0, diagonal(0)) == 1
    assert bernoulli_theorem(1, diagonal(1)) == Fraction(-1, 2)
    assert bernoulli_theorem(2, diagonal(2)) == Fraction(1, 6)  # 0 - 1 + 7/6
    assert bernoulli_theorem(3, diagonal(3)) == 0  # -3/2 + 6 - 9/2


def test_theorem_table_too_small():
    with pytest.raises(ValueError):
        bernoulli_theorem(4, diagonal(4)[:4])  # S(4+i, i) for i <= 3: a triangle to n = 7


def test_bell_sum_known_values():
    assert bernoulli_bell(1, [0, 1]) == Fraction(-1, 2)
    assert bernoulli_bell(2, [0, 1, 3]) == Fraction(1, 6)  # (-4*1 + 2*3)/12
    assert bernoulli_bell(5, cells_at(5, [Method.BELL])[associated_diagonals]) == 0
    with pytest.raises(ValueError):
        bernoulli_bell(0, [1])


def test_logan_known_values():
    assert bernoulli_logan(1, rows(1)[0]) == Fraction(-1, 2)
    assert bernoulli_logan(2, rows(2)[0]) == Fraction(1, 6)  # -1/2 + 2/3
    assert bernoulli_logan(4, rows(4)[0]) == Fraction(-1, 30)
    with pytest.raises(ValueError):
        bernoulli_logan(5, [0, 1, 15, 25, 10])  # S(5, 5) missing


def test_power_sum_known_coefficients():
    assert power_sum_coeffs(0) == (0, 1)
    assert power_sum_coeffs(2) == (
        0,
        Fraction(1, 6),
        Fraction(1, 2),
        Fraction(1, 3),
    )
    assert power_sum_coeffs(3) == (0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def test_power_sum_polynomial_identity():
    for p in range(13):
        coeffs = power_sum_coeffs(p)
        assert coeffs[0] == 0
        assert len(coeffs) == p + 2
        for n in range(1, p + 4):
            direct = sum(m**p for m in range(1, n + 1))
            poly = sum(a * n**m for m, a in enumerate(coeffs))
            assert poly == direct, (p, n)


def test_power_sum_matches_fraction_solver():
    for p in range(81):
        expected = power_sum_coeffs_fraction(p)
        assert power_sum_coeffs(p) == expected, p
        assert power_sum_coeffs_solved(p) == expected, p  # the reference below


def test_guo_qi_equals_the_fraction_transcription_on_fraction_coefficients():
    # the route's integer core against Fraction arithmetic on the streamed
    # coefficients, for k = 1..150; the coefficients equal the top-down solve
    # wherever it is checked, and every value equals the oracle series
    series = bernoulli_series(300)
    for n, numerators in enumerate(ROUTES[Method.GUO_QI].reads(300)):
        if 1 <= n <= 61:
            assert power_sum_fractions(numerators) == power_sum_coeffs_solved(n - 1), n
        if n >= 2 and not n % 2:
            k = n // 2
            value = bernoulli_guo_qi(k, numerators)
            assert value == guo_qi_fraction(k, power_sum_fractions(numerators)), k
            assert value == series[n], k


def test_guo_qi_known_values():
    # (2k)! A_m for x^2/2 + x/2, x^4/4 + x^3/2 + x^2/4 and
    # x^6/6 + x^5/2 + 5x^4/12 - x^2/12, the sums of m, m^3 and m^5
    assert bernoulli_guo_qi(1, (0, 1, 1)) == Fraction(1, 6)  # 1/2 - 1/3, empty sum
    assert bernoulli_guo_qi(2, (0, 0, 6, 12, 6)) == Fraction(-1, 30)
    assert bernoulli_guo_qi(3, (0, 0, -60, 0, 300, 360, 120)) == Fraction(1, 42)
    with pytest.raises(ValueError):
        bernoulli_guo_qi(0, ())


def test_double_stirling_known_values():
    # k=1 by hand: 1 + 3/2 - (2/3)*(3 + 1/2)
    assert bernoulli_double_stirling(1, rows(2)) == Fraction(1, 6)
    assert bernoulli_double_stirling(2, rows(4)) == Fraction(-1, 30)
    assert bernoulli_double_stirling(5, rows(10)) == Fraction(5, 66)
    with pytest.raises(ValueError):
        bernoulli_double_stirling(4, rows(7))  # rows 7 and 8, not 8 and 9


def test_alternating_evaluates_verbatim():
    assert alternating_double_sum(1) == 1  # single term C(2,0)*1^1
    assert alternating_double_sum(2) == 3  # 8 - 4 - 1
    assert bernoulli_alternating(1) == Fraction(1, 3)  # disagrees with B_2 = 1/6
    assert bernoulli_alternating(1) != bernoulli_oracle(2)


def test_alternating_double_sum_equals_verbatim_sum():
    for k in range(1, 61):
        assert alternating_double_sum(k) == alternating_double_sum_verbatim(k), k


def test_alternating_equals_the_published_expression():
    # the prefactor too: at k = 1 it is 1 whatever its powers of 2 and -1
    for k in range(1, 61):
        assert bernoulli_alternating(k) == alternating_fraction(k), k


def test_oracle_known_values():
    assert bernoulli_oracle(0) == 1
    assert bernoulli_oracle(12) == Fraction(-691, 2730)


def test_dispatcher_values():
    assert bernoulli(12, Method.THEOREM) == Fraction(-691, 2730)
    assert bernoulli(0, "oracle") == 1
    assert bernoulli(7, Method.LOGAN) == 0
    cells = {reads: item(40) for reads, item in EXPLICIT_READS.items()}
    assert bernoulli(40, Method.THEOREM, cells=cells) == bernoulli_series(40)[40]


def test_dispatcher_rejects_unsupported_index():
    with pytest.raises(UnsupportedIndexError) as info:
        bernoulli(3, "guo-qi")
    message = str(info.value)
    assert "even n >= 2" in message
    # the error names the methods that do support the index
    for name in ("oracle", "theorem", "bell", "logan"):
        assert name in message
    with pytest.raises(UnsupportedIndexError):
        bernoulli(0, Method.BELL)
    with pytest.raises(ValueError):
        bernoulli(-1, Method.ORACLE)
    with pytest.raises(ValueError):
        bernoulli(2, "no-such-method")


@pytest.mark.parametrize(
    "methods, streams",
    [
        ([Method.LOGAN, Method.DOUBLE_STIRLING], 1),
        (Method, 4),
        ([Method.GUO_QI, Method.ORACLE], 1),
    ],
)
def test_routes_that_read_the_same_cells_share_one_stream(methods, streams):
    for cells in stirling_cells(3, methods):
        assert len(cells) == streams


# Each cell-length check, with how to cut the route's item one cell short
# at the place it checks.
CELL_CHECKS = {
    "theorem": (Method.THEOREM, lambda c: c[:-1]),
    "bell": (Method.BELL, lambda c: c[:-1]),
    "logan": (Method.LOGAN, lambda c: (c[0][:-1], c[1])),
    "double-stirling-row": (Method.DOUBLE_STIRLING, lambda c: (c[0][:-1], c[1])),
    "double-stirling-next-row": (Method.DOUBLE_STIRLING, lambda c: (c[0], c[1][:-1])),
    "guo-qi": (Method.GUO_QI, lambda c: c[:-1]),
}


@pytest.mark.parametrize("method, cut", CELL_CHECKS.values(), ids=list(CELL_CHECKS))
def test_each_cell_length_check_is_exact(method, cut):
    # item 6 of the stream holds exactly the cells the route needs at 6
    cells = cells_at(6, [method])[ROUTES[method].reads]
    assert ROUTES[method].compute(6, cells) == bernoulli_series(6)[6]
    with pytest.raises(ValueError, match=r"^needs \d+ values, got \d+$"):
        ROUTES[method].compute(6, cut(cells))


@pytest.mark.parametrize("methods", [[Method.THEOREM], [], list(Method)])
def test_cell_streams_reject_a_negative_index(methods):
    with pytest.raises(ValueError, match="max_n must be >= 0, got -1"):
        next(stirling_cells(-1, methods))
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        cells_at(-1, methods)


def test_supports_and_domains():
    assert supports(Method.ORACLE, 0)
    assert supports(Method.THEOREM, 0)
    assert not supports(Method.BELL, 0)
    assert not supports(Method.GUO_QI, 3)
    assert supports(Method.GUO_QI, 4)
    assert supported_methods(0) == [Method.ORACLE, Method.THEOREM]
    assert len(supported_methods(2)) == 7


def test_methods_agree_at_small_scale():
    # full-depth agreement to n=40 lives in the acceptance suite
    series = bernoulli_series(16)
    for n, cells in enumerate(stirling_cells(16, Method)):
        for method in supported_methods(n):
            if method is Method.ALTERNATING:
                continue
            assert bernoulli(n, method, cells=cells) == series[n], (n, method)


def test_even_only_methods_never_return_zero_for_odd():
    for method in (Method.GUO_QI, Method.DOUBLE_STIRLING, Method.ALTERNATING):
        for n in (1, 3, 9):
            with pytest.raises(UnsupportedIndexError):
                bernoulli(n, method)


@pytest.mark.parametrize("method", [Method.THEOREM, Method.BELL])
def test_diagonal_routes_without_table_match_full_table(method):
    indices = (0, 1, 2, 37, 64, 120)
    series = bernoulli_series(max(indices))
    for n in indices:
        if not supports(method, n):
            continue
        value = bernoulli(n, method)
        reads = ROUTES[method].reads
        assert value == bernoulli(n, method, cells={reads: EXPLICIT_READS[reads](n)}), n
        assert value == series[n], n


def test_theorem_query_memory_is_linear():
    # the whole triangle to n = 600 alone takes about 40 MB
    tracemalloc.start()
    try:
        bernoulli(300, Method.THEOREM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_bell_query_memory_is_linear():
    # the stream holds one column of S_2(n+k, k), as the theorem's holds S(n+i, i)
    tracemalloc.start()
    try:
        bernoulli(300, Method.BELL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("method", [Method.LOGAN, Method.DOUBLE_STIRLING])
def test_row_query_memory_is_linear(method):
    # the whole triangle to n = 400 alone takes about 12 MB
    tracemalloc.start()
    try:
        bernoulli(400, method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_cross_verify_memory_streams_the_cells():
    # the whole triangle to n = 240 alone takes about 2.5 MB
    tracemalloc.start()
    try:
        report = cross_verify(120, (), (Method.THEOREM, Method.LOGAN, Method.DOUBLE_STIRLING))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1024 * 1024


# Each integer kernel against its Fraction transcription, both called as
# f(n, cells) on the cells of their route; the even-only routes take k = n/2.
INTEGER_KERNELS = {
    Method.THEOREM: (bernoulli_theorem, theorem_fraction),
    Method.BELL: (bernoulli_bell, bell_fraction),
    Method.LOGAN: (
        lambda n, c: bernoulli_logan(n, c[0]),
        lambda n, c: logan_fraction(n, c[0]),
    ),
    Method.DOUBLE_STIRLING: (
        lambda n, c: bernoulli_double_stirling(n // 2, c),
        lambda n, c: double_stirling_fraction(n // 2, c),
    ),
    Method.GUO_QI: (
        lambda n, c: bernoulli_guo_qi(n // 2, c),
        lambda n, c: guo_qi_fraction(n // 2, power_sum_fractions(c)),
    ),
}


@pytest.mark.parametrize("method", list(INTEGER_KERNELS), ids=lambda m: m.value)
def test_integer_kernel_equals_fraction_sum(method):
    # both sums on the streamed cells, and the oracle series as the reference
    kernel, fraction_sum = INTEGER_KERNELS[method]
    reads = ROUTES[method].reads
    series = bernoulli_series(150)
    for n, cells in enumerate(stirling_cells(150, [method])):
        if supports(method, n):
            assert kernel(n, cells[reads]) == fraction_sum(n, cells[reads]) == series[n], n


@pytest.mark.parametrize("method", list(INTEGER_KERNELS), ids=lambda m: m.value)
def test_integer_kernel_equals_fraction_sum_at_400(method):
    kernel, fraction_sum = INTEGER_KERNELS[method]
    cells = cells_at(400, [method])[ROUTES[method].reads]
    assert kernel(400, cells) == fraction_sum(400, cells)


def test_integer_kernels_at_first_index():
    # the common denominators degenerate here: (2n)!/n! is 1 at n = 0 and
    # 2 at n = 1, lcm(1, ..., n+1) is 2 for logan at n = 1, and the guo-qi
    # tail is empty at n = 2
    for method, (kernel, fraction_sum) in INTEGER_KERNELS.items():
        n = ROUTES[method].first
        reads = ROUTES[method].reads
        expected = bernoulli_series(n)[n]
        streamed = cells_at(n, [method])[reads]
        # the Stirling cells from the explicit sum, the power sums as streamed
        explicit = EXPLICIT_READS[reads](n) if reads in EXPLICIT_READS else streamed
        assert kernel(n, streamed) == fraction_sum(n, explicit) == expected, method


class CountingSequence(Sequence):
    """A sequence that counts the cells read from it."""

    def __init__(self, cells):
        self.cells = cells
        self.reads = 0

    def __len__(self):
        return len(self.cells)

    def __getitem__(self, index):
        got = self.cells[index]
        self.reads += len(got) if isinstance(index, slice) else 1
        return got


def test_bell_reads_each_diagonal_cell_once():
    for n in (1, 2, 7, 30):
        diagonal = CountingSequence(cells_at(n, [Method.BELL])[associated_diagonals])
        assert bernoulli_bell(n, diagonal) == bernoulli_series(n)[n]
        assert diagonal.reads <= n + 1, n


def test_bell_equals_the_route_over_the_stirling_diagonal():
    streams = zip(stirling_cells(150, [Method.BELL]), stirling_diagonals(150))
    for n, (cells, diagonal) in enumerate(streams):
        if n:
            value = bernoulli_bell(n, cells[associated_diagonals])
            assert value == bell_over_diagonal(n, diagonal), n
