import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import pytest

from bernstir.bernoulli import (
    ROUTES,
    Method,
    Reads,
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
from bernstir.stirling import StirlingTable, stirling_diagonals
from bernstir.verify import cross_verify

from oracles import (
    alternating_double_sum_verbatim,
    bell_fraction,
    bell_over_diagonal,
    double_stirling_fraction,
    guo_qi_fraction,
    logan_fraction,
    power_sum_coeffs,
    power_sum_coeffs_fraction,
    power_sum_coeffs_solved,
    theorem_fraction,
)


def diagonal(table, n):
    """The cells S(n+i, i), 0 <= i <= n, that `table` covers."""
    return [table.value(n + i, i) for i in range(min(n, table.max_n - n) + 1)]


def rows(table, n):
    """Rows n and n+1 of `table`."""
    return tuple([table.value(m, k) for k in range(m + 1)] for m in (n, n + 1))


def associated(table, n):
    """The cells S_2(n+k, k), 0 <= k <= n, that `table` covers, each one
    from the closed form B_{n+k,k}(0, 1, ..., 1) over diagonal n of `table`."""
    cells = diagonal(table, n)
    return [int(n == 0)] + [bell_zero_one(n + k, k, cells) for k in range(1, len(cells))]


TABLE_READS = {Reads.DIAGONAL: diagonal, Reads.ROWS: rows, Reads.ASSOCIATED: associated}


def table_cells(table, n, specs=tuple(Reads)):
    """What stirling_cells yields at n for the cell specs `specs`, read from
    `table` instead."""
    return {spec: TABLE_READS[spec](table, n) for spec in specs if spec is not None}


@pytest.fixture(scope="module")
def table():
    return StirlingTable(40)


def test_theorem_known_values(table):
    assert bernoulli_theorem(0, diagonal(table, 0)) == 1
    assert bernoulli_theorem(1, diagonal(table, 1)) == Fraction(-1, 2)
    assert bernoulli_theorem(2, diagonal(table, 2)) == Fraction(1, 6)  # 0 - 1 + 7/6
    assert bernoulli_theorem(3, diagonal(table, 3)) == 0  # -3/2 + 6 - 9/2


def test_theorem_table_too_small():
    with pytest.raises(ValueError):
        bernoulli_theorem(4, diagonal(StirlingTable(7), 4))


def test_bell_sum_known_values():
    assert bernoulli_bell(1, [0, 1]) == Fraction(-1, 2)
    assert bernoulli_bell(2, [0, 1, 3]) == Fraction(1, 6)  # (-4*1 + 2*3)/12
    assert bernoulli_bell(5, cells_at(5, [Method.BELL])[Reads.ASSOCIATED]) == 0
    with pytest.raises(ValueError):
        bernoulli_bell(0, [1])


def test_logan_known_values(table):
    assert bernoulli_logan(1, rows(table, 1)[0]) == Fraction(-1, 2)
    assert bernoulli_logan(2, rows(table, 2)[0]) == Fraction(1, 6)  # -1/2 + 2/3
    assert bernoulli_logan(4, rows(table, 4)[0]) == Fraction(-1, 30)
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
    # the whole route, integer core included, against Fraction arithmetic only
    for k in range(1, 151):
        coeffs = power_sum_coeffs_solved(2 * k - 1)
        assert bernoulli_guo_qi(k) == guo_qi_fraction(k, coeffs), k


def test_guo_qi_known_values():
    assert bernoulli_guo_qi(1) == Fraction(1, 6)  # 1/2 - 1/3, empty sum
    assert bernoulli_guo_qi(2) == Fraction(-1, 30)
    assert bernoulli_guo_qi(3) == Fraction(1, 42)
    with pytest.raises(ValueError):
        bernoulli_guo_qi(0)


def test_double_stirling_known_values(table):
    # k=1 by hand: 1 + 3/2 - (2/3)*(3 + 1/2)
    assert bernoulli_double_stirling(1, rows(table, 2)) == Fraction(1, 6)
    assert bernoulli_double_stirling(2, rows(table, 4)) == Fraction(-1, 30)
    assert bernoulli_double_stirling(5, rows(table, 10)) == Fraction(5, 66)
    with pytest.raises(ValueError):
        bernoulli_double_stirling(4, rows(StirlingTable(8), 7))  # a table to 8 lacks row 9


def test_alternating_evaluates_verbatim():
    assert alternating_double_sum(1) == 1  # single term C(2,0)*1^1
    assert alternating_double_sum(2) == 3  # 8 - 4 - 1
    assert bernoulli_alternating(1) == Fraction(1, 3)  # disagrees with B_2 = 1/6
    assert bernoulli_alternating(1) != bernoulli_oracle(2)


def test_alternating_double_sum_equals_verbatim_sum():
    for k in range(1, 61):
        assert alternating_double_sum(k) == alternating_double_sum_verbatim(k), k


def test_oracle_known_values():
    assert bernoulli_oracle(0) == 1
    assert bernoulli_oracle(12) == Fraction(-691, 2730)


def test_dispatcher_values(table):
    assert bernoulli(12, Method.THEOREM) == Fraction(-691, 2730)
    assert bernoulli(0, "oracle") == 1
    assert bernoulli(7, Method.LOGAN) == 0
    cells = table_cells(StirlingTable(80), 40)
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
        cells = table_cells(StirlingTable(2 * n + 1), n, [ROUTES[method].reads])
        assert value == bernoulli(n, method, cells=cells), n
        assert value == series[n], n


def test_theorem_query_memory_is_linear():
    # the full StirlingTable(600) alone takes about 40 MB
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
    # the full StirlingTable(400) alone takes about 12 MB
    tracemalloc.start()
    try:
        bernoulli(400, method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_cross_verify_memory_streams_the_cells():
    # a shared StirlingTable(240) alone takes about 2.5 MB
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
        lambda n, c: bernoulli_guo_qi(n // 2),
        lambda n, c: guo_qi_fraction(n // 2, power_sum_coeffs(n - 1)),
    ),
}


@pytest.fixture(scope="module")
def table_300():
    return StirlingTable(300)


@pytest.mark.parametrize("method", list(INTEGER_KERNELS), ids=lambda m: m.value)
def test_integer_kernel_equals_fraction_sum(method, table_300):
    kernel, fraction_sum = INTEGER_KERNELS[method]
    reads = ROUTES[method].reads
    for n, cells in enumerate(stirling_cells(150, [method])):
        if not supports(method, n):
            continue
        expected = fraction_sum(n, table_cells(table_300, n, [reads]).get(reads))
        assert kernel(n, cells.get(reads)) == expected, n


@pytest.mark.parametrize("method", list(INTEGER_KERNELS), ids=lambda m: m.value)
def test_integer_kernel_equals_fraction_sum_at_400(method):
    kernel, fraction_sum = INTEGER_KERNELS[method]
    cells = cells_at(400, [method]).get(ROUTES[method].reads)
    assert kernel(400, cells) == fraction_sum(400, cells)


def test_integer_kernels_at_first_index():
    # the common denominators degenerate here: (2n)!/n! is 1 at n = 0 and
    # 2 at n = 1, lcm(1, ..., n+1) is 2 for logan at n = 1, and the guo-qi
    # tail is empty at n = 2
    table = StirlingTable(6)
    for method, (kernel, fraction_sum) in INTEGER_KERNELS.items():
        n = ROUTES[method].first
        reads = ROUTES[method].reads
        expected = bernoulli_series(n)[n]
        streamed = cells_at(n, [method]).get(reads)
        from_table = table_cells(table, n, [reads]).get(reads)
        assert kernel(n, streamed) == fraction_sum(n, from_table) == expected, method


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
        diagonal = CountingSequence(cells_at(n, [Method.BELL])[Reads.ASSOCIATED])
        assert bernoulli_bell(n, diagonal) == bernoulli_series(n)[n]
        assert diagonal.reads <= n + 1, n


def test_bell_equals_the_route_over_the_stirling_diagonal():
    streams = zip(stirling_cells(150, [Method.BELL]), stirling_diagonals(150))
    for n, (cells, diagonal) in enumerate(streams):
        if n:
            value = bernoulli_bell(n, cells[Reads.ASSOCIATED])
            assert value == bell_over_diagonal(n, diagonal), n
