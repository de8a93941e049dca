import math

import pytest

from bernstir.bell import bell_reciprocal_args, bell_zero_one
from bernstir.stirling import (
    StirlingTable,
    associated_diagonals,
    stirling_diagonals,
    stirling_explicit,
    stirling_rows,
)

from oracles import count_partitions_into, set_partitions


def test_explicit_matches_partition_counts():
    assert stirling_explicit(4, 2) == count_partitions_into(4, 2) == 7
    assert stirling_explicit(6, 2) == count_partitions_into(6, 2) == 31
    assert stirling_explicit(5, 3) == count_partitions_into(5, 3) == 25


def test_explicit_diagonal():
    for n in range(21):
        assert stirling_explicit(n, n) == 1


def test_explicit_conventions():
    assert stirling_explicit(0, 0) == 1
    assert stirling_explicit(3, 0) == 0
    assert stirling_explicit(2, 5) == 0
    with pytest.raises(ValueError):
        stirling_explicit(-1, 0)


def test_table_small_values():
    table = StirlingTable(5)
    assert table.value(4, 2) == 7
    assert table.value(5, 3) == 25
    assert table.value(3, 0) == 0
    assert table.value(2, 4) == 0  # k > n convention
    assert table.max_n == 5


def test_table_structure_invariants():
    table = StirlingTable(30)
    for n in range(1, 31):
        assert table.value(n, 0) == 0
        assert table.value(n, 1) == 1
        assert table.value(n, n) == 1
        for k in range(n + 1):
            assert table.value(n, k) >= 0


def test_table_rejects_out_of_range():
    table = StirlingTable(4)
    with pytest.raises(ValueError):
        table.value(5, 2)
    with pytest.raises(ValueError):
        table.value(3, -1)
    with pytest.raises(ValueError):
        StirlingTable(-1)


def test_explicit_agrees_with_table_to_60():
    table = StirlingTable(60)
    for n in range(61):
        for k in range(n + 1):
            assert stirling_explicit(n, k) == table.value(n, k), (n, k)


def test_row_sums_are_set_partition_counts():
    table = StirlingTable(10)
    for n in range(11):
        row_sum = sum(table.value(n, k) for k in range(n + 1))
        assert row_sum == sum(1 for _ in set_partitions(n))


def test_iteration_is_lexicographic():
    triples = [(n, k, v) for n, row in enumerate(stirling_rows(3)) for k, v in enumerate(row)]
    assert triples == [
        (0, 0, 1),
        (1, 0, 0), (1, 1, 1),
        (2, 0, 0), (2, 1, 1), (2, 2, 1),
        (3, 0, 0), (3, 1, 1), (3, 2, 3), (3, 3, 1),
    ]


def test_rows_are_the_table_rows():
    table = StirlingTable(60)
    rows = list(stirling_rows(60))
    assert len(rows) == 61
    for n, row in enumerate(rows):
        assert row == tuple(table.value(n, k) for k in range(n + 1)), n
    with pytest.raises(ValueError):
        next(stirling_rows(-1))


def test_diagonal_matches_table_to_60():
    table = StirlingTable(120)
    diagonals = list(stirling_diagonals(60))
    assert len(diagonals) == 61
    for d, diagonal in enumerate(diagonals):
        assert diagonal == tuple(table.value(d + k, k) for k in range(61)), d
    with pytest.raises(ValueError):
        next(stirling_diagonals(-1))


def test_associated_diagonals_match_both_closed_forms_to_60():
    streams = zip(associated_diagonals(59), stirling_diagonals(59))
    count = 0
    for n, (associated, diagonal) in enumerate(streams):
        assert len(associated) == 60
        for k in range(1, n + 1):
            # S_2(n+k, k) = (n+k)!/n! B_{n,k}(1/2, 1/3, ...) = B_{n+k,k}(0, 1, ...)
            scale = math.factorial(n + k) // math.factorial(n)
            assert associated[k] == scale * bell_reciprocal_args(n, k, diagonal), (n, k)
            assert associated[k] == bell_zero_one(n + k, k, diagonal), (n, k)
        assert associated[0] == (n == 0)
        count += 1
    assert count == 60
    with pytest.raises(ValueError):
        next(associated_diagonals(-1))


def test_associated_diagonals_count_partitions_into_blocks_of_two_or_more():
    diagonals = list(associated_diagonals(9))
    for d in range(10):
        for k in range(10 - d):
            assert diagonals[d][k] == count_partitions_into(d + k, k, 2), (d, k)
