import math

import pytest

from bernstir.bell import bell_reciprocal_args, bell_zero_one
from bernstir.stirling import associated_diagonals, stirling_diagonals, stirling_rows

from oracles import count_partitions_into, set_partitions, stirling_explicit


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
    rows = list(stirling_rows(5))
    assert rows[4][2] == 7
    assert rows[5][3] == 25
    assert rows[3][0] == 0


def test_table_structure_invariants():
    for n, row in enumerate(stirling_rows(30)):
        if n:
            assert row[0] == 0
            assert row[1] == 1
        assert row[n] == 1
        assert all(value >= 0 for value in row)


def test_row_sums_are_set_partition_counts():
    for n, row in enumerate(stirling_rows(10)):
        assert sum(row) == sum(1 for _ in set_partitions(n))


def test_iteration_is_lexicographic():
    triples = [(n, k, v) for n, row in enumerate(stirling_rows(3)) for k, v in enumerate(row)]
    assert triples == [
        (0, 0, 1),
        (1, 0, 0), (1, 1, 1),
        (2, 0, 0), (2, 1, 1), (2, 2, 1),
        (3, 0, 0), (3, 1, 1), (3, 2, 3), (3, 3, 1),
    ]


def test_explicit_agrees_with_table_to_60():
    # every cell of the streamed triangle against the explicit sum, n <= 60
    for n, row in enumerate(stirling_rows(60)):
        for k in range(n + 1):
            assert stirling_explicit(n, k) == row[k], (n, k)


def test_rows_are_the_table_rows():
    # row n, cell k is cell k of diagonal n - k, n <= 60
    rows = list(stirling_rows(60))
    diagonals = list(stirling_diagonals(60))
    assert len(rows) == 61
    for n, row in enumerate(rows):
        assert row == tuple(diagonals[n - k][k] for k in range(n + 1)), n
    with pytest.raises(ValueError):
        next(stirling_rows(-1))


def test_diagonal_matches_table_to_60():
    # the cells S(d+k, k) of the triangle from the explicit sum, d, k <= 60
    diagonals = list(stirling_diagonals(60))
    assert len(diagonals) == 61
    for d, diagonal in enumerate(diagonals):
        assert diagonal == tuple(stirling_explicit(d + k, k) for k in range(61)), d
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
