"""Stirling numbers of the second kind by the additive recurrence.

The recurrence runs as two streams: ``stirling_rows`` yields the triangle
one row at a time, and ``stirling_diagonals`` yields the diagonals
S(d+k, k) one column sweep at a time; each keeps only its latest item.
Every formula in the package reads its cells as such plain sequences, and
``exact.check_cells`` is their one length check.  The tests check the cells
against the explicit alternating binomial sum.

``associated_diagonals`` streams the 2-associated numbers S_2(d+k, k), the
partitions into k blocks of size at least 2, by the same kind of column
sweep.

``StirlingTable`` is the benchmark's hook only: nothing in the package or
its tests builds one.
"""

from __future__ import annotations

from typing import Iterator

from .exact import check_at_least


def stirling_rows(max_n: int) -> Iterator[tuple[int, ...]]:
    """Yield the rows (S(n, 0), ..., S(n, n)) for n = 0..max_n in order.

    Each row comes from the one before by S(n, k) = k*S(n-1, k) + S(n-1, k-1)
    and only that row is kept, so a caller that drops the rows it has read
    holds one row at a time.
    """
    check_at_least("max_n", max_n, 0)
    row: tuple[int, ...] = (1,)
    yield row
    for n in range(1, max_n + 1):
        prev = row
        cells = [0]
        for k in range(1, n):
            cells.append(k * prev[k] + prev[k - 1])
        cells.append(1)
        row = tuple(cells)
        yield row


def stirling_diagonals(max_d: int) -> Iterator[tuple[int, ...]]:
    """Yield the diagonals D_d = (S(d+k, k) for k = 0..max_d), d = 0..max_d.

    The recurrence reads D_d(k) = k*D_{d-1}(k) + D_d(k-1), so one column is
    swept in place from D_0 = (1, ..., 1) and each pass yields a copy.
    """
    check_at_least("max_d", max_d, 0)
    col = [1] * (max_d + 1)
    yield tuple(col)
    for _ in range(max_d):
        col[0] = 0
        for k in range(1, max_d + 1):
            col[k] = k * col[k] + col[k - 1]
        yield tuple(col)


def associated_diagonals(max_d: int) -> Iterator[tuple[int, ...]]:
    """Yield E_d = (S_2(d+k, k) for k = 0..max_d), d = 0..max_d, where
    S_2(m, k) counts the partitions of an m-set into k blocks, every block
    of size at least 2 (OEIS A008299; Comtet, Advanced Combinatorics, 1974).

    The last of m = d+k elements either joins one of the k blocks of such a
    partition of the other m-1, or forms a 2-block with one of them and
    leaves m-2 elements in k-1 blocks, so
    E_d(k) = k*E_{d-1}(k) + (d+k-1)*E_{d-1}(k-1).  One column is swept in
    place with descending k from E_0 = (1, 0, ..., 0), and each pass yields
    a copy.  E_d(k) = 0 for k > d, so a pass stops at k = d.
    """
    check_at_least("max_d", max_d, 0)
    col = [0] * (max_d + 1)
    col[0] = 1
    yield tuple(col)
    for d in range(1, max_d + 1):
        for k in range(d, 0, -1):
            col[k] = k * col[k] + (d + k - 1) * col[k - 1]
        col[0] = 0
        yield tuple(col)


class StirlingTable:
    """Every row of ``stirling_rows(max_n)``, built and kept.

    The benchmark's ``stirling.table`` span times this construction and
    reads ``max_n``; the class goes once that span times the streams.
    """

    __slots__ = ("_rows",)

    def __init__(self, max_n: int):
        self._rows = tuple(stirling_rows(max_n))

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1
