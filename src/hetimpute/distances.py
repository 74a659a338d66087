"""Distance functions for crisp, interval, and fuzzy cells, and between rows.

The row distance averages per-cell distances over the columns where both
rows are observed, then takes the square root of that mean. Averaging (as
opposed to plain summation) keeps rows comparable when they share different
numbers of observed columns. All three per-cell distances stay within the
same [0, 1]-ish magnitude for unit-range components, so no single column
kind dominates the mix.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .core import (
    CellValue,
    ColumnKind,
    DataMatrix,
    FuzzyTFN,
    Interval,
    matches_kind,
)


class RowDistance(NamedTuple):
    """A defined row distance plus how many columns both rows shared."""

    value: float
    shared_features: int


def interval_distance(a: Interval, b: Interval) -> float:
    """Half the Euclidean distance between the endpoint pairs; inf when the
    squares overflow."""
    try:
        return 0.5 * math.sqrt((a.lower - b.lower) ** 2 + (a.upper - b.upper) ** 2)
    except OverflowError:
        return math.inf


def tfn_distance(a: FuzzyTFN, b: FuzzyTFN) -> float:
    """Mean absolute difference of the three components."""
    return (abs(a.a1 - b.a1) + abs(a.a2 - b.a2) + abs(a.a3 - b.a3)) / 3.0


_CELL_DISTANCE = {
    ColumnKind.CRISP: lambda a, b: abs(a.value - b.value),
    ColumnKind.INTERVAL: interval_distance,
    ColumnKind.FUZZY: tfn_distance,
}


def cell_distance(a: CellValue, b: CellValue, kind: ColumnKind) -> float:
    """Dispatch to the distance for ``kind``; both cells must match it."""
    if not (matches_kind(a, kind) and matches_kind(b, kind)):
        raise ValueError(
            f"cell_distance needs two observed {kind.value} cells, "
            f"found {type(a).__name__}/{type(b).__name__}"
        )
    return _CELL_DISTANCE[kind](a, b)


class _CellTerms(dict):
    """``terms[i][j]``: the m per-column cell distances between rows i and j
    of a complete matrix (None for j == i), filled one row i at a time on
    first use. The cell distances are symmetric bit for bit, so row i copies
    the entries of the rows filled before it."""

    def __init__(self, matrix: DataMatrix) -> None:
        self.matrix = matrix

    def __missing__(self, i: int) -> list:
        cells = self.matrix.cells
        functions = [_CELL_DISTANCE[kind] for kind in self.matrix.schema]
        self[i] = row = [
            None if j == i
            else self[j][i] if j in self
            else tuple([f(a, b) for f, a, b in zip(functions, cells[i], other)])
            for j, other in enumerate(cells)
        ]
        return row


def _row_distances(
    matrix: DataMatrix, i: int, rows: Iterable[int], terms: _CellTerms | None = None
) -> list[tuple[float, int, int]]:
    """``(distance, row, shared)`` from row i to each comparable row of ``rows``.

    One pass per target row: the target's observed columns and their
    distance functions are looked up once, and each donor cell pays a single
    ``is None`` test. A DataMatrix holds only cells of their column's kind
    and None for a gap, so no other test is needed. Each per-cell distance
    is read from ``terms`` when given (a table of a matrix that differs from
    ``matrix`` only in cells that are gaps here), else computed, and
    added in schema order, so every bit matches a pairwise evaluation.
    Rows sharing no observed column with row i are left out.
    """
    columns = [
        (l, a, _CELL_DISTANCE[kind])
        for l, (a, kind) in enumerate(zip(matrix.cells[i], matrix.schema))
        if a is not None
    ]
    cells = matrix.cells
    table = terms[i] if terms is not None else None
    out = []
    for j in rows:
        other = cells[j]
        pair = table[j] if table else None
        total = 0.0
        shared = 0
        for l, a, distance in columns:
            b = other[l]
            if b is None:
                continue
            total += pair[l] if pair else distance(a, b)
            shared += 1
        if shared:
            out.append((math.sqrt(total / shared), j, shared))
    return out


def row_distance(matrix: DataMatrix, i: int, j: int) -> Optional[RowDistance]:
    """Distance between rows i and j over their mutually observed columns.

    Returns None (incomparable) when the rows share no observed column:
    such rows carry no evidence about each other and must be excluded from
    neighbor selection rather than sorted.
    """
    if i == j:
        raise ValueError("row distance of a row to itself is not defined")
    n = matrix.n_rows
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"row pair ({i},{j}) out of range for {n} rows")
    for value, _, shared in _row_distances(matrix, i, (j,)):
        return RowDistance(value, shared)
    return None
