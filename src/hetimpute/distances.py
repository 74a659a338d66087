"""Distance functions for crisp, interval, and fuzzy cells, and between rows.

The row distance averages per-cell distances over the columns where both
rows are observed, then takes the square root of that mean. Averaging (as
opposed to plain summation) keeps rows comparable when they share different
numbers of observed columns. All three per-cell distances stay within the
same [0, 1]-ish magnitude for unit-range components, so no single column
kind dominates the mix. Donor selection walks the candidate rows once per
target row and stops summing a row once it cannot be among the k nearest.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


def _nearest(
    matrix: DataMatrix, i: int, gaps: Sequence[int], rows: Iterable[int], k: int,
    terms: _CellTerms | None, functions: Sequence[Callable],
) -> list[list[tuple[float, int]]]:
    """For each column of ``gaps``, the ``(distance, row)`` of the k rows of
    ``rows`` (ascending) nearest to row i that observe it, nearest first;
    ties break toward the lower row. One pass keeps a sorted list of at most
    k rows per gap and stops summing a row once it cannot enter any. Each cell
    distance is read from ``terms`` when given (a table of a matrix that
    differs from ``matrix`` only in cells that are gaps here), else
    computed by ``functions``, one per column, and added in schema order, so
    every bit matches a pairwise evaluation. Rows sharing no observed column
    with row i are left out.
    """
    columns = [
        (l, a, distance)
        for l, (a, distance) in enumerate(zip(matrix.cells[i], functions))
        if a is not None
    ]
    c = len(columns)
    cells = matrix.cells
    table = terms[i] if terms is not None else None
    # Each gap's k nearest so far as (distance, row), sorted: the last is
    # the worst kept, and a later row of equal distance sorts after it.
    nearest: list[list[tuple[float, int]]] = [[] for _ in gaps]
    short = len(nearest)  # lists holding fewer than k rows
    limit = math.inf
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
            if total > limit:
                break
        else:
            if not shared:
                continue
            d = math.sqrt(total / shared)
            changed = False
            for kept, l in zip(nearest, gaps):
                if other[l] is None:
                    continue
                if len(kept) < k:
                    insort(kept, (d, j))
                    short -= len(kept) == k
                elif d < kept[-1][0]:
                    kept.pop()
                    insort(kept, (d, j))
                else:
                    continue
                changed = True
            if changed and not short:
                # A float sum never decreases when a term >= 0 is added, and
                # dividing by a positive count (shared <= c) and sqrt are
                # monotone: a partial sum past worst**2 * c gives a distance
                # of at least worst, which enters no list. The slack covers
                # rounding; the floor keeps sums whose mean underflows to 0.
                worst = max([kept[-1][0] for kept in nearest])
                limit = max(worst * worst * c * (1 + 2**-40), 2.0**-1000)
    return nearest


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
    total = 0.0
    shared = 0
    for a, b, kind in zip(matrix.cells[i], matrix.cells[j], matrix.schema):
        if a is not None and b is not None:
            total += _CELL_DISTANCE[kind](a, b)
            shared += 1
    return RowDistance(math.sqrt(total / shared), shared) if shared else None
