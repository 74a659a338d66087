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
from dataclasses import dataclass
from typing import Optional

from .core import (
    CellValue,
    ColumnKind,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
    matches_kind,
)


@dataclass(frozen=True)
class RowDistance:
    """A defined row distance plus how many columns both rows shared."""

    value: float
    shared_features: int


def crisp_distance(a: float, b: float) -> float:
    """|a - b|."""
    return abs(a - b)


def interval_distance(a: Interval, b: Interval) -> float:
    """Half the Euclidean distance between the endpoint pairs."""
    return 0.5 * math.sqrt((a.lower - b.lower) ** 2 + (a.upper - b.upper) ** 2)


def tfn_distance(a: FuzzyTFN, b: FuzzyTFN) -> float:
    """Mean absolute difference of the three components."""
    return (abs(a.a1 - b.a1) + abs(a.a2 - b.a2) + abs(a.a3 - b.a3)) / 3.0


def cell_distance(a: CellValue, b: CellValue, kind: ColumnKind) -> float:
    """Dispatch to the distance for ``kind``; both cells must match it."""
    if isinstance(a, Missing) or isinstance(b, Missing):
        raise ValueError("cell_distance needs two observed cells")
    if not (matches_kind(a, kind) and matches_kind(b, kind)):
        raise ValueError(
            f"cell kinds {type(a).__name__}/{type(b).__name__} "
            f"do not match column kind {kind.value}"
        )
    if kind is ColumnKind.CRISP:
        return crisp_distance(a.value, b.value)
    if kind is ColumnKind.INTERVAL:
        return interval_distance(a, b)
    return tfn_distance(a, b)


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
    for l, kind in enumerate(matrix.schema):
        a = matrix.cells[i][l]
        b = matrix.cells[j][l]
        if isinstance(a, Missing) or isinstance(b, Missing):
            continue
        total += cell_distance(a, b, kind)
        shared += 1
    if shared == 0:
        return None
    return RowDistance(math.sqrt(total / shared), shared)
