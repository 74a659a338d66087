"""Brute-force reference implementations, written independently of the
library code paths they check: plain loops, no shared helpers, formulas
spelled out from scratch.
"""

from __future__ import annotations

import math

from hetimpute.core import Crisp, DataMatrix, Interval, Missing


def bf_cell_distance(a, b) -> float:
    # |x| rather than sqrt(x * x), which loses x when the square under- or
    # overflows; an interval's squares past the largest double give inf.
    if isinstance(a, Crisp):
        return abs(a.value - b.value)
    if isinstance(a, Interval):
        try:
            return math.sqrt((a.lower - b.lower) ** 2 + (a.upper - b.upper) ** 2) / 2.0
        except OverflowError:
            return math.inf
    diffs = (a.a1 - b.a1, a.a2 - b.a2, a.a3 - b.a3)
    return sum(abs(d) for d in diffs) / 3.0


def bf_row_distance(matrix: DataMatrix, i: int, j: int) -> float | None:
    per_cell = []
    for l in range(matrix.n_cols):
        a = matrix.cells[i][l]
        b = matrix.cells[j][l]
        if isinstance(a, Missing) or isinstance(b, Missing):
            continue
        per_cell.append(bf_cell_distance(a, b))
    if not per_cell:
        return None
    return math.sqrt(sum(per_cell) / len(per_cell))


def bf_candidate_distances(
    matrix: DataMatrix, row: int, col: int
) -> list[tuple[float, int]]:
    """All (distance, donor row) pairs eligible for the missing cell, sorted."""
    out = []
    for j in range(matrix.n_rows):
        if j == row or isinstance(matrix.cells[j][col], Missing):
            continue
        d = bf_row_distance(matrix, row, j)
        if d is not None:
            out.append((d, j))
    out.sort()
    return out


def bf_weights(distances: list[float]) -> list[float]:
    if any(d < 1e-12 for d in distances):
        hits = sum(1 for d in distances if d < 1e-12)
        return [1.0 / hits if d < 1e-12 else 0.0 for d in distances]
    inverses = [1.0 / d for d in distances]
    if all(d == math.inf for d in distances):
        return [1.0 / len(distances) for _ in distances]
    return [inv / sum(inverses) for inv in inverses]
