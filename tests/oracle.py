"""Brute-force reference implementations, written independently of the
library code paths they check: plain loops, no shared helpers, formulas
spelled out from scratch. Every float sum is a left-to-right loop from 0.0,
never sum(), which Python 3.12 made compensated.

The reference typed-CSV cell grammar, ``bf_parse_cell``, reads one field
token by token, checks every rule itself and builds the cell only after
that, so the cell's own check never decides what it reports.
"""

from __future__ import annotations

import math

from hetimpute.core import (
    CellValue,
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
)
from hetimpute.typed_csv import ParseError


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
    total = 0.0
    for d in (a.a1 - b.a1, a.a2 - b.a2, a.a3 - b.a3):
        total += abs(d)
    return total / 3.0


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
    total = 0.0
    for d in per_cell:
        total += d
    return math.sqrt(total / len(per_cell))


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
    total = 0.0
    for inv in inverses:
        total += inv
    return [inv / total for inv in inverses]


def bf_combine(cells: list, weights: list[float]) -> CellValue:
    """The donors' common value when all ``cells`` are equal; else each component
    summed as ``weights`` times the donors' components in donor order, and a sum
    past the largest double clamped into the donors' range."""
    value = cells[0]
    if all(c == value for c in cells):
        return value
    if isinstance(value, Crisp):
        columns = [[c.value for c in cells]]
    elif isinstance(value, Interval):
        columns = [[c.lower for c in cells], [c.upper for c in cells]]
    else:
        columns = [[c.a1 for c in cells], [c.a2 for c in cells], [c.a3 for c in cells]]
    parts = []
    for column in columns:
        x = 0.0
        for p, w in zip(column, weights):
            x += p * w
        parts.append(x if math.isfinite(x) else min(max(x, min(column)), max(column)))
    return type(value)(*parts)


def bf_parse_number(token: str, line: int, column: int, what: str) -> float:
    # float() reads every decimal literal, and also '_' separators, 'inf',
    # 'nan' and literals that overflow to inf, which a finite cell refuses.
    try:
        value = float(token)
        if "_" not in token and math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ParseError(line, column, f"{what}: {token!r} is not a finite decimal number")


def bf_parse_cell(token: str, kind: ColumnKind, line: int, column: int) -> CellValue:
    if token == "" or token.lower() == "nan":
        return None
    if kind is ColumnKind.CRISP:
        return Crisp(bf_parse_number(token, line, column, "expected crisp cell"))
    if kind is ColumnKind.INTERVAL:
        if not (token.startswith("[") and token.endswith("]")):
            raise ParseError(
                line, column, f"expected interval cell '[lower;upper]', found {token!r}"
            )
        parts = token[1:-1].split(";")
        if len(parts) != 2:
            raise ParseError(
                line,
                column,
                f"expected interval cell with 2 components, found {len(parts)}",
            )
        lower = bf_parse_number(parts[0].strip(), line, column, "interval lower bound")
        upper = bf_parse_number(parts[1].strip(), line, column, "interval upper bound")
        if lower > upper:
            raise ParseError(line, column, "lower > upper")
        return Interval(lower, upper)
    if not (token.startswith("(") and token.endswith(")")):
        raise ParseError(
            line, column, f"expected fuzzy cell '(a1;a2;a3)', found {token!r}"
        )
    parts = token[1:-1].split(";")
    if len(parts) != 3:
        raise ParseError(
            line,
            column,
            f"expected fuzzy cell with 3 components, found {len(parts)}",
        )
    a1, a2, a3 = (
        bf_parse_number(p.strip(), line, column, "fuzzy component") for p in parts
    )
    if a1 > a2 or a2 > a3:
        raise ParseError(line, column, "fuzzy components out of order")
    return FuzzyTFN(a1, a2, a3)
