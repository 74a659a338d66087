"""Typed cell values, column schemas, and the rectangular matrix they live in.

A cell is one of four things: a crisp real, a closed interval, a triangular
fuzzy number, or missing. Columns carry a single declared kind; a cell either
matches its column's kind or is missing. Everything here is an immutable
value, so matrices can be shared freely between threads and reused as the
frozen donor pool during imputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union


@dataclass(frozen=True)
class Crisp:
    """A single exact real value."""

    value: float


@dataclass(frozen=True)
class Interval:
    """A closed range [lower, upper]. Degenerate (lower == upper) is legal."""

    lower: float
    upper: float


@dataclass(frozen=True)
class FuzzyTFN:
    """A triangular fuzzy number (a1, a2, a3) with a1 <= a2 <= a3."""

    a1: float
    a2: float
    a3: float


@dataclass(frozen=True)
class Missing:
    """Sentinel for an unobserved cell."""


#: The one Missing instance everybody should use.
MISSING = Missing()

CellValue = Union[Crisp, Interval, FuzzyTFN, Missing]


class ColumnKind(Enum):
    CRISP = "crisp"
    INTERVAL = "interval"
    FUZZY = "fuzzy"


_KIND_CLASS = {
    ColumnKind.CRISP: Crisp,
    ColumnKind.INTERVAL: Interval,
    ColumnKind.FUZZY: FuzzyTFN,
}


def matches_kind(cell: CellValue, kind: ColumnKind) -> bool:
    """True when ``cell`` is a value of the column kind (Missing never matches)."""
    return isinstance(cell, _KIND_CLASS[kind])


def components(cell: CellValue) -> tuple[float, ...]:
    """The real components of a non-Missing cell, in declaration order."""
    if isinstance(cell, Crisp):
        return (cell.value,)
    if isinstance(cell, Interval):
        return (cell.lower, cell.upper)
    if isinstance(cell, FuzzyTFN):
        return (cell.a1, cell.a2, cell.a3)
    raise ValueError("Missing cell has no components")


@dataclass(frozen=True, order=True)
class CellRef:
    """Zero-based (row, col) address of one cell. Orders row-major."""

    row: int
    col: int


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate()."""

    ref: CellRef
    message: str

    def __str__(self) -> str:
        return f"{self.message} at ({self.ref.row},{self.ref.col})"


@dataclass(frozen=True)
class DataMatrix:
    """Rectangular grid of cells with a per-column kind declaration.

    Structural requirements (at least one row and one column, rectangular
    grid, schema and names of matching length) are enforced at construction;
    cell-level invariants are the business of validate(), so that malformed
    data can be represented, inspected, and reported rather than only thrown.
    """

    schema: tuple[ColumnKind, ...]
    cells: tuple[tuple[CellValue, ...], ...]
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        schema = tuple(self.schema)
        cells = tuple(tuple(row) for row in self.cells)
        names = tuple(self.column_names)
        if not names:
            names = tuple(f"c{i + 1}" for i in range(len(schema)))
        if len(schema) == 0:
            raise ValueError("matrix needs at least one column")
        if len(cells) == 0:
            raise ValueError("matrix needs at least one row")
        if len(names) != len(schema):
            raise ValueError(
                f"{len(names)} column names for {len(schema)} columns"
            )
        for i, row in enumerate(cells):
            if len(row) != len(schema):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(schema)}"
                )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "column_names", names)

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.schema)

    def cell(self, row: int, col: int) -> CellValue:
        return self.cells[row][col]

    def with_cell(self, row: int, col: int, value: CellValue) -> DataMatrix:
        """A copy of this matrix with one cell replaced."""
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(f"cell ({row},{col}) out of bounds")
        return _with_cells(self, {CellRef(row, col): value})

    def is_complete(self) -> bool:
        """True when no cell is Missing."""
        return not missing_cells(self)


def _with_cells(matrix: DataMatrix, changes: dict[CellRef, CellValue]) -> DataMatrix:
    """A copy of ``matrix`` with the cells in ``changes`` replaced.

    Only the rows named in ``changes`` are copied; every other row tuple is
    immutable and shared with ``matrix``.
    """
    rows = list(matrix.cells)
    for ref, value in changes.items():
        row = list(rows[ref.row])
        row[ref.col] = value
        rows[ref.row] = tuple(row)
    return DataMatrix(matrix.schema, tuple(rows), matrix.column_names)


def order_violation(cell: CellValue) -> str | None:
    """The ordering rule that ``cell``'s components break, or None."""
    if isinstance(cell, Interval) and cell.lower > cell.upper:
        return "lower > upper"
    if isinstance(cell, FuzzyTFN) and (cell.a1 > cell.a2 or cell.a2 > cell.a3):
        return "fuzzy components out of order"
    return None


def validate(matrix: DataMatrix) -> list[Violation]:
    """Check every cell against its column kind and its own ordering rules.

    Returns one Violation per broken invariant; an empty list means the
    matrix is valid. Never raises: violations are data, not failures.
    """
    out: list[Violation] = []
    for i, row in enumerate(matrix.cells):
        for l, cell in enumerate(row):
            if isinstance(cell, Missing):
                continue
            ref = CellRef(i, l)
            kind = matrix.schema[l]
            if not matches_kind(cell, kind):
                out.append(
                    Violation(
                        ref,
                        f"kind mismatch: expected {kind.value}, "
                        f"found {type(cell).__name__.lower()}",
                    )
                )
            if message := order_violation(cell):
                out.append(Violation(ref, message))
            if not all(math.isfinite(x) for x in components(cell)):
                out.append(Violation(ref, "non-finite component"))
    return out


def missing_cells(matrix: DataMatrix) -> list[CellRef]:
    """All Missing cell addresses, in row-major order."""
    return [
        CellRef(i, l)
        for i, row in enumerate(matrix.cells)
        for l, cell in enumerate(row)
        if isinstance(cell, Missing)
    ]
