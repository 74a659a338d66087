"""Typed cell values, column schemas, and the rectangular matrix they live in.

A cell is one of four things: a crisp real, a closed interval, a triangular
fuzzy number, or ``None`` for a gap. Columns carry a single declared kind; a
cell either matches its column's kind or is None, which a DataMatrix checks
once, when it is built. Everything here is an immutable value, so matrices
can be shared freely between threads and reused as the frozen donor pool
during imputation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Union


@dataclass(frozen=True, slots=True)
class Crisp:
    """A single exact real value."""

    value: float


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed range [lower, upper]. Degenerate (lower == upper) is legal."""

    lower: float
    upper: float


@dataclass(frozen=True, slots=True)
class FuzzyTFN:
    """A triangular fuzzy number (a1, a2, a3) with a1 <= a2 <= a3."""

    a1: float
    a2: float
    a3: float


#: A gap is ``None``: ``MISSING`` is that object, ``Missing`` its type, so
#: ``Missing()`` returns it and ``cell is None`` tests for a gap.
MISSING = None
Missing = type(None)

CellValue = Union[Crisp, Interval, FuzzyTFN, None]


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
    """True when ``cell`` is a value of the column kind (a gap never matches)."""
    return isinstance(cell, _KIND_CLASS[kind])


def components(cell: CellValue) -> tuple[float, ...]:
    """The real components of an observed cell, in declaration order."""
    if isinstance(cell, Crisp):
        return (cell.value,)
    if isinstance(cell, Interval):
        return (cell.lower, cell.upper)
    if isinstance(cell, FuzzyTFN):
        return (cell.a1, cell.a2, cell.a3)
    raise ValueError("Missing cell has no components")


class CellRef(NamedTuple):
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

    Construction enforces the structure (at least one row and one column, a
    rectangular grid, schema and names of matching length) and the kinds:
    every schema entry is a ColumnKind and every cell matches its column's
    kind or is None (a gap), else ValueError names the first bad cell in
    row-major order. Component ordering and finiteness are left to
    validate(), so such data can be represented, inspected and reported.

    The gaps are recorded once, as the row-major tuple ``_gaps`` of their
    CellRefs. It is no field, so ``==``, ``hash`` and ``repr`` see the cells
    alone.
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
        # matches_kind depends on a cell's class alone, so the first cell of
        # each class in a column stands for all of them.
        firsts = []
        gaps = []
        for l, (kind, column) in enumerate(zip(schema, zip(*cells))):
            if not isinstance(kind, ColumnKind):
                raise ValueError(f"column {l} has kind {kind!r}, not a ColumnKind")
            classes = list(map(type, column))
            firsts += [(classes.index(cls), l) for cls in set(classes)]
            if Missing in classes:
                gaps += [CellRef(i, l) for i, c in enumerate(column) if c is None]
        _check_cells(schema, [(i, l, cells[i][l]) for i, l in sorted(firsts)])
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "_gaps", tuple(sorted(gaps)))

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
        """True when no cell is a gap."""
        return not self._gaps


def _check_cells(
    schema: tuple[ColumnKind, ...], cells: Iterable[tuple[int, int, CellValue]]
) -> None:
    """Raise ValueError naming the first ``(row, col, cell)`` of ``cells``
    that is neither None nor of its column's kind."""
    for i, l, cell in cells:
        if cell is not None and not matches_kind(cell, schema[l]):
            raise ValueError(
                f"cell ({i},{l}): {type(cell).__name__} does not match "
                f"column kind {schema[l].value}"
            )


def _with_cells(matrix: DataMatrix, changes: dict[CellRef, CellValue]) -> DataMatrix:
    """A copy of ``matrix`` with the cells in ``changes`` replaced.

    Only the changed cells are checked against their column kinds, since
    ``matrix`` was checked when it was built. Only the rows named in
    ``changes`` are copied; every other row tuple is immutable and shared
    with ``matrix``. The gap record is ``matrix``'s, less the changed cells,
    plus those changed to None.
    """
    _check_cells(matrix.schema, sorted((i, l, v) for (i, l), v in changes.items()))
    rows = list(matrix.cells)
    for (i, l), value in changes.items():
        row = list(rows[i])
        row[l] = value
        rows[i] = tuple(row)
    gaps = [g for g in matrix._gaps if g not in changes]
    gaps += [g for g, v in changes.items() if v is None]
    out = object.__new__(DataMatrix)  # skips __post_init__'s whole-grid pass
    out.__dict__.update(matrix.__dict__, cells=tuple(rows), _gaps=tuple(sorted(gaps)))
    return out


def order_violation(cell: CellValue) -> str | None:
    """The ordering rule that ``cell``'s components break, or None."""
    if isinstance(cell, Interval) and cell.lower > cell.upper:
        return "lower > upper"
    if isinstance(cell, FuzzyTFN) and (cell.a1 > cell.a2 or cell.a2 > cell.a3):
        return "fuzzy components out of order"
    return None


def validate(matrix: DataMatrix) -> list[Violation]:
    """Check every cell's components for ordering and finiteness; the kinds
    were checked when the matrix was built.

    Returns one Violation per broken invariant; an empty list means the
    matrix is valid. Never raises: violations are data, not failures.
    """
    out: list[Violation] = []
    for i, row in enumerate(matrix.cells):
        for l, cell in enumerate(row):
            if cell is None:
                continue
            ref = CellRef(i, l)
            if message := order_violation(cell):
                out.append(Violation(ref, message))
            if not all(math.isfinite(x) for x in components(cell)):
                out.append(Violation(ref, "non-finite component"))
    return out


def missing_cells(matrix: DataMatrix) -> list[CellRef]:
    """All gap addresses, in row-major order, in O(gaps)."""
    return list(matrix._gaps)
