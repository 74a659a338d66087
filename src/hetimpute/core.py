"""Typed cell values, column schemas, and the rectangular matrix they live in.

A cell is one of four things: a crisp real, a closed interval, a triangular
fuzzy number, or ``None`` for a gap. A cell checks its own components when
it is built: they are finite and, for an interval or a fuzzy number, in
order. Columns carry one declared kind; a cell matches its column's kind
or is None, which DataMatrix and its ``with_cell`` check on the way in.
Everything here is an immutable value, so matrices can be shared freely
between threads and reused as the frozen donor pool during imputation.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Union

# Values refuse assignment, so their constructors set their slots through
# object's own __setattr__.
_set = object.__setattr__
_INF = float("inf")


class _Value:
    """Base of the read-only values, the cells and the matrix. A value keeps
    its fields in ``__slots__`` and returns the public ones, in that order,
    from ``_components``, and it equals a value of its class with equal
    components. Its constructor checks it and raises ValueError, and pickle
    and copy rebuild it through its constructor. Cells are no tuples: the
    distance kernel reads their fields, and a slot reads faster than a
    named-tuple field.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._components() == other._components()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._components())

    def __reduce__(self):
        return self.__class__, self._components()

    def __repr__(self) -> str:
        public = [name for name in self.__slots__ if name[0] != "_"]
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in public)
        return f"{self.__class__.__name__}({fields})"


class Crisp(_Value):
    """A single exact real value."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if not -_INF < value < _INF:
            raise ValueError("non-finite component")
        _set(self, "value", value)

    def _components(self) -> tuple[float, ...]:
        return (self.value,)


class Interval(_Value):
    """A closed range [lower, upper]. Degenerate (lower == upper) is legal."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float) -> None:
        if not -_INF < lower <= upper < _INF:
            raise _refused("lower > upper", lower, upper)
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    def _components(self) -> tuple[float, ...]:
        return (self.lower, self.upper)


class FuzzyTFN(_Value):
    """A triangular fuzzy number (a1, a2, a3) with a1 <= a2 <= a3."""

    __slots__ = ("a1", "a2", "a3")

    def __init__(self, a1: float, a2: float, a3: float) -> None:
        if not -_INF < a1 <= a2 <= a3 < _INF:
            raise _refused("fuzzy components out of order", a1, a2, a3)
        _set(self, "a1", a1)
        _set(self, "a2", a2)
        _set(self, "a3", a3)

    def _components(self) -> tuple[float, ...]:
        return (self.a1, self.a2, self.a3)


def _refused(order: str, *components: float) -> ValueError:
    """The error of components that a cell refused: ``order`` when they are
    finite, so that their order is what broke the rule."""
    if all(-_INF < x < _INF for x in components):
        return ValueError(order)
    return ValueError("non-finite component")


#: A gap is ``None``, and ``Missing`` is its type: ``Missing()`` returns it.
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
    if cell is None:
        raise ValueError("Missing cell has no components")
    return cell._components()


class CellRef(NamedTuple):
    """Zero-based (row, col) address of one cell. Orders row-major."""

    row: int
    col: int


class DataMatrix(_Value):
    """Rectangular grid of cells with a per-column kind declaration.

    Construction enforces the structure (at least one row and one column, a
    rectangular grid, one str name per column) and the kinds: every schema
    entry is a ColumnKind and every cell matches its column's kind or is
    None (a gap), else ValueError names the first bad cell in row-major
    order. Each cell checked its own components when it was built, so every
    observed cell of a DataMatrix is finite and ordered.

    A DataMatrix is a read-only value like its cells: it equals a matrix
    with the same schema, cells and column names. The gaps are recorded
    once, as the row-major tuple ``_gaps`` of their CellRefs. The record is
    derived from the cells, never carried: pickle and copy rebuild it, and
    ``==``, ``hash`` and ``repr`` do not read it.
    """

    __slots__ = ("schema", "cells", "column_names", "_gaps")

    def __init__(
        self,
        schema: Iterable[ColumnKind],
        cells: Iterable[Iterable[CellValue]],
        column_names: Iterable[str] = (),
    ) -> None:
        schema = tuple(schema)
        cells = tuple(tuple(row) for row in cells)
        names = tuple(column_names)
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
        # A column passes when each of its classes is a gap's or subclasses its
        # kind's class; _check_cells names the first cell of a column that fails.
        failed = []
        gaps = []
        for l, (kind, name, column) in enumerate(zip(schema, names, zip(*cells))):
            if not isinstance(kind, ColumnKind):
                raise ValueError(f"column {l} has kind {kind!r}, not a ColumnKind")
            if not isinstance(name, str):
                raise ValueError(f"column {l} has name {name!r}, not a str")
            classes = set(map(type, column))
            if not all(issubclass(c, (_KIND_CLASS[kind], Missing)) for c in classes):
                failed.append(l)
            if Missing in classes:
                gaps += [CellRef(i, l) for i, c in enumerate(column) if c is None]
        _check_cells(
            schema, [(i, l, row[l]) for i, row in enumerate(cells) for l in failed]
        )
        self._fill(schema, cells, names, gaps)

    def _fill(self, schema, cells, names, gaps: Iterable[CellRef]) -> DataMatrix:
        _set(self, "schema", schema)
        _set(self, "cells", cells)
        _set(self, "column_names", names)
        _set(self, "_gaps", tuple(sorted(gaps)))
        return self

    def _components(self) -> tuple:
        return (self.schema, self.cells, self.column_names)

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.schema)

    def with_cell(self, row: int, col: int, value: CellValue) -> DataMatrix:
        """A copy of this matrix with one cell replaced."""
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(f"cell ({row},{col}) out of bounds")
        _check_cells(self.schema, [(row, col, value)])
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

    The new cells are not checked: each caller passes gaps or cells that it
    built of their column's kind. Only the rows named in ``changes`` are
    copied; every other row tuple is immutable and shared with ``matrix``.
    The gap record is ``matrix``'s, less the changed cells, plus those
    changed to None.
    """
    rows = list(matrix.cells)
    for (i, l), value in changes.items():
        row = list(rows[i])
        row[l] = value
        rows[i] = tuple(row)
    gaps = [g for g in matrix._gaps if g not in changes]
    gaps += [g for g, v in changes.items() if v is None]
    # object.__new__ skips DataMatrix.__init__'s whole-grid pass.
    out = object.__new__(DataMatrix)
    return out._fill(matrix.schema, tuple(rows), matrix.column_names, gaps)


def missing_cells(matrix: DataMatrix) -> list[CellRef]:
    """All gap addresses, in row-major order, in O(gaps)."""
    return list(matrix._gaps)
