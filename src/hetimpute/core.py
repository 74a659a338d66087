"""Typed cell values, column schemas, and the rectangular matrix they live in.

A cell is one of four things: a crisp real, a closed interval, a triangular
fuzzy number, or ``None`` for a gap. A cell checks its own components when
it is built: they are finite and, for an interval or a fuzzy number, in
order. Columns carry a single declared kind; a cell either matches its
column's kind or is None, which a DataMatrix checks once, when it is built.
Everything here is an immutable value, so matrices can be shared freely
between threads and reused as the frozen donor pool during imputation.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Union

# Cells refuse assignment, so their constructors set their slots through
# object's own __setattr__.
_set = object.__setattr__
_INF = float("inf")


class _Frozen:
    """Refuses to assign or delete an attribute once an object is built."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _Cell(_Frozen):
    """Base of the observed cell kinds: a few float slots, read-only once
    built, and equal to a cell of the same class with equal components.

    A constructor accepts only finite components in order, by one chained
    comparison that nan fails too, and raises ValueError otherwise. Pickle
    and copy rebuild a cell through its constructor, so they check it too.

    Each kind lists its fields in ``__slots__`` and returns them, in that
    order, from ``_components``. Cells are no tuples: the distance kernel
    reads their fields, and a slot reads faster than a named-tuple field.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._components() == other._components()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._components())

    def __reduce__(self):
        return self.__class__, self._components()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Crisp(_Cell):
    """A single exact real value."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if not -_INF < value < _INF:
            raise ValueError("non-finite component")
        _set(self, "value", value)

    def _components(self) -> tuple[float, ...]:
        return (self.value,)


class Interval(_Cell):
    """A closed range [lower, upper]. Degenerate (lower == upper) is legal."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float) -> None:
        if not -_INF < lower <= upper < _INF:
            raise _refused("lower > upper", lower, upper)
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    def _components(self) -> tuple[float, ...]:
        return (self.lower, self.upper)


class FuzzyTFN(_Cell):
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
    if cell is None:
        raise ValueError("Missing cell has no components")
    return cell._components()


class CellRef(NamedTuple):
    """Zero-based (row, col) address of one cell. Orders row-major."""

    row: int
    col: int


class _MatrixFields(NamedTuple):
    schema: tuple[ColumnKind, ...]
    cells: tuple[tuple[CellValue, ...], ...]
    column_names: tuple[str, ...]


class DataMatrix(_MatrixFields, _Frozen):
    """Rectangular grid of cells with a per-column kind declaration.

    Construction enforces the structure (at least one row and one column, a
    rectangular grid, schema and names of matching length) and the kinds:
    every schema entry is a ColumnKind and every cell matches its column's
    kind or is None (a gap), else ValueError names the first bad cell in
    row-major order. Each cell checked its own components when it was
    built, so every observed cell of a DataMatrix is finite and ordered.

    A DataMatrix is the named tuple ``(schema, cells, column_names)``. The
    gaps are recorded once, as the row-major tuple ``_gaps`` of their
    CellRefs. It is an attribute, not an item, so ``==``, ``hash`` and
    ``repr`` see the cells alone.
    """

    def __new__(
        cls,
        schema: Iterable[ColumnKind],
        cells: Iterable[Iterable[CellValue]],
        column_names: Iterable[str] = (),
    ) -> DataMatrix:
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
        # matches_kind depends on a cell's class alone, so the first cell of
        # each class in a column stands for all of them.
        firsts = []
        gaps = []
        for l, (kind, column) in enumerate(zip(schema, zip(*cells))):
            if not isinstance(kind, ColumnKind):
                raise ValueError(f"column {l} has kind {kind!r}, not a ColumnKind")
            classes = list(map(type, column))
            firsts += [(classes.index(c), l) for c in set(classes)]
            if Missing in classes:
                gaps += [CellRef(i, l) for i, c in enumerate(column) if c is None]
        _check_cells(schema, [(i, l, cells[i][l]) for i, l in sorted(firsts)])
        self = tuple.__new__(cls, (schema, cells, names))
        self.__dict__["_gaps"] = tuple(sorted(gaps))
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> DataMatrix:
        # _replace builds through _make: check its result like any other.
        return cls(*iterable)

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
    # tuple.__new__ skips DataMatrix.__new__'s whole-grid pass.
    out = tuple.__new__(DataMatrix, (matrix.schema, tuple(rows), matrix.column_names))
    out.__dict__["_gaps"] = tuple(sorted(gaps))
    return out


def missing_cells(matrix: DataMatrix) -> list[CellRef]:
    """All gap addresses, in row-major order, in O(gaps)."""
    return list(matrix._gaps)
