"""Typed cell values, column schemas, and the rectangular matrix they live in.

A cell is one of four things: a crisp real, a closed interval, a triangular
fuzzy number, or ``None`` for a gap. A cell checks its own components when
it is built: they are finite and, for an interval or a fuzzy number, in
order. Columns carry one declared kind; a cell matches its column's kind
or is None, which the DataMatrix constructor checks on the way in.
Everything here is an immutable value, so matrices can be shared freely
between threads and reused as the frozen donor pool during imputation.
"""

from __future__ import annotations

import functools
from bisect import insort
from enum import Enum
from math import sqrt
from operator import itemgetter
from typing import Callable, Hashable, Iterable, NamedTuple, Union

_INF = float("inf")


def _made(cls: type, **fields: object) -> _Value:
    """A new ``cls`` value with ``fields``, unchecked. Values refuse assignment,
    so it sets each field through object's own __setattr__."""
    value = object.__new__(cls)
    for name, field in fields.items():
        object.__setattr__(value, name, field)
    return value


class _Value:
    """Base of the read-only values, the cells and the matrix. A value keeps
    its fields in ``__slots__``, the public ones first and then any whose
    name starts with ``_``. ``_components`` reads the public ones, in that
    order, and ``repr`` names them; a value equals a value of its class with
    equal components. Its constructor is ``__new__``, which checks it and raises
    ValueError, so ``__init__`` on a built value rebinds nothing; pickle and
    copy rebuild it through its constructor. Cells are no tuples: the
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

    def _components(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={x!r}" for name, x in zip(self.__slots__, self._components()))
        return f"{self.__class__.__name__}({fields})"


class Crisp(_Value):
    """A single exact real value."""

    __slots__ = ("value",)

    def __new__(cls, value: float) -> Crisp:
        if not -_INF < value < _INF:
            raise ValueError("non-finite component")
        return _made(cls, value=value)


class Interval(_Value):
    """A closed range [lower, upper]. Degenerate (lower == upper) is legal."""

    __slots__ = ("lower", "upper")

    def __new__(cls, lower: float, upper: float) -> Interval:
        if not -_INF < lower <= upper < _INF:
            raise _refused("lower > upper", lower, upper)
        return _made(cls, lower=lower, upper=upper)


class FuzzyTFN(_Value):
    """A triangular fuzzy number (a1, a2, a3) with a1 <= a2 <= a3."""

    __slots__ = ("a1", "a2", "a3")

    def __new__(cls, a1: float, a2: float, a3: float) -> FuzzyTFN:
        if not -_INF < a1 <= a2 <= a3 < _INF:
            raise _refused("fuzzy components out of order", a1, a2, a3)
        return _made(cls, a1=a1, a2=a2, a3=a3)


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
    __hash__ = object.__hash__  # members are singletons: hash in C, not by name


_KIND_CLASS = {
    ColumnKind.CRISP: Crisp,
    ColumnKind.INTERVAL: Interval,
    ColumnKind.FUZZY: FuzzyTFN,
}


#: The names compiled source reads: the cell classes, their slots' setters, and what formulas call.
_NAMES = {"inf": _INF, "sqrt": sqrt, "insort": insort, "new": object.__new__,
          **{cls.__name__: cls for cls in _KIND_CLASS.values()},
          **{f"set_{s}": getattr(c, s).__set__ for c in _KIND_CLASS.values() for s in c.__slots__}}


@functools.cache
def _compiled(write: Callable[[Hashable], str], key: Hashable) -> Callable:
    """The function that the source ``write(key)`` defines, compiled on first use and kept
    per ``(write, key)``. The source runs in a copy of ``_NAMES``. A key holds column kinds,
    never a name or a cell value, so none reaches the source."""
    namespace = dict(_NAMES)
    exec(write(key), namespace)
    return namespace.popitem()[1]  # the name bound last: the function the source defines


def _indent(text: str, level: int) -> str:
    return text.replace("\n", "\n" + "    " * level)


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
    with the same schema, cells and column names, and ``with_cell`` builds
    its copy through the constructor, with the same checks. The gaps
    are recorded once, as the row-major tuple ``_gaps`` of their CellRefs.
    The record is derived from the cells, never carried: pickle and copy
    rebuild it, and ``==``, ``hash`` and ``repr`` do not read it.
    """

    __slots__ = ("schema", "cells", "column_names", "_gaps")

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
            raise ValueError(f"{len(names)} column names for {len(schema)} columns")
        for i, row in enumerate(cells):
            if len(row) != len(schema):
                raise ValueError(f"row {i} has {len(row)} cells, expected {len(schema)}")
        # A column, read in place, passes when each of its classes is a gap's or subclasses
        # its kind's class; the loop below names the first cell of a column that fails.
        failed = []
        gaps = []
        for l, (kind, name) in enumerate(zip(schema, names)):
            if not isinstance(kind, ColumnKind):
                raise ValueError(f"column {l} has kind {kind!r}, not a ColumnKind")
            if not isinstance(name, str):
                raise ValueError(f"column {l} has name {name!r}, not a str")
            column = itemgetter(l)
            classes = set(map(type, map(column, cells)))
            if not all(issubclass(c, (_KIND_CLASS[kind], Missing)) for c in classes):
                failed.append(l)
            if Missing in classes:
                gaps += [CellRef(i, l) for i, c in enumerate(map(column, cells)) if c is None]
        for i, row in enumerate(cells):
            for l in failed:
                if row[l] is not None and not matches_kind(row[l], schema[l]):
                    raise ValueError(f"cell ({i},{l}): {type(row[l]).__name__} does not "
                                     f"match column kind {schema[l].value}")
        return _made(cls, schema=schema, cells=cells, column_names=names, _gaps=tuple(sorted(gaps)))

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.schema)

    def with_cell(self, row: int, col: int, value: CellValue) -> DataMatrix:
        """A copy of this matrix with one cell replaced, checked by the constructor."""
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(f"cell ({row},{col}) out of bounds")
        cells = _replaced(self.cells, {(row, col): value})
        return DataMatrix(self.schema, cells, self.column_names)

    def is_complete(self) -> bool:
        """True when no cell is a gap."""
        return not self._gaps


def _with_cells(matrix: DataMatrix, changes: dict[CellRef, CellValue]) -> DataMatrix:
    """A copy of ``matrix`` with the cells in ``changes`` replaced.

    The new cells are not checked: each caller passes gaps or cells that it
    built of their column's kind. The gap record is ``matrix``'s, less the
    changed cells, plus those changed to None.
    """
    gaps = [g for g in matrix._gaps if g not in changes]
    gaps += [g for g, v in changes.items() if v is None]
    # _made skips the constructor's whole-grid pass.
    return _made(DataMatrix, schema=matrix.schema, cells=_replaced(matrix.cells, changes),
                 column_names=matrix.column_names, _gaps=tuple(sorted(gaps)))


def _replaced(cells: tuple, changes: dict[CellRef, CellValue]) -> tuple:
    """The grid ``cells`` with the cells in ``changes`` replaced. Only the rows
    named in ``changes`` are copied; every other row tuple is immutable and shared."""
    rows = list(cells)
    for (i, l), value in changes.items():
        row = list(rows[i])
        row[l] = value
        rows[i] = tuple(row)
    return tuple(rows)


def missing_cells(matrix: DataMatrix) -> list[CellRef]:
    """All gap addresses, in row-major order, in O(gaps)."""
    return list(matrix._gaps)
