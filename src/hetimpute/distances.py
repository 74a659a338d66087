"""Distance functions for crisp, interval, and fuzzy cells, and between rows.

The row distance averages per-cell distances over the columns where both
rows are observed, then takes the square root of that mean. Averaging (as
opposed to plain summation) keeps rows comparable when they share different
numbers of observed columns. All three per-cell distances stay within the
same [0, 1]-ish magnitude for unit-range components, so no single column
kind dominates the mix. Donor selection walks the candidate rows once per
target row and stops summing a row once it cannot be among the k nearest.
It runs one kernel per schema: source text with each column's formula
inline, compiled on first use. The kernels and the cell-distance functions
compile each kind's formula from one text, so their distances agree bit for
bit with ``row_distance``, which folds ``_shared_distances``.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core import _KIND_CLASS, CellValue, ColumnKind, DataMatrix, matches_kind


class RowDistance(NamedTuple):
    """A defined row distance plus how many columns both rows shared."""

    value: float
    shared_features: int


#: Each kind's cell distance: its name, and the text of its distance from a target cell ``a``
#: to a donor cell ``b`` that ``_CELL_DISTANCE`` and every kernel compile, so the two agree bit
#: for bit. ``{into}`` takes the distance, and ``{a}`` leads to a component of ``a``.
_FORMULAS = {
    ColumnKind.CRISP: ("crisp_distance", "{into} abs({a}value - b.value)"),
    ColumnKind.INTERVAL: ("interval_distance", """try:
    {into} 0.5 * sqrt(({a}lower - b.lower) ** 2 + ({a}upper - b.upper) ** 2)
except OverflowError:
    {into} inf"""),
    ColumnKind.FUZZY: ("tfn_distance",
                       "{into} (abs({a}a1 - b.a1) + abs({a}a2 - b.a2) + abs({a}a3 - b.a3)) / 3.0"),
}


def _compile(source: str) -> dict:
    """The names that ``source`` defines, run with the names its formulas use."""
    namespace = {"__name__": __name__, "inf": math.inf, "insort": insort, "sqrt": math.sqrt}
    exec(source, namespace)
    return namespace


def _indent(text: str, level: int) -> str:
    return text.replace("\n", "\n" + "    " * level)


_CELL_DISTANCE = {
    kind: _compile(f"def {name}(a, b):\n    {_indent(text.format(into='return', a='a.'), 1)}")[name]
    for kind, (name, text) in _FORMULAS.items()
}
interval_distance = _CELL_DISTANCE[ColumnKind.INTERVAL]
tfn_distance = _CELL_DISTANCE[ColumnKind.FUZZY]


def cell_distance(a: CellValue, b: CellValue, kind: ColumnKind) -> float:
    """Dispatch to the distance for ``kind``; both cells must match it."""
    if not (matches_kind(a, kind) and matches_kind(b, kind)):
        raise ValueError(
            f"cell_distance needs two observed {kind.value} cells, "
            f"found {type(a).__name__}/{type(b).__name__}"
        )
    return _CELL_DISTANCE[kind](a, b)


# A kernel's text: ``{targets}`` names row i's cells, ``{hoist}`` reads their components, and
# ``{columns}`` adds row j's cell distances in turn.
_KERNEL = """\
def nearest(cells, i, gaps, rows, k):
    {targets} = row = cells[i]
    c = sum([a is not None for a in row])
    {hoist}
    # Each gap's k nearest so far as (distance, row), sorted: the last is
    # the worst kept, and a later row of equal distance sorts after it.
    nearest = [[] for _ in gaps]
    short = len(nearest)  # lists holding fewer than k rows
    limit = inf
    for j in rows:
        other = cells[j]
        total = 0.0
        shared = 0
        {columns}
        if not shared:
            continue
        d = sqrt(total / shared)
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
            # A float sum never decreases when a term >= 0 is added, and dividing by a
            # positive count (shared <= c) and sqrt are monotone: a partial sum past
            # worst**2 * c gives a distance of at least worst, which enters no list. The
            # slack covers rounding; the floor keeps sums whose mean underflows to 0.
            worst = max([kept[-1][0] for kept in nearest])
            limit = max(worst * worst * c * (1 + 2**-40), 2.0**-1000)
    return nearest
"""

_COLUMN = """\
if a{l} is not None:
    b = other[{l}]
    if b is not None:
        {term}
        shared += 1
        if total > limit:
            continue"""


class _Kernels(dict):
    """``_KERNELS[schema]``: ``schema``'s kernel, compiled on first use. Only column
    indices and kinds go into its text, never a name or a cell value."""

    def __missing__(self, schema: tuple) -> Callable:
        hoist, columns = [], []
        for l, kind in enumerate(schema):
            fields = (f"a{l}_{f} = a{l}.{f}" for f in _KIND_CLASS[kind].__slots__)
            hoist.append(f"if a{l} is not None: " + "; ".join(fields))
            term = _FORMULAS[kind][1].format(into="total +=", a=f"a{l}_")
            columns.append(_COLUMN.format(l=l, term=_indent(term, 2)))
        self[schema] = kernel = _compile(_KERNEL.format(
            targets="".join(f"a{l}," for l in range(len(schema))), hoist="\n    ".join(hoist),
            columns=_indent("\n".join(columns), 2),
        ))["nearest"]
        return kernel


_KERNELS = _Kernels()


def _nearest(matrix: DataMatrix, i: int, gaps: Sequence[int], rows: Iterable[int],
             k: int) -> list[list[tuple[float, int]]]:
    """For each column of ``gaps``, the ``(distance, row)`` of the k rows of
    ``rows`` (ascending) nearest to row i that observe it, nearest first;
    ties break toward the lower row. The schema's kernel keeps a sorted list
    of at most k rows per gap and stops summing a row once it cannot enter
    any. It adds the cell distances in schema order, so every bit matches
    ``row_distance``. Rows sharing no observed column with row i are left out."""
    return _KERNELS[matrix.schema](matrix.cells, i, gaps, rows, k)


def _shared_distances(matrix: DataMatrix, i: int, j: int) -> list[tuple[int, float]]:
    """``(column, cell distance)`` for each column rows i and j both observe, in schema order."""
    cells = zip(matrix.cells[i], matrix.cells[j], matrix.schema)
    return [(l, _CELL_DISTANCE[kind](a, b)) for l, (a, b, kind) in enumerate(cells)
            if a is not None and b is not None]


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
    shared = _shared_distances(matrix, i, j)
    total = 0.0
    for _, d in shared:
        total += d
    return RowDistance(math.sqrt(total / len(shared)), len(shared)) if shared else None
