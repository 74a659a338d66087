"""Distance functions for crisp, interval, and fuzzy cells, and between rows.

The row distance averages per-cell distances over the columns where both
rows are observed, then takes the square root of that mean. Averaging (as
opposed to plain summation) keeps rows comparable when they share different
numbers of observed columns. All three per-cell distances stay within the
same [0, 1]-ish magnitude for unit-range components, so no single column
kind dominates the mix. Donor selection walks the candidate rows once per
target row and stops summing a row once it cannot be among the k nearest.
It runs one kernel per schema: source text with each column's formula
inline, which ``core._compiled`` compiles on first use, as it does
``_apart``, which ranks a set of rows together for each column left out,
each pair once. Both open with ``_row_i``, and they and each kind's cell
distance are written from the kind's one formula text, so they agree bit
for bit with ``row_distance``, which folds ``_shared_distances``.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import _KIND_CLASS, CellValue, ColumnKind, DataMatrix, _compiled, _indent, matches_kind


#: Each kind's distance from a target cell ``a`` to a donor cell ``b``: the text that its cell
#: distance ``{kind.value}_distance`` and every kernel write, so the two agree bit for bit.
#: ``{into}`` takes the distance, and ``{a}`` leads to a component of ``a``.
_FORMULAS = {
    ColumnKind.CRISP: "{into} abs({a}value - b.value)",
    ColumnKind.INTERVAL: """try:
    {into} 0.5 * sqrt(({a}lower - b.lower) ** 2 + ({a}upper - b.upper) ** 2)
except OverflowError:
    {into} inf""",
    ColumnKind.FUZZY: "{into} (abs({a}a1 - b.a1) + abs({a}a2 - b.a2) + abs({a}a3 - b.a3)) / 3.0",
}


def _cell_distance(kind: ColumnKind) -> str:
    """The source of ``kind``'s cell distance from ``a`` to ``b``."""
    text = _indent(_FORMULAS[kind].format(into="return", a="a."), 1)
    return f"def {kind.value}_distance(a, b):\n    {text}"


def cell_distance(a: CellValue, b: CellValue, kind: ColumnKind) -> float:
    """Dispatch to the distance for ``kind``; both cells must match it."""
    if not (matches_kind(a, kind) and matches_kind(b, kind)):
        raise ValueError(
            f"cell_distance needs two observed {kind.value} cells, "
            f"found {type(a).__name__}/{type(b).__name__}"
        )
    return _compiled(_cell_distance, kind)(a, b)


def _row_i(schema: tuple) -> str:
    """The opening of a kernel and ``apart``: row i's cells, and their fields if observed."""
    hoist = [f"if a{l} is not None: " + "; ".join(f"a{l}_{f} = a{l}.{f}" for f in cls.__slots__)
             for l, cls in enumerate(map(_KIND_CLASS.get, schema))]
    targets = "".join(f"a{l}," for l in range(len(schema)))
    return _indent("\n".join([f"{targets} = row = cells[i]", *hoist]), 1)


# A kernel's text: ``{row_i}`` opens it, and ``{columns}`` adds row j's cell distances in turn.
_KERNEL = """\
def nearest(cells, i, gaps, rows, k):
    {row_i}
    c = sum([a is not None for a in row])
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


def _kernel(schema: tuple) -> str:
    """The source of ``schema``'s kernel. ``_compiled(_kernel, schema)(cells, i, gaps, rows, k)``
    gives, for each column of ``gaps``, the ``(distance, row)`` of the k rows of ``rows``
    (ascending) nearest to row i that observe it, nearest first; ties break toward the lower
    row. It keeps a sorted list of at most k rows per gap and stops summing a row once it
    cannot enter any. It adds the cell distances in schema order, so every bit matches
    ``row_distance``. Rows sharing no observed column with row i are left out."""
    terms = [_FORMULAS[kind].format(into="total +=", a=f"a{l}_") for l, kind in enumerate(schema)]
    columns = "\n".join(_COLUMN.format(l=l, term=_indent(t, 2)) for l, t in enumerate(terms))
    return _KERNEL.format(row_i=_row_i(schema), columns=_indent(columns, 2))


_APART = """\
def apart(cells, rows):
    ahead = {{i: [[inf] * {n} for _ in cells[i]] for i in rows}}
    outside = [j for j in range({n}) if j not in ahead]
    for i in rows:
        {row_i}
        {d} = lists = ahead.pop(i)
        for j in [*ahead, *outside]:
            other = cells[j]
            {body}
            if j in ahead:
                {e} = ahead[j]; {mirror}
        yield i, lists
"""


def _apart(schema: tuple) -> str:
    """The source of ``apart(cells, rows)``, which yields ``(i, lists)`` per row i of the ascending
    complete ``rows``: ``lists[l][j]`` is the distance to row j that ``row_distance`` gives when
    (i, l) is the one gap of row i, ``lists[l][i]`` is inf, and one column gives empty lists. Each
    term is computed once and folded in schema order, none below +0.0, as in a fold from 0.0: a
    pair of ``rows`` has the same bits from either side, so it is computed once for both."""
    m, columns = len(schema), range(len(schema))
    body = [f"b = other[{l}]\n" + _FORMULAS[kind].format(into=f"t{l} =", a=f"a{l}_")
            for l, kind in enumerate(schema)]
    folds = [" + ".join(f"t{x}" for x in columns if x != l) for l in columns if m > 1]
    body += [f"d{l}[j] = x{l} = sqrt(({fold}) / {m - 1})" for l, fold in enumerate(folds)]
    return _APART.format(n="len(cells)" if m > 1 else "0", row_i=_indent(_row_i(schema), 1),
                         d="".join(f"d{l}," for l in columns), e="".join(f"e{l}," for l in columns),
                         body=_indent("\n".join(body), 3),
                         mirror="; ".join(f"e{l}[i] = x{l}" for l in range(len(folds))))


def _shared_distances(matrix: DataMatrix, i: int, j: int) -> list[tuple[int, float]]:
    """``(column, cell distance)`` for each column rows i and j both observe, in schema order."""
    cells = zip(matrix.cells[i], matrix.cells[j], matrix.schema)
    return [(l, _compiled(_cell_distance, kind)(a, b)) for l, (a, b, kind) in enumerate(cells)
            if a is not None and b is not None]


def row_distance(matrix: DataMatrix, i: int, j: int) -> Optional[float]:
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
    return math.sqrt(total / len(shared)) if shared else None
