"""Weighted k-nearest-neighbor imputation over heterogeneous matrices.

For every missing cell: keep the k rows nearest by row distance among those
that observe its column, selected in one pass per target row that cuts
farther rows short, weight them by inverse distance, and fill the cell with
the component-wise convex combination of their values. The donor pool is
frozen for the whole pass, so cells never see each other's freshly imputed
values and the result is independent of evaluation order. One fill step
serves ``impute``, which builds the completed matrix and trace, and the
masking benchmark, which scores the filled cells alone; it weights and
combines a gap's donors in one call of its kind's step, compiled from one template.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterator, NamedTuple, Sequence

from .core import _KIND_CLASS, CellRef, ColumnKind, DataMatrix, _compiled, _with_cells
from .distances import _kernel

#: Distances below this are treated as exact matches when weighting.
ZERO_DISTANCE_EPS = 1e-12


class Donor(NamedTuple):
    row: int
    distance: float
    weight: float


class ImputationResult(NamedTuple):
    """A completed matrix plus, per filled cell in row-major order, the donors that built it,
    nearest first. A cell whose column no comparable row observes is in ``unimputable`` instead."""

    matrix: DataMatrix
    trace: dict[CellRef, tuple[Donor, ...]]
    unimputable: tuple[CellRef, ...]


#: A kind's fill step: the inverse-distance weights, then the first donor itself if every donor
#: equals it, else each field's left fold by weight in donor order, set into a new cell's slots.
#: Weights >= 0 and monotone rounding keep each donor's field order in the folds. If any fold
#: passed the largest double, every field is clamped into its donors' range, which keeps that
#: order too. ``_step`` fills each placeholder but ``{kind}`` and ``{eps}`` with one text per field.
_STEP = """\
def {kind}_fill(cells, col, chosen):
    distances = [d for d, _ in chosen]
    exact = [d < {eps!r} for d in distances]
    if True in exact:
        weights = [1.0 / exact.count(True) if hit else 0.0 for hit in exact]
    else:
        total = 0.0
        for d in distances:
            total += 1.0 / d
        weights = [1.0 / d / total if total else 1.0 / len(distances) for d in distances]
    donors = [cells[j][col] for _, j in chosen]
    first = donors[0]
    for x in donors:
        if {differs}:
            break
    else:
        return weights, first
    {zeros}
    for x, w in zip(donors, weights):
        {folds}
    if {unbounded}:
        {clamps}
    cell = new(type(first))
    {slots}
    return weights, cell"""


def _step(kind: ColumnKind) -> str:
    """The source of ``kind``'s fill step, ``(cells, col, chosen) -> (weights, cell)``."""
    def each(text: str, sep: str) -> str:
        return sep.join(text.format(f=f) for f in _KIND_CLASS[kind].__slots__)

    clamp = "v_{f} = min(max(v_{f}, min([x.{f} for x in donors])), max([x.{f} for x in donors]))"
    return _STEP.format(
        kind=kind.value, eps=ZERO_DISTANCE_EPS, differs=each("x.{f} != first.{f}", " or "),
        zeros=each("v_{f} = 0.0", "; "), folds=each("v_{f} += x.{f} * w", "; "),
        unbounded=each("not -inf < v_{f} < inf", " or "), clamps=each(clamp, "\n        "),
        slots=each("set_{f}(cell, v_{f})", "; "))


def impute(matrix: DataMatrix, k: int) -> ImputationResult:
    """Fill every missing cell of ``matrix`` from its k nearest donors.

    Cells are processed in row-major order against the original matrix; a
    cell with no usable donors is reported in ``unimputable`` and left
    None. The input matrix is not touched.
    """
    fills = list(_fill(matrix, matrix.cells, matrix._gaps, k))
    trace = {ref: tuple(Donor(j, d, w) for (d, j), w in zip(chosen, weights))
             for ref, chosen, weights, _ in fills if chosen}
    # The cells left None are exactly those without donors.
    completed = _with_cells(matrix, {ref: cell for ref, *_, cell in fills})
    return ImputationResult(completed, trace, completed._gaps)


def _fill(matrix: DataMatrix, cells: Sequence[tuple], gaps: Sequence[tuple[int, int]],
          k: int, ranked: dict = {}) -> Iterator[tuple]:
    """``(ref, chosen, weights, cell)`` per ``(row, col)`` of ``gaps``, the row-major gaps of
    ``cells`` (``matrix``'s shape and schema): the ``(distance, row)`` of the k rows nearest to
    ``row`` observing ``col``, nearest first, their weights and cell, both None if no row does.
    ``ranked[row, col]`` may rank, for a row whose one gap is ``col``, k or more unmasked rows
    of complete ``matrix`` from it with that cell a gap: that pass walks this list instead."""
    if k < 1:
        raise ValueError("k must be at least 1")
    nearest, n = _compiled(_kernel, matrix.schema), matrix.n_rows
    targets, missing = {}, [set() for _ in matrix.schema]  # row -> gaps, column -> rows
    for ref in gaps:
        targets.setdefault(ref[0], []).append(ref)
        missing[ref[1]].add(ref[0])
    steps = [_compiled(_step, kind) if rows else None for kind, rows in zip(matrix.schema, missing)]
    for i, refs in targets.items():  # a pass per row, over rows observing a gap
        columns = [l for _, l in refs]
        listed = ranked.get((i, *columns))
        if listed is None:
            excluded = set.intersection(*(missing[l] for l in columns))
            passes = nearest(cells, i, columns, filterfalse(excluded.__contains__, range(n)), k)
        else:  # the list past the masked rows, and the masked rows that observe the gap
            others = [j for j in targets if j not in missing[columns[0]]]
            near = nearest(cells, i, columns, others, k)[0] if others else []
            passes = [sorted([p for p in listed if p[1] not in targets][:k] + near)[:k]]
        for ref, chosen in zip(refs, passes):  # None, None if no comparable row observes it
            yield ref, chosen, *(steps[ref[1]](cells, ref[1], chosen) if chosen else (None, None))
