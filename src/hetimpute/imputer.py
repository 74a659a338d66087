"""Weighted k-nearest-neighbor imputation over heterogeneous matrices.

For every missing cell: keep the k rows nearest by row distance among those
that observe its column, selected in one pass per target row that cuts
farther rows short, weight them by inverse distance, and fill the cell with
the component-wise convex combination of their values. The donor pool is
frozen for the whole pass, so cells never see each other's freshly imputed
values and the result is independent of evaluation order. One fill step
serves ``impute``, which builds the completed matrix and trace, and the
masking benchmark, which scores the filled cells alone.
"""

from __future__ import annotations

import math
from itertools import filterfalse
from typing import Iterator, NamedTuple, Sequence

from .core import CellRef, CellValue, DataMatrix, _compiled, _with_cells, components
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


def neighbor_weights(distances: Sequence[float]) -> list[float]:
    """Inverse-distance weights, normalized to sum to 1.

    Inverse distance is singular at zero, and a donor at (numerically) zero
    distance is an exact answer: if any distance falls below
    ZERO_DISTANCE_EPS, those donors share the weight uniformly and every
    other donor gets 0. When every donor is at infinite distance, none is
    nearer than another, so they too share the weight uniformly.
    """
    if len(distances) == 0:
        raise ValueError("at least one distance is required")
    exact = [d < ZERO_DISTANCE_EPS for d in distances]
    if any(exact):
        share = 1.0 / sum(exact)
        return [share if hit else 0.0 for hit in exact]
    inverses = [1.0 / d for d in distances]
    total = 0.0
    for inv in inverses:
        total += inv
    if total == 0.0:  # every distance is inf
        return [1.0 / len(distances)] * len(distances)
    return [inv / total for inv in inverses]


def combine_cells(donors: Sequence[tuple[CellValue, float]]) -> CellValue:
    """Component-wise weighted combination of donor cells.

    The donors are observed cells of one DataMatrix column, so they share
    its kind, which the matrix checked when it was built. Weights are
    expected to be nonnegative and sum to 1, which keeps every component
    inside its donors' range, up to rounding, and preserves interval/fuzzy
    ordering. A component whose weighted sum overflows is clamped into its
    donors' [min, max]. A combination of identical values returns that
    value verbatim (the mathematical identity would otherwise be lost to
    summation rounding).
    """
    if len(donors) == 0:
        raise ValueError("at least one donor is required")
    first = donors[0][0]
    parts = [components(cell) for cell, _ in donors]
    if all(p == parts[0] for p in parts):
        return first
    # A left fold per component in donor order, not sum(), so bits match the oracle.
    weights = [w for _, w in donors]
    values = []
    for column in zip(*parts):
        value = 0.0
        for x, w in zip(column, weights):
            value += x * w
        if not math.isfinite(value):
            # Rounding can carry a sum of values near the largest double
            # past it; clamping only then keeps every finite sum's bits.
            value = min(max(value, min(column)), max(column))
        values.append(value)
    return type(first)(*values)


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
        for ref, chosen in zip(refs, passes):
            weights = cell = None  # if no comparable row observes the column
            if chosen:
                weights = neighbor_weights([d for d, _ in chosen])
                cell = combine_cells([(cells[j][ref[1]], w) for (_, j), w in zip(chosen, weights)])
            yield ref, chosen, weights, cell
