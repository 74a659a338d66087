"""Weighted k-nearest-neighbor imputation over heterogeneous matrices.

For every missing cell: rank the rows that observe that column by row
distance, keep the k closest, weight them by inverse distance, and fill the
cell with the component-wise convex combination of their values. The donor
pool is the matrix as passed in, frozen for the whole pass, so cells never
see each other's freshly imputed values and the result is independent of
evaluation order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import CellRef, CellValue, DataMatrix, _with_cells, components, missing_cells
from .distances import _CellTerms, _row_distances

#: Distances below this are treated as exact matches when weighting.
ZERO_DISTANCE_EPS = 1e-12


class Donor(NamedTuple):
    row: int
    distance: float
    weight: float


class ImputationResult(NamedTuple):
    """A completed matrix plus, per filled cell, the donors that built it,
    nearest first. A cell whose column no comparable row observes gets no
    trace entry and is listed in ``unimputable`` instead."""

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


def _neighbors(
    distances: list[tuple[float, int, int]], missing: set[int], k: int
) -> tuple[Donor, ...]:
    """The k nearest rows of ``distances`` outside ``missing``, the rows
    that do not observe the target column, as donors nearest first.

    Ties at the k-th distance break toward the lower row index.
    """
    chosen = sorted(p for p in distances if p[1] not in missing)[:k]
    if not chosen:
        return ()
    weights = neighbor_weights([p[0] for p in chosen])
    return tuple(
        Donor(row=p[1], distance=p[0], weight=w) for p, w in zip(chosen, weights)
    )


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
    return _impute(matrix, k, None)


def _impute(matrix: DataMatrix, k: int, terms: _CellTerms | None) -> ImputationResult:
    """``impute``, reading per-cell distances from ``terms`` when given.
    Precondition: the table's matrix differs from ``matrix`` only in cells
    that are gaps in ``matrix``, as when ``matrix`` is a masked copy of it."""
    if k < 1:
        raise ValueError("k must be at least 1")
    filled: dict[CellRef, CellValue] = {}
    trace: dict[CellRef, tuple[Donor, ...]] = {}
    gaps: dict[int, list[CellRef]] = {}
    missing: list[set[int]] = [set() for _ in matrix.schema]
    for ref in missing_cells(matrix):
        gaps.setdefault(ref.row, []).append(ref)
        missing[ref.col].add(ref.row)
    # One distance pass per target row, shared by all of the row's gaps,
    # over the rows that observe at least one of them.
    for i, refs in gaps.items():
        excluded = set.intersection(*(missing[ref.col] for ref in refs))
        rows = [j for j in range(matrix.n_rows) if j not in excluded]
        distances = _row_distances(matrix, i, rows, terms)
        for ref in refs:
            donors = _neighbors(distances, missing[ref.col], k)
            if not donors:
                continue
            cells = [(matrix.cells[d.row][ref.col], d.weight) for d in donors]
            filled[ref] = combine_cells(cells)
            trace[ref] = donors
    # The cells left None are exactly those without donors.
    completed = _with_cells(matrix, filled)
    return ImputationResult(completed, trace, tuple(missing_cells(completed)))
