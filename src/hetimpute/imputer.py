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
from dataclasses import dataclass
from typing import Sequence

from .core import MISSING, CellRef, CellValue, DataMatrix, _with_cells, components
from .distances import _CellTerms, _row_distances

#: Distances below this are treated as exact matches when weighting.
ZERO_DISTANCE_EPS = 1e-12


@dataclass(frozen=True)
class Donor:
    row: int
    distance: float
    weight: float


@dataclass(frozen=True)
class NeighborSet:
    """The donors selected for one missing cell, nearest first.

    May be empty when no row both observes the target column and shares at
    least one observed column with the target row.
    """

    donors: tuple[Donor, ...]


@dataclass(frozen=True)
class ImputationResult:
    """A completed matrix plus, per filled cell, the donors that built it."""

    matrix: DataMatrix
    trace: dict[CellRef, NeighborSet]
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
    total = sum(inverses)
    if total == 0.0:  # every distance is inf
        return [1.0 / len(distances)] * len(distances)
    return [inv / total for inv in inverses]


def _neighbors(
    distances: list[tuple[float, int, int]], missing: set[int], k: int
) -> NeighborSet:
    """The k nearest rows of ``distances`` outside ``missing``, the rows
    that do not observe the target column.

    Ties at the k-th distance break toward the lower row index.
    """
    chosen = sorted(p for p in distances if p[1] not in missing)[:k]
    if not chosen:
        return NeighborSet(())
    weights = neighbor_weights([p[0] for p in chosen])
    donors = tuple(
        Donor(row=p[1], distance=p[0], weight=w) for p, w in zip(chosen, weights)
    )
    return NeighborSet(donors)


def find_neighbors(matrix: DataMatrix, target: CellRef, k: int) -> NeighborSet:
    """Select up to k donor rows for the missing cell at ``target``.

    Candidates are the rows observed at target.col with a defined distance
    to the target row. Ties at the k-th distance break toward the lower row
    index. Fewer than k candidates degrade gracefully to all of them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if matrix.cells[target.row][target.col] is not MISSING:
        raise ValueError(f"cell ({target.row},{target.col}) is not missing")
    missing = {i for i, l in matrix._gaps if l == target.col}
    rows = [j for j in range(matrix.n_rows) if j not in missing]
    return _neighbors(_row_distances(matrix, target.row, rows), missing, k)


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
    if all(cell == first for cell, _ in donors):
        return first
    # One sum per component, in donor order, so the bits match the oracle.
    weights = [w for _, w in donors]
    values = []
    for column in zip(*(components(cell) for cell, _ in donors)):
        value = sum(x * w for x, w in zip(column, weights))
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
    Missing. The input matrix is not touched.
    """
    return _impute(matrix, k, None)


def _impute(matrix: DataMatrix, k: int, terms: _CellTerms | None) -> ImputationResult:
    """``impute``, reading per-cell distances from ``terms`` when given.
    Precondition: the table's matrix differs from ``matrix`` only in cells
    MISSING in ``matrix``, as when ``matrix`` is a masked copy of it."""
    if k < 1:
        raise ValueError("k must be at least 1")
    filled: dict[CellRef, CellValue] = {}
    trace: dict[CellRef, NeighborSet] = {}
    unimputable: list[CellRef] = []
    gaps: dict[int, list[int]] = {}
    missing: list[set[int]] = [set() for _ in matrix.schema]
    for i, l in matrix._gaps:
        gaps.setdefault(i, []).append(l)
        missing[l].add(i)
    # One distance pass per target row, shared by all of the row's gaps,
    # over the rows that observe at least one of them.
    for i, cols in gaps.items():
        excluded = set.intersection(*(missing[l] for l in cols))
        rows = [j for j in range(matrix.n_rows) if j not in excluded]
        distances = _row_distances(matrix, i, rows, terms)
        for l in cols:
            ref = CellRef(i, l)
            neighbors = _neighbors(distances, missing[l], k)
            if not neighbors.donors:
                unimputable.append(ref)
                continue
            donor_cells = [(matrix.cells[d.row][l], d.weight) for d in neighbors.donors]
            filled[ref] = combine_cells(donor_cells)
            trace[ref] = neighbors
    return ImputationResult(_with_cells(matrix, filled), trace, tuple(unimputable))
