"""Weighted k-nearest-neighbor imputation over heterogeneous matrices.

For every missing cell: keep the k rows nearest by row distance among those
that observe its column, selected in one pass per target row that cuts
farther rows short, weight them by inverse distance, and fill the cell with
the component-wise convex combination of their values. The donor pool is
frozen for the whole pass, so cells never see each other's freshly imputed
values and the result is independent of evaluation order. One fill step
serves ``impute``, which builds the completed matrix and trace, and the
masking benchmark, which scores the filled cells alone; it weights and
combines a gap's donors in one call of its kind's step, compiled from the rule texts.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Iterator, NamedTuple, Sequence

from .core import (_KIND_CLASS, CellRef, CellValue, ColumnKind, DataMatrix, _compiled, _indent,
                   _with_cells, components, matches_kind)
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


#: Each rule of a fill, written once and run by each kind's step, ``neighbor_weights`` and
#: ``combine_cells`` alike. ``_WEIGHTS`` weights ``distances``; the rules of each field ``{f}``
#: combine ``donors`` by ``weights``. A clamp acts only on a sum past the largest double.
_WEIGHTS = f"""exact = [d < {ZERO_DISTANCE_EPS!r} for d in distances]
if True in exact:
    weights = [1.0 / exact.count(True) if hit else 0.0 for hit in exact]
else:
    total = 0.0
    for d in distances:
        total += 1.0 / d
    weights = [1.0 / d / total if total else 1.0 / len(distances) for d in distances]"""
_IDENTITY = "x.{f} != first.{f}"
_FOLD = "v_{f} += x.{f} * w"
_CLAMP = """if not -inf < v_{f} < inf:
    v_{f} = min(max(v_{f}, min([x.{f} for x in donors])), max([x.{f} for x in donors]))"""


def _combination(kind: ColumnKind, out: str) -> str:
    """The text that gives ``out`` the first of ``donors`` if all are equal, else their left fold
    by ``weights`` per field, set in a new cell's slots if it passes the constructor's test."""
    def rule(text: str, sep: str) -> str:
        return sep.join(text.format(f=f) for f in _KIND_CLASS[kind].__slots__)

    return "\n".join([
        f"first = donors[0]\nfor x in donors:\n    if {rule(_IDENTITY, ' or ')}:\n        break",
        f"else:\n    {out}first", rule("v_{f} = 0.0", "; "),
        f"for x, w in zip(donors, weights):\n    {rule(_FOLD, '; ')}", rule(_CLAMP, "\n"),
        f"if -inf < {rule('v_{f}', ' <= ')} < inf:\n    cell = new(type(first))",
        f"    {rule('set_{f}(cell, v_{f})', '; ')}\n    {out}cell",
        f"{out}type(first)({rule('v_{f}', ', ')})"])


def _step(kind: ColumnKind) -> str:
    """The source of ``kind``'s fill step, ``(cells, col, chosen) -> (weights, cell)``."""
    body = ["distances = [d for d, _ in chosen]", _WEIGHTS,
            "donors = [cells[j][col] for _, j in chosen]", _combination(kind, "return weights, ")]
    return f"def {kind.value}_fill(cells, col, chosen):\n    {_indent(chr(10).join(body), 1)}"


def _public(kind: ColumnKind | None) -> str:
    """The source of ``combine_cells``'s step for ``kind``, or of ``neighbor_weights``'s if None."""
    if kind is None:
        return f"def neighbor_weights(distances):\n    {_indent(_WEIGHTS, 1)}\n    return weights"
    body = _indent(_combination(kind, "return "), 1)
    return f"def {kind.value}_combine(donors, weights):\n    {body}"


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
    return _compiled(_public, None)(distances)


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
    components(donors[0][0])  # a gap has none, and raises
    kind = next(kind for kind in ColumnKind if matches_kind(donors[0][0], kind))
    return _compiled(_public, kind)([cell for cell, _ in donors], [w for _, w in donors])


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
    steps = [_compiled(_step, kind) for kind in matrix.schema]
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
        for ref, chosen in zip(refs, passes):  # None, None if no comparable row observes it
            yield ref, chosen, *(steps[ref[1]](cells, ref[1], chosen) if chosen else (None, None))
