"""Weighted k-nearest-neighbor imputation over heterogeneous matrices.

For every missing cell: keep the k rows nearest by row distance among those
that observe its column, selected in one pass per target row that cuts
farther rows short, weight them by inverse distance, and fill the cell with
the component-wise convex combination of their values. The donor pool is
the matrix as passed in, frozen for the whole pass, so cells never see each
other's freshly imputed values and the result is independent of evaluation
order. On POSIX, ``impute`` may fork workers that select donors on other CPUs
and reaps them before it returns; it selects a share itself if no whole reply came.
"""

from __future__ import annotations

import _thread
import marshal
import math
import os
from contextlib import suppress
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import CellRef, CellValue, DataMatrix, _with_cells, components, missing_cells
from .distances import _CELL_DISTANCE, _CellTerms, _nearest

#: Distances below this are treated as exact matches when weighting.
ZERO_DISTANCE_EPS = 1e-12

#: Selection forks only with this many target rows per process and this many
#: cell visits (target rows times rows times columns) in all. Two processes
#: against one (2-core Xeon VM, Python 3.11, k=5, median of 31 to 41 calls),
#: target rows of rows of columns: 24x30x8 0.53x, 32x60x8 0.93x, 24x250x2
#: 0.61x, 24x1000x2 0.89x, 48x500x2 1.07x, 24x250x8 1.3x, 12x250x16 1.25x;
#: 4x12000x8 1.03x, 8x12000x8 1.37x.
_FORK_MIN_TARGETS = 4
_FORK_MIN_CELLS = 48000


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
    functions = [_CELL_DISTANCE[kind] for kind in matrix.schema]
    def select(targets: list) -> Iterator[list]:  # over the rows that observe a gap
        for i, refs in targets:
            excluded = set.intersection(*(missing[ref.col] for ref in refs))
            rows = [j for j in range(matrix.n_rows) if j not in excluded]
            yield _nearest(matrix, i, [ref.col for ref in refs], rows, k, terms, functions)

    # Not with ``terms``: a worker's rows would be lost, and a benchmark's workers use it.
    p = _processes(len(gaps) // _FORK_MIN_TARGETS, terms is None
                   and len(gaps) * matrix.n_rows * matrix.n_cols >= _FORK_MIN_CELLS)
    selected = _map_shares(select, list(gaps.items()), p)
    for refs, nearest in zip(gaps.values(), selected):
        for ref, chosen in zip(refs, nearest):
            if not chosen:
                continue
            weights = neighbor_weights([d for d, _ in chosen])
            donors = tuple(
                Donor(row=j, distance=d, weight=w) for (d, j), w in zip(chosen, weights)
            )
            cells = [(matrix.cells[d.row][ref.col], d.weight) for d in donors]
            filled[ref] = combine_cells(cells)
            trace[ref] = donors
    # The cells left None are exactly those without donors.
    completed = _with_cells(matrix, filled)
    return ImputationResult(completed, trace, tuple(missing_cells(completed)))


def _processes(p: int, pays: bool) -> int:
    """p, at most one per CPU this process may run on, if p >= 2, the work
    ``pays`` for the forks, on POSIX and with no other Python thread; else 1."""
    if p < 2 or not pays or not hasattr(os, "fork") or _thread._count():
        return 1
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
    return min(p, len(cpus(0)))


def _map_shares(function: Callable[[list], Iterable], items: list, p: int) -> Iterable:
    """``function``, which maps a list item by item, over ``items``: with p < 2,
    ``function(items)`` itself; else forked worker w of p maps ``items[w::p]``
    and replies by ``marshal``, which keeps float bits, and the parent maps the
    rest. A worker that replied has exited and is only reaped. One that has not
    gets SIGKILL if the parent raises; with SIGCHLD ignored, its pid may be reused."""
    if p < 2:
        return function(items)
    results: list = [None] * len(items)
    workers = {}  # share -> (pid, read end of its pipe) until it replies
    try:
        for w in range(1, p):
            fds = ()
            try:
                fds = r, out = os.pipe()
                pid = os.fork()
            except OSError:  # no file descriptor or process left: the parent maps the share
                for fd in fds:
                    os.close(fd)
                continue
            if pid == 0:  # the worker: it replies and leaves, whatever happens
                try:
                    os.write(out, marshal.dumps(list(function(items[w::p]))))
                finally:
                    os._exit(0)
            os.close(out)
            workers[w] = pid, open(r, "rb")
        for w in range(p):
            reply = b""  # no worker: the parent maps the share
            if w in workers:
                with workers[w][1] as pipe:
                    reply = pipe.read()  # to its end, so the worker has exited
                with suppress(ChildProcessError):  # reaped already if SIGCHLD is ignored
                    os.waitpid(workers.pop(w)[0], 0)
            try:
                results[w::p] = marshal.loads(reply)
            except (EOFError, ValueError, TypeError):  # none, cut short or of another length
                results[w::p] = function(items[w::p])
    finally:
        for pid, pipe in workers.values():  # only if the parent raised
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
    return results
