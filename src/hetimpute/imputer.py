"""Weighted k-nearest-neighbor imputation over heterogeneous matrices.

For every missing cell: keep the k rows nearest by row distance among those
that observe its column, selected in one pass per target row that cuts
farther rows short, weight them by inverse distance, and fill the cell with
the component-wise convex combination of their values. The donor pool is
frozen for the whole pass, so cells never see each other's freshly imputed
values and the result is independent of evaluation order. One fill step
serves ``impute``, which builds the completed matrix and trace, and the
masking benchmark, which scores the filled cells alone. On POSIX, it may fork
workers that select donors on other CPUs and reaps them before it returns; it
selects a share itself if no whole reply came.
"""

from __future__ import annotations

import _thread
import marshal
import math
import os
from contextlib import suppress
from itertools import chain, filterfalse
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import CellRef, CellValue, DataMatrix, _compiled, _with_cells, components
from .distances import _kernel

#: Distances below this are treated as exact matches when weighting.
ZERO_DISTANCE_EPS = 1e-12

#: Selection passes over a table fork p = min(CPUs, items, passes //
#: _FORK_MIN_TARGETS) processes if passes * (rows * columns + _PASS_COST), their
#: cell visits plus each pass's own cost in visits, is at least _FORK_MIN_CELLS.
#: Two processes against one (2-core Xeon VM, Python 3.11, medians of 31 to 41
#: calls); impute, target rows of rows x columns: 24x30x8 0.53x, 64x250x2 0.87x,
#: 96x250x2 1.03x, 12x1000x2 0.80x, 24x1000x2 1.03x, 4x12000x8 1.03x; benchmark,
#: masked cells on rows x columns: 204 on 3x3 0.88x, 290 1.11x; 240 on 5x3 0.92x,
#: 299 1.10x; 126 on 30x4 1.09x, 179 1.19x; 50 on 60x8 0.81x, 100 1.13x. A pass
#: cost of 160 fits 106 such rows of three runs best (160 to 180 fit as well).
_FORK_MIN_TARGETS = 4
_FORK_MIN_CELLS = 48000
_PASS_COST = 160
_forked = False  # while a mapping has forked: in its parent and in every worker


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
    nearest, n = _compiled(_kernel, matrix.schema), matrix.n_rows  # compiled here, before any fork
    targets, missing = {}, [set() for _ in matrix.schema]  # row -> gap columns, column -> rows
    for i, l in gaps:
        targets.setdefault(i, []).append(l)
        missing[l].add(i)
    passes = [(i, columns, ranked.get((i, *columns))) for i, columns in targets.items()]

    def select(passes: list) -> Iterator[list]:  # a pass per row, over rows observing a gap
        for i, columns, listed in passes:
            if listed is None:
                excluded = set.intersection(*(missing[l] for l in columns))
                yield nearest(cells, i, columns, filterfalse(excluded.__contains__, range(n)), k)
            else:  # the list past the masked rows, and the masked rows that observe the gap
                others = [j for j in targets if j not in missing[columns[0]]]
                near = nearest(cells, i, columns, others, k)[0] if others else []
                yield [sorted([p for p in listed if p[1] not in targets][:k] + near)[:k]]

    selected = _map_shares(select, passes, matrix, sum(p[2] is None for p in passes))
    for ref, chosen in zip(gaps, chain.from_iterable(selected)):
        weights = cell = None  # if no comparable row observes the column
        if chosen:
            weights = neighbor_weights([d for d, _ in chosen])
            cell = combine_cells([(cells[j][ref[1]], w) for (_, j), w in zip(chosen, weights)])
        yield ref, chosen, weights, cell


def _map_shares(function: Callable[[list], Iterable], items: list, matrix: DataMatrix,
                passes: int) -> Iterable:
    """``function``, which maps a list item by item, over ``items``, whose selection makes
    ``passes`` passes over ``matrix``: ``function(items)`` itself unless the passes pay for
    forks, on POSIX, with no other thread and outside a mapping that forked; else forked worker
    w of p maps ``items[w::p]`` and replies in full by ``marshal``, which keeps float bits, and
    the parent maps the rest. A worker that replied has exited and is only reaped. One that
    has not gets SIGKILL if the parent raises, by the pidfd opened at its fork where there is
    one: with SIGCHLD ignored, the worker may be gone and its pid reused."""
    global _forked
    p = min(len(items), passes // _FORK_MIN_TARGETS)
    if (p < 2 or _forked or passes * (matrix.n_rows * matrix.n_cols + _PASS_COST) < _FORK_MIN_CELLS
            or not hasattr(os, "fork") or _thread._count()):
        return function(items)
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
    p = min(p, len(cpus(0)))
    with suppress(OSError):  # Linux lists threads that _thread does not count
        p = 1 if p > 1 and len(os.listdir("/proc/self/task")) > 1 else p
    if p < 2:
        return function(items)
    results: list = [None] * len(items)
    workers = {}  # share -> (pid, read end of its pipe) until it replies
    pidfds = {}  # share -> its worker's pidfd, where the system gives one
    _forked = True
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
                    reply = memoryview(marshal.dumps(list(function(items[w::p]))))
                    while reply:  # a signal may cut a write short
                        reply = reply[os.write(out, reply):]
                finally:
                    os._exit(0)
            with suppress(AttributeError, OSError):  # none before Linux 5.3, or off Linux
                pidfds[w] = os.pidfd_open(pid)
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
        _forked = False
        for w, (pid, pipe) in workers.items():  # only if the parent raised
            pipe.close()
            import signal  # only on this path, so a run that does not raise never loads it
            with suppress(ProcessLookupError, ChildProcessError):  # gone: then not by its pid
                try:
                    signal.pidfd_send_signal(pidfds[w], signal.SIGKILL)
                except (KeyError, AttributeError):  # no pidfd to signal through
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in pidfds.values():  # each worker is reaped by now
            os.close(fd)
    return results
