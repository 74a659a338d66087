"""Masking benchmark: remove known values at random, impute, measure error.

The protocol masks up to one cell per row (so every row keeps enough
context to be a donor elsewhere), fills the masked cells with ``impute``'s
own fill step for a given k, and scores them as the root of their summed
squared distances to the truth, divided by the n*m cell count: the other
cells are at distance 0, and no completed matrix is built. Sweeping k and
the number of masked cells over many seeded trials yields the per-trial
errors and per-k box-plot statistics used for reporting. A trial's error
depends only on k and its masked cells, so each distinct pair is filled
once, and the rows that many trials mask are ranked once, together.
Trial seeds hash (seed, k, count, trial): any one trial can be reproduced
alone, and the report is a pure function of its arguments; a trial's cells
are read off its seeded generator's bits as ``random.sample`` would.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Iterable, NamedTuple, Optional, Sequence

# The builtin SHA-256, as random imports its SHA-512: hashlib would load
# OpenSSL (about 3.5 MB of RSS) for one short digest per trial.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .core import CellRef, DataMatrix, _compiled, _replaced, _with_cells
from .distances import _apart, _cell_distance
from .imputer import _fill


class Summary(NamedTuple):
    """Box-plot statistics of one error sample set."""

    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float


class TrialRecord(NamedTuple):
    """One benchmark trial; error is None when any cell was unimputable."""

    k: int
    missing_count: int
    trial: int
    error: Optional[float]


class BenchmarkReport(NamedTuple):
    dataset_name: str
    k_summaries: dict[int, Summary]
    trials: tuple[TrialRecord, ...]


def mask_random(matrix: DataMatrix, count: int,
                seed: int) -> tuple[DataMatrix, tuple[CellRef, ...]]:
    """Replace ``count`` cells of a complete matrix by gaps, seeded.

    Picks ``count`` distinct rows uniformly and one column uniformly within
    each, so no row loses more than one value. Returns the masked matrix and
    the masked cells in row-major order. Same arguments, same pattern.
    """
    _check_count(matrix, count)
    refs = tuple(map(CellRef._make, _mask_cells(matrix, count, seed)))
    return _with_cells(matrix, dict.fromkeys(refs)), refs


def _check_count(matrix: DataMatrix, count: int) -> None:
    """``mask_random``'s checks of its arguments."""
    if count > matrix.n_rows:
        raise ValueError(f"cannot mask {count} cells with at most one per row "
                         f"in a {matrix.n_rows}-row matrix")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not matrix.is_complete():
        raise ValueError("masking expects a complete matrix")


def _mask_cells(matrix: DataMatrix, count: int, seed: int) -> tuple[tuple[int, int], ...]:
    """The sorted ``(row, col)`` that ``mask_random`` masks, once ``_check_count`` passed: those of
    ``r.sample(range(n), count)`` and ``r.randrange(m)`` per row, ``r = random.Random(seed)``, read
    off ``r.getrandbits`` as those do: a draw below x takes x.bit_length() bits until below x."""
    bits, n, m, rows = random.Random(seed).getrandbits, matrix.n_rows, matrix.n_cols, {}
    if n <= 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0):  # sample's pool
        pool = list(range(n))
        for x in range(n, n - count, -1):
            j = bits(x.bit_length())
            while j >= x:
                j = bits(x.bit_length())
            rows[pool[j]] = None
            pool[j] = pool[x - 1]
    while len(rows) < count:  # else sample's set: a row drawn again is drawn anew
        j = bits(n.bit_length())
        if j < n:
            rows[j] = None
    cols = []
    while len(cols) < count:  # a column per row drawn, in turn
        l = bits(m.bit_length())
        if l < m:
            cols.append(l)
    return tuple(sorted(zip(rows, cols)))


def matrix_error(original: DataMatrix, imputed: DataMatrix) -> float:
    """Imputation error between two complete matrices of the same shape:
    the Euclidean norm of the per-cell distances, divided by n*m.

    Cells that were never touched are at distance 0 and contribute nothing,
    so with a single imputed cell this is exactly that cell's distance to
    the truth over the cell count.
    """
    if original.n_rows != imputed.n_rows or original.schema != imputed.schema:
        raise ValueError("matrices must share shape and schema")
    if not (original.is_complete() and imputed.is_complete()):
        raise ValueError("matrix_error expects two complete matrices")
    cells = itertools.product(range(original.n_rows), range(original.n_cols))
    functions = [_compiled(_cell_distance, kind) for kind in original.schema]
    return _error(original, functions, zip(cells, itertools.chain.from_iterable(imputed.cells)))


def _error(original: DataMatrix, functions: list, imputed: Iterable[tuple]) -> Optional[float]:
    """matrix_error, by the schema's cell distances ``functions``, over the ``((row, col), cell)``
    of ``imputed`` alone in the order given, or None if a cell is None. Given in row-major order
    and leaving out only cells at distance 0, it keeps the bits of the full sum."""
    total = 0.0
    for (i, l), cell in imputed:
        if cell is None:
            return None
        d = functions[l](original.cells[i][l], cell)
        total += d * d
    return math.sqrt(total) / (original.n_rows * original.n_cols)


def _quantile(ordered: Sequence[float], p: float) -> float:
    # Linear interpolation between order statistics ("type 7"), skipped when
    # they are equal: between two infs it would compute inf - inf = nan.
    pos = (len(ordered) - 1) * p
    lo, hi = ordered[math.floor(pos)], ordered[math.ceil(pos)]
    return lo if lo == hi else lo + (pos - math.floor(pos)) * (hi - lo)


def summarize(values: Sequence[float]) -> Summary:
    """Box-plot summary of a nonempty sample set."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample set")
    ordered = sorted(values)
    return Summary(
        min=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        max=ordered[-1],
        mean=functools.reduce(operator.add, ordered, 0.0) / len(ordered),
    )


def derive_trial_seed(seed: int, k: int, count: int, trial: int) -> int:
    """Stable per-trial seed, independent of Python's hash randomization."""
    key = f"{seed}|{k}|{count}|{trial}".encode()
    return int.from_bytes(_sha256(key).digest()[:8], "big")


_ENTRIES = 2**16  # about the most distances ranking keeps alive: a chunk's rows × n × m


def _ranked(matrix: DataMatrix, keys: list, kept: int) -> dict:
    """Per masked (i, l) of ``keys``, a plan's distinct ``(k, cells)`` on complete ``matrix``, the
    ``kept`` (max k + max count - 1) ``(distance, row)`` nearest to row i with only (i, l) a gap.
    A pass in a trial masking c of n rows spares the kernel n - c rows, and ranking a row for
    each column costs 2 to 5 passes: only a row whose passes spare 3n rows gets lists. ``apart``
    ranks them in chunks; a stable sort of rows by distance breaks ties toward the lower row."""
    n, spared, columns = matrix.n_rows, {}, {}
    for _, refs in keys:
        for i, l in refs:
            spared[i] = spared.get(i, 0) + n - len(refs)
            columns.setdefault(i, set()).add(l)
    rows = sorted(i for i, v in spared.items() if v >= 3 * n)
    step = max(1, _ENTRIES // (n * matrix.n_cols))
    return {(i, l): [(d[j], j) for j in sorted(range(len(d)), key=d.__getitem__)[:kept + 1]
                     if j != i][:kept]  # row i's own entry is inf
            for start in range(0, len(rows), step)
            for i, lists in _compiled(_apart, matrix.schema)(matrix.cells, rows[start:start + step])
            for l in columns[i] for d in [lists[l]]}


def benchmark(matrix: DataMatrix, k_values: Iterable[int], missing_counts: Iterable[int],
              trials: int, seed: int, dataset_name: str = "") -> BenchmarkReport:
    """Mask/impute/score ``trials`` times for every (k, missing_count) pair.

    Trials where some cell could not be imputed are kept in the per-trial
    records with error None but excluded from the summaries. Per-k summaries
    aggregate the errors of all missing counts for that k. ``mask_random``'s
    checks run once per count, then the check of k, before any work, if
    there is a trial. Each distinct (k, cells) is filled once, with one
    selection pass per masked cell (each in its own row), and scored from its
    filled cells alone. A pass walks its row's list from ``_ranked`` if there
    is one.
    """
    k_values, missing_counts = tuple(k_values), tuple(missing_counts)  # read more than once
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for c in dict.fromkeys(missing_counts) if k_values else ():
        _check_count(matrix, c)
    if missing_counts and min(k_values, default=1) < 1:  # before any trial is drawn
        raise ValueError("k must be at least 1")
    plan = [(k, [(c, t, _mask_cells(matrix, c, derive_trial_seed(seed, k, c, t)))
                 for c in missing_counts for t in range(trials)]) for k in k_values]
    keys = list(dict.fromkeys((k, refs) for k, cells in plan for *_, refs in cells))
    ranked = _ranked(matrix, keys, max(k_values, default=0) + max(missing_counts, default=0) - 1)
    errors, functions = {}, [_compiled(_cell_distance, kind) for kind in matrix.schema]
    for k, refs in keys:
        filled = _fill(matrix, _replaced(matrix.cells, dict.fromkeys(refs)), refs, k, ranked)
        errors[k, refs] = _error(matrix, functions, ((r, c) for r, *_, c in filled))
    k_summaries: dict[int, Summary] = {}
    records: list[TrialRecord] = []
    for k, cells in plan:
        found = [errors[k, refs] for *_, refs in cells]
        records += [TrialRecord(k, c, t, e) for (c, t, _), e in zip(cells, found)]
        scored = [e for e in found if e is not None]
        if scored:
            k_summaries[k] = summarize(scored)
    return BenchmarkReport(dataset_name, k_summaries, tuple(records))
