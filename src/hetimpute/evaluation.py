"""Masking benchmark: remove known values at random, impute, measure error.

The protocol masks up to one cell per row (so every row keeps enough
context to be a donor elsewhere), imputes with a given k, and scores the
result as the root of the summed squared per-cell distances between the
original and the completed matrix, divided by the n*m cell count; unmasked
cells contribute 0. Sweeping k and the number of masked cells over many
seeded trials yields the per-trial errors and per-k box-plot statistics
used for reporting. A trial's error depends only on k and its masked cells,
so each distinct pair is imputed once, and ``imputer._map_shares`` spreads
the distinct imputations over forked workers on other CPUs when that pays.

Every random choice flows from explicit integer seeds; per-trial seeds are
derived by hashing (seed, k, count, trial), so any single trial can be
reproduced in isolation and the full report is a pure function of its
arguments.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

# The builtin SHA-256, as random imports its SHA-512: hashlib would load
# OpenSSL (about 3.5 MB of RSS) for one short digest per trial.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .core import CellRef, DataMatrix, _with_cells
from .distances import _CELL_DISTANCE
from .imputer import _map_shares, impute


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


def mask_random(
    matrix: DataMatrix, count: int, seed: int
) -> tuple[DataMatrix, tuple[CellRef, ...]]:
    """Replace ``count`` cells of a complete matrix by gaps, seeded.

    Picks ``count`` distinct rows uniformly and one column uniformly within
    each, so no row loses more than one value. Returns the masked matrix and
    the masked cells in row-major order. Same arguments, same pattern.
    """
    refs = _mask_cells(matrix, count, seed)
    return _with_cells(matrix, dict.fromkeys(refs)), refs


def _mask_cells(matrix: DataMatrix, count: int, seed: int) -> tuple[CellRef, ...]:
    """The cells ``mask_random`` masks, with its checks."""
    if count > matrix.n_rows:
        raise ValueError(
            f"cannot mask {count} cells with at most one per row "
            f"in a {matrix.n_rows}-row matrix"
        )
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not matrix.is_complete():
        raise ValueError("masking expects a complete matrix")
    rng = random.Random(seed)
    rows = rng.sample(range(matrix.n_rows), count)
    return tuple(sorted(CellRef(r, rng.randrange(matrix.n_cols)) for r in rows))


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
    return _error(original, imputed, cells)


def _error(
    original: DataMatrix, imputed: DataMatrix, cells: Iterable[tuple[int, int]]
) -> float:
    """matrix_error summed over ``cells`` alone, in the order given.

    Given in row-major order and leaving out only cells at distance 0 (the
    unmasked cells of a finite table), it keeps the bits of the full sum.
    """
    functions = [_CELL_DISTANCE[kind] for kind in original.schema]
    total = 0.0
    for i, l in cells:
        d = functions[l](original.cells[i][l], imputed.cells[i][l])
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


def benchmark(
    matrix: DataMatrix,
    k_values: Sequence[int],
    missing_counts: Sequence[int],
    trials: int,
    seed: int,
    dataset_name: str = "",
) -> BenchmarkReport:
    """Mask/impute/score ``trials`` times for every (k, missing_count) pair.

    Trials where some cell could not be imputed are kept in the per-trial
    records with error None but excluded from the summaries. Per-k summaries
    aggregate the errors of all missing counts for that k. ``mask_random``'s
    checks run on every trial's cells before any work. Each distinct (k,
    cells) is imputed once, with one selection pass per masked cell (each in
    its own row); ``_map_shares`` forks workers that impute shares of the
    distinct imputations on other CPUs when those passes pay.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    plan = [(k, [(c, t, _mask_cells(matrix, c, derive_trial_seed(seed, k, c, t)))
                 for c in missing_counts for t in range(trials)]) for k in k_values]
    keys = list(dict.fromkeys((k, refs) for k, cells in plan for *_, refs in cells))

    def score(keys: list) -> Iterator[Optional[float]]:
        for k, refs in keys:
            result = impute(_with_cells(matrix, dict.fromkeys(refs)), k)
            # Only the masked cells differ, so they carry the score.
            yield None if result.unimputable else _error(matrix, result.matrix, refs)

    passes = sum(len(refs) for _, refs in keys)
    errors = dict(zip(keys, _map_shares(score, keys, matrix, passes)))
    k_summaries: dict[int, Summary] = {}
    records: list[TrialRecord] = []
    for k, cells in plan:
        found = [errors[k, refs] for *_, refs in cells]
        records += [TrialRecord(k, c, t, e) for (c, t, _), e in zip(cells, found)]
        scored = [e for e in found if e is not None]
        if scored:
            k_summaries[k] = summarize(scored)
    return BenchmarkReport(dataset_name, k_summaries, tuple(records))
