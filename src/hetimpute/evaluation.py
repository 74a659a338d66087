"""Masking benchmark: remove known values at random, impute, measure error.

The protocol masks up to one cell per row (so every row keeps enough
context to be a donor elsewhere), imputes with a given k, and scores the
result as the root of the summed squared per-cell distances between the
original and the completed matrix, divided by the n*m cell count; unmasked
cells contribute 0. Sweeping k and the number of masked cells over many
seeded trials yields the per-trial errors and per-k box-plot statistics
used for reporting. Every trial masks the same complete matrix, so one
lazily filled table of its per-column cell distances serves all trials.

Every random choice flows from explicit integer seeds; per-trial seeds are
derived by hashing (seed, k, count, trial), so any single trial can be
reproduced in isolation and the full report is a pure function of its
arguments.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import MISSING, CellRef, DataMatrix, _with_cells
from .distances import _CellTerms, cell_distance
from .imputer import _impute

#: The most per-column cell distances (n*n*m) for which ``benchmark`` keeps
#: a table; full, it takes about 19 bytes a term (about 5 MB at the cap).
_MAX_TABLE_TERMS = 2**18


@dataclass(frozen=True)
class Summary:
    """Box-plot statistics of one error sample set."""

    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float


@dataclass(frozen=True)
class TrialRecord:
    """One benchmark trial; error is None when any cell was unimputable."""

    k: int
    missing_count: int
    trial: int
    error: Optional[float]


@dataclass(frozen=True)
class BenchmarkReport:
    dataset_name: str
    k_summaries: dict[int, Summary]
    trials: tuple[TrialRecord, ...]


def mask_random(
    matrix: DataMatrix, count: int, seed: int
) -> tuple[DataMatrix, tuple[CellRef, ...]]:
    """Replace ``count`` cells of a complete matrix by Missing, seeded.

    Picks ``count`` distinct rows uniformly and one column uniformly within
    each, so no row loses more than one value. Returns the masked matrix and
    the masked cells in row-major order. Same arguments, same pattern.
    """
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
    refs = tuple(sorted(CellRef(r, rng.randrange(matrix.n_cols)) for r in rows))
    return _with_cells(matrix, dict.fromkeys(refs, MISSING)), refs


def matrix_error(original: DataMatrix, imputed: DataMatrix) -> float:
    """Imputation error between two complete matrices of the same shape:
    the Euclidean norm of the per-cell distances, divided by n*m.

    Cells that were never touched are at distance 0 and contribute nothing,
    so with a single imputed cell this is exactly that cell's distance to
    the truth over the cell count.
    """
    if (
        original.n_rows != imputed.n_rows
        or original.schema != imputed.schema
    ):
        raise ValueError("matrices must share shape and schema")
    cells = itertools.product(range(original.n_rows), range(original.n_cols))
    return _error(original, imputed, cells)


def _error(
    original: DataMatrix, imputed: DataMatrix, cells: Iterable[tuple[int, int]]
) -> float:
    """matrix_error summed over ``cells`` alone, in the order given.

    Given in row-major order and leaving out only cells at distance 0 (the
    unmasked cells of a finite table), it keeps the bits of the full sum.
    """
    total = 0.0
    for i, l in cells:
        d = cell_distance(
            original.cells[i][l], imputed.cells[i][l], original.schema[l]
        )
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
        mean=sum(ordered) / len(ordered),
    )


def derive_trial_seed(seed: int, k: int, count: int, trial: int) -> int:
    """Stable per-trial seed, independent of Python's hash randomization."""
    key = f"{seed}|{k}|{count}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


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
    aggregate the errors of all missing counts for that k. ``mask_random``
    rejects an incomplete matrix and a count above the row count.
    Every trial reads its cell distances from one table of ``matrix``,
    filled lazily, unless it would hold over ``_MAX_TABLE_TERMS`` terms.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n, m = matrix.n_rows, matrix.n_cols
    terms = _CellTerms(matrix) if n * n * m <= _MAX_TABLE_TERMS else None
    k_summaries: dict[int, Summary] = {}
    records: list[TrialRecord] = []
    for k in k_values:
        errors: list[float] = []
        for count in missing_counts:
            for trial in range(trials):
                trial_seed = derive_trial_seed(seed, k, count, trial)
                masked, refs = mask_random(matrix, count, trial_seed)
                result = _impute(masked, k, terms)
                error = None
                if not result.unimputable:
                    # Only the masked cells differ, so they carry the score.
                    cells = ((ref.row, ref.col) for ref in refs)
                    error = _error(matrix, result.matrix, cells)
                    errors.append(error)
                records.append(TrialRecord(k, count, trial, error))
        if errors:
            k_summaries[k] = summarize(errors)
    return BenchmarkReport(
        dataset_name=dataset_name,
        k_summaries=k_summaries,
        trials=tuple(records),
    )
