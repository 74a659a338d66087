"""Seeded inputs for the benchmark workloads.

The generator writes typed-CSV text itself, without calling the package, so
a change to the codec under test cannot change the inputs it is measured on.
Every table has ``N_COLS`` columns whose kinds cycle crisp, interval, fuzzy;
all components are uniform in [0, 1), which keeps the three per-cell
distances at the same magnitude so no kind dominates the row distance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

N_COLS = 8
KINDS = ("crisp", "interval", "fuzzy")
K = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one size.

    ``command`` is ``impute`` or ``benchmark``; ``trace_file`` adds
    ``--trace`` to the timed impute invocations. Impute workloads blank either
    a share ``missing_rate`` of all cells or exactly ``gaps`` cells in
    distinct rows; the benchmark workload feeds a complete table to the
    masking sweep.
    """

    name: str
    command: str
    rows: int
    trace_file: bool = False
    missing_rate: float = 0.0
    gaps: int = 0
    k_min: int = 1
    k_max: int = K
    nan_min: int = 1
    nan_max: int = 4
    trials: int = 0

    def k_values(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def missing_counts(self) -> range:
        return range(self.nan_min, self.nan_max + 1)

    def trials_per_call(self) -> int:
        """Trials one benchmark() call runs."""
        return len(self.k_values()) * len(self.missing_counts()) * self.trials

    def masked_cells_per_call(self) -> int:
        """Cells one benchmark() call masks and imputes, over all trials."""
        return len(self.k_values()) * self.trials * sum(self.missing_counts())


WORKLOADS = {
    "full": {
        # Distance work dominates: ~20% of cells missing, and most target
        # rows have two or more gaps, so per-row distance sharing shows here.
        "impute-dense": Workload(
            "impute-dense", "impute", rows=250, trace_file=True, missing_rate=0.2
        ),
        # Codec and cell representation dominate: a 3.6 MB file with two gaps
        # in distinct rows, so per-row sharing has nothing to share.
        "impute-tall": Workload("impute-tall", "impute", rows=12000, gaps=2),
        # Many small imputations of one matrix, one gap per row: caching
        # across trials shows here, per-row sharing cannot.
        "benchmark-sweep": Workload("benchmark-sweep", "benchmark", rows=60, trials=10),
    },
    "smoke": {
        "impute-dense": Workload(
            "impute-dense", "impute", rows=40, trace_file=True, missing_rate=0.2
        ),
        "impute-tall": Workload("impute-tall", "impute", rows=300, gaps=2),
        "benchmark-sweep": Workload(
            "benchmark-sweep", "benchmark", rows=12, k_max=3, nan_max=2, trials=3
        ),
    },
}


@dataclass(frozen=True)
class Inputs:
    """Generated files and the input properties optimisations depend on."""

    truth_path: Path
    input_path: Path
    missing: tuple[tuple[int, int], ...]
    properties: dict


def header() -> str:
    return ",".join(f"c{l + 1}:{KINDS[l % 3]}" for l in range(N_COLS))


def _cell(rng: random.Random, kind: str) -> str:
    if kind == "crisp":
        return repr(rng.random())
    if kind == "interval":
        lo, hi = sorted(rng.random() for _ in range(2))
        return f"[{lo!r};{hi!r}]"
    a1, a2, a3 = sorted(rng.random() for _ in range(3))
    return f"({a1!r};{a2!r};{a3!r})"


def _table(grid: list[list[str]]) -> str:
    return "\n".join([header(), *(",".join(row) for row in grid)]) + "\n"


def _dense_mask(rng: random.Random, rows: int, rate: float) -> set[tuple[int, int]]:
    """Blank ``rate`` of the cells, chosen uniformly, then restore cells until
    every missing cell has at least one donor: a row observed at its column
    that shares an observed column with its row. Rows keep an observed cell
    and columns keep at least K observed cells. A fixed count (rather than a
    coin per cell) keeps the work equal across seeds.
    """
    cells = [(i, l) for i in range(rows) for l in range(N_COLS)]
    missing = set(rng.sample(cells, round(rate * len(cells))))
    for i in range(rows):
        if all((i, l) in missing for l in range(N_COLS)):
            missing.discard((i, rng.randrange(N_COLS)))
    for l in range(N_COLS):
        gone = sorted(i for i in range(rows) if (i, l) in missing)
        while rows - len(gone) < K:
            missing.discard((gone.pop(rng.randrange(len(gone))), l))
    while True:
        observed = [
            sum(1 << l for l in range(N_COLS) if (i, l) not in missing)
            for i in range(rows)
        ]
        orphan = next(
            (
                (i, l)
                for i, l in sorted(missing)
                if not any(
                    j != i and observed[j] >> l & 1 and observed[j] & observed[i]
                    for j in range(rows)
                )
            ),
            None,
        )
        if orphan is None:
            return missing
        missing.discard(orphan)


def generate(workload: Workload, seed: int, dest: Path) -> Inputs:
    """Write the workload's truth table and input file under ``dest``."""
    rng = random.Random(f"{workload.name}|{seed}")
    truth = [
        [_cell(rng, KINDS[l % 3]) for l in range(N_COLS)] for _ in range(workload.rows)
    ]
    if workload.missing_rate:
        missing = _dense_mask(rng, workload.rows, workload.missing_rate)
    else:
        rows = rng.sample(range(workload.rows), workload.gaps)
        missing = {(i, rng.randrange(N_COLS)) for i in rows}
    grid = [
        ["" if (i, l) in missing else cell for l, cell in enumerate(row)]
        for i, row in enumerate(truth)
    ]
    dest.mkdir(parents=True, exist_ok=True)
    truth_path = dest / "truth.csv"
    truth_path.write_text(_table(truth), encoding="utf-8")
    input_path = dest / "input.csv"
    text = _table(grid)
    input_path.write_text(text, encoding="utf-8")

    gaps_per_row: dict[int, int] = {}
    for i, _ in missing:
        gaps_per_row[i] = gaps_per_row.get(i, 0) + 1
    properties = {
        "n": workload.rows,
        "m": N_COLS,
        "missing_cells": len(missing),
        "target_rows": len(gaps_per_row),
        "multi_gap_row_share": (
            sum(1 for c in gaps_per_row.values() if c >= 2) / len(gaps_per_row)
            if gaps_per_row
            else 0.0
        ),
        "file_bytes": len(text.encode("utf-8")),
    }
    if workload.command == "benchmark":
        properties["masked_cells_per_call"] = workload.masked_cells_per_call()
        properties["trials_per_call"] = workload.trials_per_call()
    return Inputs(truth_path, input_path, tuple(sorted(missing)), properties)
