#!/usr/bin/env python3
"""Run the masking benchmark over the three built-in case-study matrices.

Each sweep masks 1..n cells (one per row at most) over a range of k, many
seeded trials each, and writes two flat CSV tables per case into the output
directory: the per-trial errors and the per-k box-plot summary. Per-k mean
errors are echoed here for a quick look; the tables plot directly.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from hetimpute import benchmark, fixture
from hetimpute.cli import raw_table, summary_table


@dataclass(frozen=True)
class SweepConfig:
    fixture_name: str
    k_values: range
    missing_counts: range


SWEEPS = (
    SweepConfig("case1", range(1, 3), range(1, 4)),
    SweepConfig("case2", range(1, 4), range(1, 5)),
    SweepConfig("case3", range(1, 5), range(1, 6)),
)


def run_sweep(config: SweepConfig, trials: int, seed: int, outdir: Path) -> None:
    report = benchmark(
        fixture(config.fixture_name),
        k_values=config.k_values,
        missing_counts=config.missing_counts,
        trials=trials,
        seed=seed,
    )
    (outdir / f"{config.fixture_name}_trials.csv").write_text(
        raw_table(report), encoding="utf-8"
    )
    (outdir / f"{config.fixture_name}_summary.csv").write_text(
        summary_table(report), encoding="utf-8"
    )
    skipped = sum(1 for rec in report.trials if rec.error is None)
    print(f"{config.fixture_name}: k -> mean error over all masking counts")
    for k, s in report.k_summaries.items():
        print(f"  k={k}: {s.mean:.2e}")
    if skipped:
        print(f"  ({skipped} trials had unimputable cells and were excluded)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for config in SWEEPS:
        run_sweep(config, args.trials, args.seed, args.outdir)


if __name__ == "__main__":
    main()
