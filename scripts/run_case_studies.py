#!/usr/bin/env python3
"""Run the masking benchmark over the three built-in case-study matrices.

Each case is one ``hetimpute benchmark --fixture`` run that masks 1..n
cells (one per row at most) over k = 1..k_max, many seeded trials each.
It writes ``<case>.csv`` (the per-trial errors) and ``<case>.summary.csv``
(the per-k box-plot summary) into the output directory, and echoes the
summary table here. The exit code is the first failing run's, else 0; an
output directory that cannot be created is one ``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hetimpute.cli import main as hetimpute

#: (fixture, k_max, nan_max) of each case study.
SWEEPS = (("case1", 2, 3), ("case2", 3, 4), ("case3", 4, 5))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {args.outdir}: {exc}", file=sys.stderr)
        return 1
    for name, k_max, nan_max in SWEEPS:
        print(f"{name}:")
        code = hetimpute([
            "benchmark", "--fixture", name, "--k-min", "1", "--k-max", str(k_max),
            "--nan-min", "1", "--nan-max", str(nan_max), "--trials", str(args.trials),
            "--seed", str(args.seed), "--output", str(args.outdir / f"{name}.csv"),
        ])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
