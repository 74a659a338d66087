#!/usr/bin/env python3
"""Print the SHA-256 of every output of a fixed corpus of CLI runs.

Each job runs ``hetimpute.cli.main`` from the checkout's ``src``, in this
process, on inputs built in a temporary directory, and prints one
``sha256  job/name`` line per output file, then one for its stdout and one
for its exit code. Outputs are the same bytes on every interpreter and hash
seed, so the lines must equal the committed ``check_bytes.expected.txt``::

    python scripts/check_bytes.py | diff scripts/check_bytes.expected.txt -

A change that means to change outputs, or that edits perfbench's generator,
regenerates that file from this script's stdout.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # importing the generator leaves nothing in the checkout
ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hetimpute.cli import main as hetimpute
from run_case_studies import SWEEPS
from workloads import KINDS, N_COLS, WORKLOADS, _cell, _table, generate


def sweep(k_max: int, nan_max: int, trials: int) -> list[str]:
    return ["--k-min", "1", "--k-max", str(k_max), "--nan-min", "1",
            "--nan-max", str(nan_max), "--trials", str(trials)]


def jobs() -> list[tuple[str, list[str]]]:
    """Write the inputs under the working directory; return each job's name and arguments."""
    runs = []
    for name, seeds in (("impute-dense", (1, 201)), ("impute-tall", (1,)),
                        ("benchmark-sweep", (1, 201))):
        w = WORKLOADS["full"][name]
        for seed in seeds:
            job = f"{name}-{seed}"
            args = ["--input", str(generate(w, seed, Path("in", job)).input_path)]
            if w.command == "impute":
                args += ["--k", "5", "--trace", f"{job}/trace.csv"]
            else:
                args += [*sweep(w.k_max, w.nan_max, w.trials), "--seed", str(seed)]
            runs.append((job, [w.command, *args, "--output", f"{job}/out.csv"]))
    for name, k_max, nan_max in SWEEPS:
        runs.append((name, ["benchmark", "--fixture", name, *sweep(k_max, nan_max, 500),
                            "--output", f"{name}/{name}.csv"]))
    # The 60x8 sweep shape, whose passes the per-row lists serve; a 200x8
    # table whose trials mask half its rows, which the kernel selects; and a
    # 300x8 table that lists 266 of its rows, ranked in chunks of 27.
    half = ["--k-min", "3", "--k-max", "5", "--nan-min", "100", "--nan-max", "101",
            "--trials", "1"]
    for rows, args in ((60, sweep(5, 4, 10)), (200, half), (300, sweep(5, 4, 40))):
        job, rng = f"t{rows}x8", random.Random(rows)
        grid = [[_cell(rng, KINDS[l % 3]) for l in range(N_COLS)] for _ in range(rows)]
        Path("in", f"{job}.csv").write_text(_table(grid), encoding="utf-8")
        runs.append((job, ["benchmark", "--input", f"in/{job}.csv", *args,
                           "--output", f"{job}/b.csv"]))
    # Intervals one and two ulps below the largest double, whose fill of row 0
    # overflows its upper bound and is clamped into its donors' range.
    Path("in", "near-top.csv").write_text(
        "x:interval,y:crisp\n,0.0\n[1.7976931348623153e+308;1.7976931348623155e+308],34.026\n"
        "[1.7976931348623155e+308;1.7976931348623155e+308],8.614\n", encoding="utf-8")
    dense = "in/impute-dense-1/input.csv"
    return runs + [("distance", ["distance", "--input", dense, "--rows", "0,1"]),
                   ("validate", ["validate", "--input", dense]),
                   ("fixtures", ["fixtures", "--dest", "fixtures"]),
                   ("near-top", ["impute", "--input", "in/near-top.csv", "--k", "2",
                                 "--trace", "near-top/trace.csv", "--output", "near-top/out.csv"])]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for job, args in jobs():
            os.makedirs(job, exist_ok=True)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = hetimpute(args)
            outputs = [(path.name, path.read_bytes()) for path in sorted(Path(job).iterdir())]
            outputs += [("stdout", out.getvalue().encode()), ("exit", str(code).encode())]
            for name, data in outputs:
                print(f"{hashlib.sha256(data).hexdigest()}  {job}/{name}")
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
