"""Output checks. Each function returns a list of problems; empty means pass.

Imputed cells are checked against the brute-force reference in
``tests/oracle.py``: for a seeded sample, the donor rows, distances and
weights in the ``--trace`` file must equal the reference bit for bit (their
``repr`` text matches). Every imputed value must lie component-wise inside
its donors' range and keep interval and fuzzy ordering. On the sweep, a
seeded sample of trials is recomputed by brute force.
"""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

ORACLE_SAMPLE = 25
SWEEP_SAMPLE = 20


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fields(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.split("\n")[:-1]]


def _records(text: str) -> list[dict[str, str]]:
    """A CSV table without quoting, as one dict per record keyed by header."""
    header, *rows = _fields(text)
    return [dict(zip(header, row)) for row in rows]


def check_impute(
    hetimpute, oracle, input_text: str, output_text: str, trace_text: str,
    k: int, seed: int,
) -> list[str]:
    """Check one ``impute --trace`` result against its input."""
    problems: list[str] = []
    try:
        output = hetimpute.parse(output_text)
    except ValueError as exc:
        return [f"output does not parse: {exc}"]
    masked = hetimpute.parse(input_text)
    in_fields = _fields(input_text)
    out_fields = _fields(output_text)
    if len(in_fields) != len(out_fields) or in_fields[0] != out_fields[0]:
        return ["output header or row count differs from the input"]
    gaps = []
    for i, (a, b) in enumerate(zip(in_fields[1:], out_fields[1:])):
        for l, (x, y) in enumerate(zip(a, b)):
            if x == "":
                gaps.append((i, l))
                if y == "":
                    problems.append(f"cell ({i},{l}) left missing")
            elif x != y:
                problems.append(f"observed cell ({i},{l}) changed: {x!r} -> {y!r}")
    if problems:
        return problems[:10]

    trace: dict[tuple[int, int], list[tuple[int, str, str]]] = {}
    for r in _records(trace_text):
        trace.setdefault((int(r["row"]), int(r["col"])), []).append(
            (int(r["donor_row"]), r["distance"], r["weight"])
        )
    if sorted(trace) != gaps:
        return ["trace does not list exactly the missing cells"]

    for (i, l), donors in trace.items():
        values = [hetimpute.components(masked.cells[j][l]) for j, _, _ in donors]
        got = hetimpute.components(output.cells[i][l])
        for c, x in enumerate(got):
            lo = min(v[c] for v in values)
            hi = max(v[c] for v in values)
            if not lo <= x <= hi:
                problems.append(f"cell ({i},{l}) component {c} outside its donors' range")
        if list(got) != sorted(got):
            problems.append(f"cell ({i},{l}) components out of order")

    rng = random.Random(f"oracle|{seed}")
    for i, l in sorted(rng.sample(gaps, min(ORACLE_SAMPLE, len(gaps)))):
        expected = oracle.bf_candidate_distances(masked, i, l)[:k]
        weights = oracle.bf_weights([d for d, _ in expected])
        want = [(j, repr(d), repr(w)) for (d, j), w in zip(expected, weights)]
        if trace[(i, l)] != want:
            problems.append(f"cell ({i},{l}) donors differ from the oracle")
    return problems[:10]


def check_sweep(
    raw_text: str, summary_text: str, stdout: str, workload
) -> list[str]:
    """Check the tables of one ``benchmark`` invocation."""
    try:
        rows = report_rows(raw_text)
    except KeyError as exc:
        return [f"raw table has no column {exc}"]
    expected = [
        (str(k), str(count), str(trial))
        for k in workload.k_values()
        for count in workload.missing_counts()
        for trial in range(workload.trials)
    ]
    if [tuple(r[:3]) for r in rows] != expected:
        return ["raw table does not list every (k, missing_count, trial) once"]
    problems = [
        f"trial {r[:3]} was not imputable"
        for r in rows
        if r[4] != "1" or r[3] == "" or not math.isfinite(float(r[3]))
    ]
    if stdout != summary_text:
        problems.append("stdout differs from the summary file")
    ks = [r.get("k") for r in _records(summary_text)]
    if ks != [str(k) for k in workload.k_values()]:
        problems.append("summary does not list every k once")
    return problems[:10]


def report_rows(raw_text: str) -> list[list[str]]:
    """The raw table's (k, missing_count, trial, error, imputable) fields."""
    return [
        [r["k"], r["missing_count"], r["trial"], r["error"], r["imputable"]]
        for r in _records(raw_text)
    ]


def trial_rows(report) -> list[list[str]]:
    """The same fields, from an in-process BenchmarkReport."""
    return [
        [str(t.k), str(t.missing_count), str(t.trial),
         "" if t.error is None else repr(t.error), "0" if t.error is None else "1"]
        for t in report.trials
    ]


def check_sweep_trials(hetimpute, oracle, matrix, raw_text: str, seed: int) -> list[str]:
    """Recompute a seeded sample of trials by brute force and compare their
    errors with the raw table bit for bit.

    Each trial is masked by the package's own ``mask_random`` with its
    derived seed; every masked cell is then filled from
    ``bf_candidate_distances`` and ``bf_weights`` (the convex combination,
    summed in donor order, or the donors' common value when they agree) and
    scored as ``sqrt(sum of squared bf_cell_distance) / (n * m)``, summing
    in row-major order as ``matrix_error`` does.
    """
    errors = {tuple(r[:3]): r[3] for r in report_rows(raw_text)}
    rng = random.Random(f"sweep|{seed}")
    problems = []
    for key in sorted(rng.sample(sorted(errors), min(SWEEP_SAMPLE, len(errors)))):
        k, count, trial = map(int, key)
        trial_seed = hetimpute.evaluation.derive_trial_seed(seed, k, count, trial)
        masked = hetimpute.mask_random(matrix, count, trial_seed)[0]
        total = 0.0
        for i, row in enumerate(masked.cells):
            for l, cell in enumerate(row):
                if not isinstance(cell, hetimpute.Missing):
                    continue
                donors = oracle.bf_candidate_distances(masked, i, l)[:k]
                weights = oracle.bf_weights([d for d, _ in donors])
                cells = [masked.cells[j][l] for _, j in donors]
                value = cells[0]
                if any(c != value for c in cells):
                    parts = [hetimpute.components(c) for c in cells]
                    value = type(value)(*(
                        sum(p[c] * w for p, w in zip(parts, weights))
                        for c in range(len(parts[0]))
                    ))
                d = oracle.bf_cell_distance(matrix.cells[i][l], value)
                total += d * d
        expected = math.sqrt(total) / (matrix.n_rows * matrix.n_cols)
        if repr(expected) != errors[key]:
            problems.append(f"trial {key}: error {errors[key]} differs from the oracle")
    return problems


def sweep_error(raw_text: str) -> float:
    """Mean error over the raw table's trials."""
    errors = [float(r["error"]) for r in _records(raw_text)]
    return sum(errors) / len(errors)
