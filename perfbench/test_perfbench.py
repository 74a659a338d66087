"""The benchmark's own test: a tiny size of each workload, end to end.

Run from the root of a checkout with ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_generator_is_seeded_and_every_cell_has_a_donor(tmp_path):
    dense = workloads.WORKLOADS["full"]["impute-dense"]
    first = workloads.generate(dense, 5, tmp_path / "a")
    again = workloads.generate(dense, 5, tmp_path / "b")
    other = workloads.generate(dense, 6, tmp_path / "c")
    assert first.input_path.read_bytes() == again.input_path.read_bytes()
    assert first.input_path.read_bytes() != other.input_path.read_bytes()
    assert first.properties["missing_cells"] == round(0.2 * dense.rows * workloads.N_COLS)

    rows = [line.split(",") for line in first.input_path.read_text().splitlines()[1:]]
    observed = [{l for l, field in enumerate(row) if field} for row in rows]
    assert all(observed)
    for l in range(workloads.N_COLS):
        assert sum(l in cols for cols in observed) >= workloads.K
    for i, l in first.missing:
        assert any(
            j != i and l in cols and cols & observed[i]
            for j, cols in enumerate(observed)
        )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(
        tmp_path, "--workload", "impute-dense", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
