"""The scripts under scripts/, run as a user runs them: in a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(SCRIPTS / name), *args],
        capture_output=True, env=env, timeout=120,
    )


def test_worked_example_prints_its_expected_output():
    run = run_script("worked_example.py")
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (SCRIPTS / "worked_example.expected.txt").read_bytes()


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_bench_corpus_writes_its_expected_digests(hash_seed):
    run = run_script("check_bytes.py", PYTHONHASHSEED=hash_seed)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (SCRIPTS / "check_bytes.expected.txt").read_bytes()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_case_studies_outdir_that_cannot_be_created(tmp_path, under):
    blocker = tmp_path / "f"
    blocker.write_text("", encoding="utf-8")
    outdir = blocker / "sub" if under else blocker
    run = run_script("run_case_studies.py", "--trials", "1", "--outdir", str(outdir))
    stderr = run.stderr.decode()
    assert "Traceback" not in stderr
    assert run.returncode == 1
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot create {outdir}: ")
    assert run.stdout == b""
    assert sorted(tmp_path.iterdir()) == [blocker]
