import contextlib
import io
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetimpute
from hetimpute import fixture, parse, serialize
from hetimpute import cli
from hetimpute.cli import main

from strategies import matrices, raw_reals

approx = pytest.approx


def write_case1_masked(path):
    m = fixture("case1").with_cell(2, 2, None)
    path.write_text(serialize(m), encoding="utf-8")
    return m


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a child process, so an uncaught exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(hetimpute.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "hetimpute.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_import_loads_only_what_runs():
    # -S keeps site-packages from preloading modules, so the child sees what
    # importing the CLI itself loads. A trial seed takes the builtin SHA-256,
    # so hashlib and its OpenSSL stay unloaded after one as well.
    heavy = "{'dataclasses', 'inspect', 'hashlib', '_hashlib'}"
    code = "\n".join([
        "import hetimpute.cli, sys",
        f"print(sorted({heavy} & set(sys.modules)))",
        "from hetimpute.evaluation import derive_trial_seed",
        "print(derive_trial_seed(0, 1, 1, 0))",
        f"print(sorted({heavy} & set(sys.modules)))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(hetimpute.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n17714616561403392311\n[]\n"


def assert_one_line_data_error(run: subprocess.CompletedProcess) -> None:
    assert "Traceback" not in run.stderr
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


BENCH_ARGS = ["--k-min", "1", "--k-max", "1", "--nan-min", "1", "--nan-max", "1",
              "--trials", "1"]


class TestBadFilesEndInOneLine:
    @pytest.mark.parametrize(
        "command",
        [
            ["impute", "--k", "1", "--output", "{out}"],
            ["benchmark", *BENCH_ARGS, "--output", "{out}"],
            ["distance", "--rows", "0,1"],
            ["validate"],
        ],
        ids=["impute", "benchmark", "distance", "validate"],
    )
    def test_non_utf8_input(self, tmp_path, command):
        src = tmp_path / "in.csv"
        src.write_bytes(b"a:crisp\n\xff\n")
        args = [a.replace("{out}", str(tmp_path / "o.csv")) for a in command]
        assert_one_line_data_error(run_cli(*args, "--input", str(src)))

    @pytest.mark.parametrize(
        "command",
        [
            ["impute", "--k", "1", "--output", "{out}"],
            ["benchmark", "--k-min", "1", "--k-max", "1", "--nan-min", "1",
             "--nan-max", "1", "--trials", "6", "--output", "{out}"],
            ["distance", "--rows", "0,1"],
            ["validate"],
        ],
        ids=["impute", "benchmark", "distance", "validate"],
    )
    def test_overflowing_literal(self, tmp_path, command):
        src = tmp_path / "in.csv"
        src.write_text("a:crisp,b:crisp,c:crisp\n1e400,1,2\n2,3,4\n2.5,3.1,4.2\n"
                       "1,1,1\n", encoding="utf-8")
        args = [a.replace("{out}", str(tmp_path / "o.csv")) for a in command]
        run = run_cli(*args, "--input", str(src))
        assert_one_line_data_error(run)
        assert "line 2, column 1" in run.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_benchmark_input_with_missing_cell(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        run = run_cli("benchmark", "--input", str(src), *BENCH_ARGS,
                      "--output", str(tmp_path / "o.csv"))
        assert_one_line_data_error(run)
        assert "complete matrix" in run.stderr

    def test_impute_output_in_missing_directory(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        run = run_cli("impute", "--input", str(src), "--k", "1",
                      "--output", str(tmp_path / "nope" / "o.csv"))
        assert_one_line_data_error(run)

    def test_impute_trace_in_missing_directory(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        run = run_cli("impute", "--input", str(src), "--k", "1",
                      "--output", str(tmp_path / "o.csv"),
                      "--trace", str(tmp_path / "nope" / "t.csv"))
        assert_one_line_data_error(run)

    def test_failed_trace_leaves_no_output(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        run = run_cli("impute", "--input", str(src), "--k", "1",
                      "--output", str(tmp_path / "o.csv"),
                      "--trace", str(tmp_path / "nope" / "t.csv"))
        assert_one_line_data_error(run)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize("spelling", ["plain", "dotted", "symlink"])
    def test_output_and_trace_on_one_file(self, tmp_path, spelling):
        # Both would land in one file, and the trace would silently replace
        # the completed table; refuse before any file is created.
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        out = tmp_path / "o.csv"
        trace = {"plain": out, "dotted": tmp_path / "." / "o.csv",
                 "symlink": tmp_path / "link.csv"}[spelling]
        if spelling == "symlink":
            trace.symlink_to(out)
        before = sorted(p.name for p in tmp_path.iterdir())
        run = run_cli("impute", "--input", str(src), "--k", "1",
                      "--output", str(out), "--trace", str(trace))
        assert_one_line_data_error(run)
        assert "same file as another output" in run.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_output_to_dev_null_keeps_the_trace(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        trace = tmp_path / "t.csv"
        code = main(["impute", "--input", str(src), "--k", "1",
                     "--output", os.devnull, "--trace", str(trace)])
        assert code == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert trace.read_text(encoding="utf-8").startswith("row,col,donor_row")

    def test_output_to_stdout(self, tmp_path):
        src = tmp_path / "in.csv"
        m = write_case1_masked(src)
        run = run_cli("impute", "--input", str(src), "--k", "1",
                      "--output", "/dev/stdout")
        assert run.returncode == 0, run.stderr
        assert run.stdout == serialize(hetimpute.impute(m, 1).matrix)

    def test_output_through_symlink_keeps_link_and_mode(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        target = tmp_path / "target.csv"
        target.write_text("old\n", encoding="utf-8")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["impute", "--input", str(src), "--k", "1",
                     "--output", str(link)]) == 0
        assert link.is_symlink()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert parse(target.read_text(encoding="utf-8")).is_complete()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in.csv", "link.csv", "target.csv"]

    def test_benchmark_output_in_missing_directory(self, tmp_path):
        run = run_cli("benchmark", "--fixture", "case1", *BENCH_ARGS,
                      "--output", str(tmp_path / "nope" / "o.csv"))
        assert_one_line_data_error(run)

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Make imputing and benchmarking fail, so a test sees that an output
        was refused before any work ran."""
        def unreachable(*args, **kwargs):
            raise AssertionError("the work ran before the output was checked")

        monkeypatch.setattr(cli, "impute", unreachable)
        monkeypatch.setattr(cli, "benchmark", unreachable)

    @pytest.mark.parametrize("blocked", ["o.csv", "t.csv", "o.summary.csv"],
                             ids=["impute-output", "impute-trace", "benchmark-summary"])
    def test_existing_directory_is_refused_before_any_work(
        self, tmp_path, no_work, capsys, blocked
    ):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        (tmp_path / blocked).mkdir()
        out = str(tmp_path / "o.csv")
        if blocked == "o.summary.csv":
            args = ["benchmark", "--fixture", "case1", *BENCH_ARGS, "--output", out]
        else:
            args = ["impute", "--input", str(src), "--k", "1", "--output", out,
                    "--trace", str(tmp_path / "t.csv")]
        before = sorted(tmp_path.rglob("*"))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot write {tmp_path / blocked}: Is a directory"
        ]
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "output, trace, refused, reason",
        [
            ("nope/o.csv", None, "nope/o.csv", "No such file or directory"),
            ("o.csv", "nope/t.csv", "nope/t.csv", "No such file or directory"),
            ("in.csv/o.csv", None, "in.csv/o.csv", "Not a directory"),
            ("o.csv", "in.csv/t.csv", "in.csv/t.csv", "Not a directory"),
            ("o.csv", "o.csv", "o.csv", "same file as another output"),
            ("o.csv", "./o.csv", "o.csv", "same file as another output"),
            ("o.csv", "link.csv", "link.csv", "same file as another output"),
            ("nope/o.csv", "benchmark", "nope/o.csv", "No such file or directory"),
            ("in.csv/o.csv", "benchmark", "in.csv/o.csv", "Not a directory"),
        ],
        ids=["impute-output-missing-parent", "impute-trace-missing-parent",
             "impute-output-file-parent", "impute-trace-file-parent",
             "same-file-plain", "same-file-dotted", "same-file-symlink",
             "benchmark-output-missing-parent", "benchmark-output-file-parent"],
    )
    def test_unwritable_output_is_refused_before_any_work(
        self, tmp_path, no_work, capsys, output, trace, refused, reason
    ):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        (tmp_path / "link.csv").symlink_to(tmp_path / "o.csv")
        out = os.path.join(tmp_path, output)
        if trace == "benchmark":
            args = ["benchmark", "--fixture", "case1", *BENCH_ARGS, "--output", out]
        else:
            args = ["impute", "--input", str(src), "--k", "1", "--output", out]
            if trace is not None:
                args += ["--trace", os.path.join(tmp_path, trace)]
        before = sorted(tmp_path.rglob("*"))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot write {tmp_path / refused}: {reason}"
        ]
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_fixtures_dest_under_a_regular_file(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory\n", encoding="utf-8")
        run = run_cli("fixtures", "--dest", str(blocker / "sub"))
        assert_one_line_data_error(run)


# Valid files whose distances or combined values reach past the largest double.
INTERVAL_OVERFLOW = "x:interval,y:crisp\n[-1e300;1e300],1\n[1e300;1e300],\n"
EXTREME_FILES = {
    "interval-square-overflows": INTERVAL_OVERFLOW,
    "all-donors-at-inf": "x:crisp,y:crisp\n1.7e308,1\n-1.7e308,\n",
    "fuzzy-sum-overflows": (
        "a:fuzzy,b:fuzzy\n,(0;0;0)\n(0;0;1.7976931348623157e+308),(0;0;1)\n"
        "(0;0;1.7976931335875647e+308),(0;0;292299213049927.0)\n"
    ),
}


class TestNumericExtremes:
    @pytest.mark.parametrize("text", list(EXTREME_FILES.values()), ids=list(EXTREME_FILES))
    def test_impute_writes_a_valid_file(self, tmp_path, text):
        src = tmp_path / "in.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "o.csv"
        run = run_cli("impute", "--k", "2", "--input", str(src), "--output", str(out))
        assert run.returncode == 0, run.stderr
        check = run_cli("validate", "--input", str(out))
        assert check.returncode == 0, check.stderr

    @pytest.mark.parametrize("trials", ["1", "4"])
    def test_benchmark_summary_at_infinity(self, tmp_path, trials):
        src = tmp_path / "in.csv"
        src.write_text("x:crisp,y:crisp\n1.7e308,1\n-1.7e308,2\n1.6e308,3\n",
                       encoding="utf-8")
        out = tmp_path / "b.csv"
        args = [*BENCH_ARGS[:-1], trials, "--input", str(src), "--output", str(out)]
        assert main(["benchmark", *args]) == 0
        summary = (tmp_path / "b.summary.csv").read_text(encoding="utf-8").splitlines()
        if trials == "1":
            assert summary[1] == "1,inf,inf,inf,inf,inf,inf"
        assert "nan" not in summary[1]

    def test_distance_at_infinity(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(INTERVAL_OVERFLOW, encoding="utf-8")
        run = run_cli("distance", "--rows", "0,1", "--input", str(src))
        assert run.returncode == 0, run.stderr
        assert "row distance: inf" in run.stdout.splitlines()


class TestImputeCommand:
    def test_worked_example(self, tmp_path, case1):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        trace = tmp_path / "trace.csv"
        write_case1_masked(src)
        code = main(
            ["impute", "--input", str(src), "--output", str(out), "--k", "2",
             "--trace", str(trace)]
        )
        assert code == 0
        completed = parse(out.read_text(encoding="utf-8"))
        filled = completed.cells[2][2]
        assert filled.a1 == approx(0.3935, abs=1e-3)
        assert filled.a2 == approx(0.5604, abs=1e-3)
        assert filled.a3 == approx(0.7273, abs=1e-3)
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,col,donor_row,distance,weight"
        donors = [line.split(",") for line in lines[1:]]
        assert [d[2] for d in donors] == ["1", "0"]
        assert float(donors[0][4]) == approx(0.7380, abs=1e-3)

    def test_complete_input_round_trips(self, tmp_path, case1):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        src.write_text(serialize(case1), encoding="utf-8")
        assert main(["impute", "--input", str(src), "--output", str(out), "--k", "3"]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_k_zero_is_usage_error(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        code = main(["impute", "--input", str(src), "--output", str(tmp_path / "o.csv"), "--k", "0"])
        assert code == 2

    def test_unimputable_cells_reported(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        src.write_text("x:crisp\n5.0\n\n5.0\n", encoding="utf-8")
        code = main(["impute", "--input", str(src), "--output", str(out), "--k", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unimputable" in err and "(1,0)" in err
        # the cell stays missing in the written file
        assert out.read_text(encoding="utf-8").splitlines()[2] == ""

    def test_parse_failure_reports_position(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("x:interval\n[0.9;0.3]\n", encoding="utf-8")
        code = main(["impute", "--input", str(src), "--output", str(tmp_path / "o.csv"), "--k", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2, column 1" in err
        assert "lower > upper" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["impute", "--input", str(tmp_path / "nope.csv"), "--output",
             str(tmp_path / "o.csv"), "--k", "1"]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        args = ["benchmark", "--fixture", "case3", "--k-min", "1", "--k-max", "2",
                "--nan-min", "1", "--nan-max", "2", "--trials", "5", "--seed", "7"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        sum1 = tmp_path / "a.summary.csv"
        sum2 = tmp_path / "b.summary.csv"
        assert sum1.read_bytes() == sum2.read_bytes()
        raw_lines = out1.read_text(encoding="utf-8").splitlines()
        assert raw_lines[0] == "k,missing_count,trial,error,imputable"
        assert len(raw_lines) == 1 + 2 * 2 * 5
        summary_lines = sum1.read_text(encoding="utf-8").splitlines()
        assert summary_lines[0] == "k,min,q1,median,q3,max,mean"
        assert len(summary_lines) == 3
        assert capsys.readouterr().out.startswith("k,min,q1,median,q3,max,mean")

    def test_zero_masking_sweep_is_all_zeros(self, tmp_path):
        out = tmp_path / "zero.csv"
        code = main(
            ["benchmark", "--fixture", "case1", "--k-min", "1", "--k-max", "1",
             "--nan-min", "0", "--nan-max", "0", "--trials", "1", "--seed", "3",
             "--output", str(out)]
        )
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert all(row.split(",")[3] == "0.0" for row in rows)

    def test_file_input_accepted(self, tmp_path):
        src = tmp_path / "data.csv"
        src.write_text(serialize(fixture("case2")), encoding="utf-8")
        out = tmp_path / "bench.csv"
        code = main(
            ["benchmark", "--input", str(src), "--k-min", "1", "--k-max", "1",
             "--nan-min", "1", "--nan-max", "1", "--trials", "3", "--seed", "1",
             "--output", str(out)]
        )
        assert code == 0

    def test_unimputable_trials_keep_an_empty_error(self, tmp_path, capsys):
        # One row: masking its only row leaves no donor, so every such trial
        # is kept in the raw table with an empty error and flag 0.
        src = tmp_path / "one.csv"
        src.write_text("a:crisp,b:crisp\n1,2\n", encoding="utf-8")
        out = tmp_path / "bench.csv"
        code = main(
            ["benchmark", "--input", str(src), "--k-min", "1", "--k-max", "2",
             "--nan-min", "0", "--nan-max", "1", "--trials", "2", "--seed", "0",
             "--output", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == (
            "k,missing_count,trial,error,imputable\n"
            "1,0,0,0.0,1\n1,0,1,0.0,1\n1,1,0,,0\n1,1,1,,0\n"
            "2,0,0,0.0,1\n2,0,1,0.0,1\n2,1,0,,0\n2,1,1,,0\n"
        )
        summary = (
            "k,min,q1,median,q3,max,mean\n"
            "1,0.0,0.0,0.0,0.0,0.0,0.0\n2,0.0,0.0,0.0,0.0,0.0,0.0\n"
        )
        assert (tmp_path / "bench.summary.csv").read_text(encoding="utf-8") == summary
        assert capsys.readouterr().out == summary

    def test_nan_max_above_rows_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["benchmark", "--fixture", "case1", "--k-min", "1", "--k-max", "1",
             "--nan-min", "1", "--nan-max", "9", "--trials", "1", "--seed", "1",
             "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "nan-max" in capsys.readouterr().err

    def test_inverted_ranges_are_usage_errors(self, tmp_path):
        base = ["benchmark", "--fixture", "case1", "--trials", "1", "--seed", "1",
                "--output", str(tmp_path / "x.csv")]
        assert main(base + ["--k-min", "3", "--k-max", "1", "--nan-min", "0", "--nan-max", "1"]) == 2
        assert main(base + ["--k-min", "1", "--k-max", "1", "--nan-min", "2", "--nan-max", "1"]) == 2

    def test_trials_zero_is_usage_error(self, tmp_path):
        assert main(
            ["benchmark", "--fixture", "case1", "--k-min", "1", "--k-max", "1",
             "--nan-min", "0", "--nan-max", "1", "--trials", "0", "--seed", "1",
             "--output", str(tmp_path / "x.csv")]
        ) == 2

    def test_input_and_fixture_mutually_exclusive(self, tmp_path):
        assert main(
            ["benchmark", "--fixture", "case1", "--input", "x.csv", "--k-min", "1",
             "--k-max", "1", "--nan-min", "0", "--nan-max", "1",
             "--output", str(tmp_path / "x.csv")]
        ) == 2


class TestDistanceCommand:
    def test_worked_example_rows(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        assert main(["distance", "--input", str(src), "--rows", "2,0"]) == 0
        out = capsys.readouterr().out
        assert "shared features: 2" in out
        distance_line = [l for l in out.splitlines() if l.startswith("row distance")][0]
        assert float(distance_line.split(": ")[1]) == approx(0.2661, abs=5e-4)
        assert main(["distance", "--input", str(src), "--rows", "2,1"]) == 0
        out = capsys.readouterr().out
        distance_line = [l for l in out.splitlines() if l.startswith("row distance")][0]
        assert float(distance_line.split(": ")[1]) == approx(0.0945, abs=5e-4)

    def test_per_column_breakdown_lines(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        main(["distance", "--input", str(src), "--rows", "2,0"])
        out = capsys.readouterr().out
        assert "column 0 (c1):" in out
        assert "column 1 (c2):" in out
        assert "column 2" not in out  # masked column is not shared

    def test_duplicate_rows_at_zero(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("x:crisp,y:crisp\n1.0,2.0\n1.0,2.0\n", encoding="utf-8")
        assert main(["distance", "--input", str(src), "--rows", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "row distance: 0.0" in out

    def test_incomparable_rows(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("x:crisp,y:crisp\n1.0,\n,2.0\n", encoding="utf-8")
        assert main(["distance", "--input", str(src), "--rows", "0,1"]) == 0
        assert capsys.readouterr().out.strip() == "incomparable"

    def test_bad_row_arguments(self, tmp_path):
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        assert main(["distance", "--input", str(src), "--rows", "1,1"]) == 2
        assert main(["distance", "--input", str(src), "--rows", "0,9"]) == 2
        assert main(["distance", "--input", str(src), "--rows", "zero,one"]) == 2
        assert main(["distance", "--input", str(src), "--rows", "1"]) == 2


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys, case1):
        src = tmp_path / "ok.csv"
        src.write_text(serialize(case1), encoding="utf-8")
        assert main(["validate", "--input", str(src)]) == 0
        assert capsys.readouterr().out == ""

    def test_invariant_violation_reported(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("x:interval\n[0.9;0.3]\n", encoding="utf-8")
        assert main(["validate", "--input", str(src)]) == 1
        assert "lower > upper" in capsys.readouterr().err

    def test_ragged_file_rejected(self, tmp_path):
        src = tmp_path / "ragged.csv"
        src.write_text("x:crisp,y:crisp\n1.0\n", encoding="utf-8")
        assert main(["validate", "--input", str(src)]) == 1

    def test_unreadable_file(self, tmp_path):
        assert main(["validate", "--input", str(tmp_path / "ghost.csv")]) == 1


class TestFixturesCommand:
    def test_exports_all(self, tmp_path, capsys):
        assert main(["fixtures", "--dest", str(tmp_path)]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 3
        for name in ("case1", "case2", "case3"):
            text = (tmp_path / f"{name}.csv").read_text(encoding="utf-8")
            assert parse(text) == fixture(name)

    def test_exports_single(self, tmp_path):
        assert main(["fixtures", "--dest", str(tmp_path), "--name", "case2"]) == 0
        assert (tmp_path / "case2.csv").exists()
        assert not (tmp_path / "case1.csv").exists()

    def test_unknown_fixture_is_usage_error(self, tmp_path):
        assert main(["fixtures", "--dest", str(tmp_path), "--name", "case9"]) == 2

    def test_unwritable_file_exports_none(self, tmp_path, capsys):
        (tmp_path / "case2.csv").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(["fixtures", "--dest", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot write {tmp_path / 'case2.csv'}: Is a directory"
        ]
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


class TestWrite:
    def test_lines_are_streamed(self, tmp_path, tall_text):
        # _write draws each record as it writes it: no list of records and
        # no joined document sits beside the matrix.
        matrix = parse(tall_text)
        out = tmp_path / "o.csv"
        targets = cli._targets([out])
        tracemalloc.start()
        try:
            cli._write(targets, cli._records(matrix))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_text(encoding="utf-8") == tall_text
        assert peak - held < 0.25 * out.stat().st_size

    def test_an_output_that_fails_midway_leaves_none(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text("kept\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())

        def failing():
            yield "first\n"
            raise RuntimeError("no second line")

        targets = cli._targets([tmp_path / "new.csv", old])
        with pytest.raises(RuntimeError, match="no second line"):
            cli._write(targets, ["whole\n"], failing())
        assert sorted(tmp_path.iterdir()) == before
        assert old.read_text(encoding="utf-8") == "kept\n"


class TestUsageErrors:
    def test_unknown_flag_prints_usage_on_stderr(self, capsys):
        assert main(["impute", "--bogus", "x"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["impute", "--input", "x", "--output", "y", "--k", "abc"],
             "argument --k: expected a positive integer, found 'abc'"),
            (["impute", "--input", "x", "--output", "y", "--k", "0"],
             "argument --k: expected a positive integer, found '0'"),
            (["benchmark", "--fixture", "case1", "--k-min", "1", "--k-max", "1",
              "--nan-min", "0", "--nan-max", "x", "--output", "y"],
             "argument --nan-max: expected a nonnegative integer, found 'x'"),
        ],
        ids=["k-word", "k-zero", "nan-max-word"],
    )
    def test_bad_count_names_what_is_expected(self, args, expected, capsys):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(expected)
        assert "_int" not in err

    @pytest.mark.parametrize(
        "path",
        ["", ".", "/", "{tmp}/sub/", "{tmp}/o.csv/.", "{tmp}/.."],
        ids=["empty", "dot", "root", "trailing-slash", "trailing-dot", "parent"],
    )
    @pytest.mark.parametrize(
        "command, option",
        [("benchmark", "--output"), ("impute", "--output"), ("impute", "--trace")],
        ids=["benchmark-output", "impute-output", "impute-trace"],
    )
    def test_output_path_must_name_a_file(self, tmp_path, command, option, path):
        # benchmark names its summary after --output, and an empty --trace
        # must not drop the trace; refuse either before any work is done.
        # pathlib would read "<dir>/" and "<file>/." as the file's own name.
        path = path.format(tmp=tmp_path)
        src = tmp_path / "in.csv"
        write_case1_masked(src)
        paths = {"--output": str(tmp_path / "o.csv"), "--trace": str(tmp_path / "t.csv")}
        paths[option] = path
        if command == "impute":
            args = ["--input", str(src), "--k", "1", "--trace", paths["--trace"]]
        else:
            args = ["--fixture", "case1", *BENCH_ARGS]
        run = run_cli(command, *args, "--output", paths["--output"])
        assert "Traceback" not in run.stderr
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            f"error: argument {option}: expected a file name, found {path!r}"
        ]
        assert run.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


# Aim 3 over generated files: a file that validate accepts imputes, or fails
# with exit 1 and one line per problem, at the extremes of the double range.
BIG = sys.float_info.max  # about 1.8e308
EXTREME_REALS = st.one_of(
    st.sampled_from([BIG, -BIG, 1e300, -1e300, 5e-324, -5e-324, 0.0, 1.0]),
    raw_reals(),
)


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``, with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda pct: matrices(elements=EXTREME_REALS, missing_pct=pct)
    ),
    st.integers(1, 4),
)
def test_a_valid_file_imputes_or_fails_in_one_line(m, k):
    with tempfile.TemporaryDirectory() as tmp:
        src, out, trace = (os.path.join(tmp, name) for name in ("in", "out", "trace"))
        Path(src).write_text(serialize(m), encoding="utf-8")
        code, stdout, stderr = run_in_process(
            ["impute", "--input", src, "--output", out, "--k", str(k), "--trace", trace]
        )
        assert code in (0, 1)
        assert stdout == ""
        assert all(line.startswith(("error:", "unimputable:"))
                   for line in stderr.splitlines())
        assert run_in_process(["validate", "--input", out]) == (0, "", "")
        completed = parse(Path(out).read_text(encoding="utf-8"))
        for row, filled in zip(m.cells, completed.cells):
            assert all(a is None or a == b for a, b in zip(row, filled))
        result = hetimpute.impute(m, k)
        assert completed == result.matrix
        rows = [(*ref, *d) for ref in sorted(result.trace) for d in result.trace[ref]]
        assert Path(trace).read_text(encoding="utf-8").splitlines() == [
            "row,col,donor_row,distance,weight", *(",".join(map(repr, r)) for r in rows)
        ]


@settings(max_examples=100, deadline=None)
@given(
    matrices(elements=EXTREME_REALS, missing_pct=0),
    st.lists(st.integers(1, 3), min_size=2, max_size=2),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.integers(1, 3),
)
def test_a_complete_file_benchmarks_or_is_a_usage_error(m, ks, counts, trials):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "b.csv")
        Path(src).write_text(serialize(m), encoding="utf-8")
        code, stdout, stderr = run_in_process([
            "benchmark", "--input", src, "--output", out, "--trials", str(trials),
            "--k-min", str(ks[0]), "--k-max", str(ks[1]),
            "--nan-min", str(counts[0]), "--nan-max", str(counts[1]),
        ])
        assert code in (0, 2)
        assert all(line.startswith("error:") for line in stderr.splitlines())
        if code == 0:
            summary = Path(tmp, "b.summary.csv").read_text(encoding="utf-8")
            assert stdout == summary
            fields = [f for line in summary.splitlines() for f in line.split(",")]
            assert "nan" not in fields
