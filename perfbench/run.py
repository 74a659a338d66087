"""Benchmark of the hetimpute CLI and library on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload impute-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times the real CLI (``python -m hetimpute.cli``, one
child process at a time, closed loop, single client) and the in-process
library call, and prints the end-to-end metrics. With ``--trace 1`` it calls
``hetimpute.cli.main`` in-process, alternately plain and with every public
function of the measured modules wrapped, and prints the per-layer metrics.
Either way it checks every output, writes a results file under
``.perfbench_out/results/``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every check passed, 1 when one failed, 2 when the checkout cannot be run.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 3
SETUP_PER_ROUND = 3
REFERENCE_S = 0.025
CHILD_TIMEOUT_S = 150
TRACEBACK = "Traceback (most recent call last)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "trials_per_s": "1/s",
}
# Printed, but not in the JSON result: impute-tall has two imputed cells, so
# the error swings widely from seed to seed; any change to an imputed value
# already fails the output checks.
REPORTED_ONLY_UNITS = {"imputation_error": "dist"}


def per_layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python computation: float arithmetic,
    tuples, and float-to-text and back, the interpreter work the program does.
    """
    start = time.perf_counter()
    rows = [(i * 0.37 % 1.0, i * 0.11 % 1.0) for i in range(20000)]
    total = 0.0
    for a, b in rows:
        total += abs(a - b) ** 0.5
    text = ",".join(repr(a) for a, _ in rows)
    total += sum(float(t) for t in text.split(","))
    return time.perf_counter() - start


class SpeedGauge:
    """Scales timings to a fixed machine speed.

    The host of a shared machine slows its CPU by up to 2x for stretches of
    seconds to minutes; a run caught in one reads slow throughout, whatever
    statistic it reports. Each timed sample is therefore bracketed by the
    reference loop, and scaled by ``REFERENCE_S`` over the mean of the two
    reference times: the seconds the sample would have taken with the
    reference loop at ``REFERENCE_S``. On a 2-core Xeon VM over 50 s, the
    CLI on impute-dense varied with a 17% coefficient of variation and the
    scaled samples with 10%; the reference slows the same way as the CLI.
    Raw seconds are kept as well.
    """

    def __init__(self) -> None:
        self.last = reference_loop()
        self.references = [self.last]

    def scale(self, seconds: float) -> float:
        """Call right after a sample: its seconds at reference speed."""
        after = reference_loop()
        self.references.append(after)
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return seconds * factor


class Abort(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    def problem(self) -> str | None:
        if self.code != 0 or TRACEBACK in self.stderr:
            return f"exit {self.code}: {self.stderr.strip()[-300:]}"
        return None


class Spawner:
    """Client of ``spawner.py``, which runs every child so that a child's
    max RSS from ``os.wait4`` is its own (see that file for why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], env: dict, workdir: Path) -> ChildRun:
        """Run one child to completion; wall time from spawn to exit."""
        out_path = workdir / "child.stdout"
        err_path = workdir / "child.stderr"
        request = {
            "argv": argv, "cwd": str(ROOT), "env": env, "timeout": CHILD_TIMEOUT_S,
            "stdout": str(out_path), "stderr": str(err_path),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise Abort("the child spawner stopped")
        reply = json.loads(reply)
        return ChildRun(
            reply["wall_s"],
            reply["maxrss_kb"] / 1024,
            reply["code"],
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    return env


def import_package():
    """Import hetimpute from this checkout's src, here and in children."""
    src = ROOT / "src"
    if not (src / "hetimpute" / "__init__.py").is_file():
        raise Abort(f"no package at {src / 'hetimpute'}")
    if not (ROOT / "tests" / "oracle.py").is_file():
        raise Abort("no tests/oracle.py to check outputs against")
    sys.path.insert(0, str(src))
    import hetimpute
    import hetimpute.cli  # noqa: F401  (Run.main_in_process looks it up)

    if not Path(hetimpute.__file__).resolve().is_relative_to(ROOT):
        raise Abort(f"hetimpute resolves to {hetimpute.__file__}, outside {ROOT}")
    return hetimpute


def environment() -> dict:
    def cpu_model() -> str | None:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as info:
                for line in info:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "loadavg_start": os.getloadavg(),
    }


class Run:
    """One benchmark run: a workload at one seed, traced or not."""

    def __init__(
        self, hetimpute, spawner: Spawner, workload: workloads.Workload, seed: int,
        size: str,
    ):
        self.h = hetimpute
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.dir = OUT / f"{workload.name}-{size}"
        self.inputs = workloads.generate(workload, seed, self.dir)
        self.input_text = self.inputs.input_path.read_text(encoding="utf-8")
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def cli_args(self, stem: str, trace: bool) -> list[str]:
        w = self.workload
        out = str(self.dir / f"{stem}.csv")
        if w.command == "impute":
            args = ["impute", "--input", str(self.inputs.input_path), "--output", out]
            args += ["--k", str(workloads.K)]
            if trace:
                args += ["--trace", str(self.dir / f"{stem}.trace.csv")]
            return args
        return [
            "benchmark", "--input", str(self.inputs.input_path),
            "--k-min", str(w.k_min), "--k-max", str(w.k_max),
            "--nan-min", str(w.nan_min), "--nan-max", str(w.nan_max),
            "--trials", str(w.trials), "--seed", str(self.seed), "--output", out,
        ]

    def outputs(self, stem: str, stdout: str) -> dict[str, str]:
        """The files (and stdout) one invocation wrote, keyed by role."""
        def read(suffix: str) -> str:
            return (self.dir / f"{stem}{suffix}").read_text(encoding="utf-8")

        if self.workload.command == "impute":
            got = {"output": read(".csv")}
            if (self.dir / f"{stem}.trace.csv").exists():
                got["trace"] = read(".trace.csv")
            return got
        return {"raw": read(".csv"), "summary": read(".summary.csv"), "stdout": stdout}

    def compare(self, got: dict[str, str], what: str) -> None:
        for role, text in got.items():
            if text != self.reference.get(role, text):
                self.fail(f"{what}: {role} differs from the first invocation")

    def cli(self, stem: str, trace: bool) -> ChildRun | None:
        self.attempted += 1
        argv = [sys.executable, "-m", "hetimpute.cli", *self.cli_args(stem, trace)]
        run = self.spawner.run(argv, self.env, self.dir)
        problem = run.problem()
        if problem:
            self.fail(f"cli {stem}: {problem}")
            return None
        return run

    def check_children(self) -> None:
        """Children must import the package from this checkout."""
        self.attempted += 1
        run = self.spawner.run(
            [sys.executable, "-c", "import hetimpute; print(hetimpute.__file__)"],
            self.env, self.dir,
        )
        if run.problem():
            raise Abort(f"child cannot import hetimpute: {run.problem()}")
        if not Path(run.stdout.strip()).resolve().is_relative_to(ROOT):
            raise Abort(f"child imports hetimpute from {run.stdout.strip()}")

    def warm_up(self) -> None:
        """One untimed traced invocation: writes bytecode caches and gives
        the reference outputs every later invocation must equal."""
        self.check_children()
        run = self.cli("reference", trace=True)
        if run is None:
            return
        self.reference = self.outputs("reference", run.stdout)
        ref = self.reference
        try:
            if self.workload.command == "impute":
                problems = checks.check_impute(
                    self.h, checks.load_oracle(ROOT), self.input_text,
                    ref["output"], ref["trace"], workloads.K, self.seed,
                )
            else:
                problems = checks.check_sweep(
                    ref["raw"], ref["summary"], ref["stdout"], self.workload
                ) or checks.check_sweep_trials(
                    self.h, checks.load_oracle(ROOT), self.h.parse(self.input_text),
                    ref["raw"], self.seed,
                )
        except Exception as exc:  # a malformed output must fail the run, not crash it
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            self.fail(f"reference output: {problem}")

    def library_call(self, matrix):
        """One in-process call of the public API on the parsed input."""
        w = self.workload
        if w.command == "impute":
            return self.h.impute(matrix, workloads.K)
        return self.h.benchmark(
            matrix,
            k_values=w.k_values(),
            missing_counts=w.missing_counts(),
            trials=w.trials,
            seed=self.seed,
            dataset_name="input",
        )

    def check_library(self, result) -> None:
        """The in-process result must agree with the CLI's reference output."""
        if not self.reference:
            return
        if self.workload.command == "impute":
            if self.h.serialize(result.matrix) != self.reference["output"]:
                self.fail("in-process impute() differs from the CLI output")
            return
        if checks.trial_rows(result) != checks.report_rows(self.reference["raw"]):
            self.fail("in-process benchmark() differs from the CLI raw table")

    def imputation_error(self) -> float:
        if self.workload.command == "impute":
            truth = self.h.parse(self.inputs.truth_path.read_text(encoding="utf-8"))
            return self.h.matrix_error(truth, self.h.parse(self.reference["output"]))
        return checks.sweep_error(self.reference["raw"])

    # -- end-to-end run (--trace 0) -------------------------------------------

    def measure(self, seconds: float) -> dict:
        w = self.workload
        matrix = self.h.parse(self.input_text)
        self.attempted += 1
        self.check_library(self.library_call(matrix))
        gc.collect()
        raw: dict[str, list[float]] = {"wall_s": [], "library_s": [], "setup_s": []}
        scaled: dict[str, list[float]] = {key: [] for key in raw}
        rss: list[float] = []
        gauge = SpeedGauge()

        def record(key: str, seconds: float) -> None:
            raw[key].append(seconds)
            scaled[key].append(gauge.scale(seconds))

        deadline = time.perf_counter() + seconds
        while len(rss) < MIN_SAMPLES or time.perf_counter() < deadline:
            run = self.cli("timed", trace=w.trace_file)
            if run is None:
                break
            record("wall_s", run.wall_s)
            rss.append(run.rss_mb)
            self.compare(self.outputs("timed", run.stdout), "cli timed")
            self.attempted += 1
            start = time.perf_counter()
            self.library_call(matrix)
            record("library_s", time.perf_counter() - start)
            for _ in range(SETUP_PER_ROUND):
                self.attempted += 1
                child = self.spawner.run(
                    [sys.executable, "-c", "import hetimpute.cli"], self.env, self.dir
                )
                if child.problem():
                    self.fail(f"import: {child.problem()}")
                else:
                    record("setup_s", child.wall_s)
        if not rss or not scaled["setup_s"]:
            return {}
        self.samples = {
            **{f"{key} (raw)": values for key, values in raw.items()},
            **{f"{key} (reference speed)": values for key, values in scaled.items()},
            "peak_rss_mb": rss,
            "reference_loop_s": gauge.references,
        }
        call_s = statistics.median(scaled["library_s"])
        if w.command == "impute":
            cells, trials = len(self.inputs.missing), 1
        else:
            cells = w.masked_cells_per_call()
            trials = w.trials_per_call()
        return {
            "setup_s": statistics.median(scaled["setup_s"]),
            "wall_s": statistics.median(scaled["wall_s"]),
            "peak_rss_mb": statistics.median(rss),
            "cells_per_s": cells / call_s,
            "trials_per_s": trials / call_s,
            "imputation_error": self.imputation_error(),
        }

    # -- traced run (--trace 1) -----------------------------------------------

    def main_in_process(self, stem: str, tracer: tracing.Tracer | None) -> float:
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        cli = sys.modules["hetimpute.cli"]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                code = cli.main(self.cli_args(stem, trace=self.workload.trace_file))
                elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if code != 0:
            self.fail(f"in-process main {stem}: exit {code}: {stderr.getvalue()[-300:]}")
        else:
            self.compare(self.outputs(stem, stdout.getvalue()), f"in-process {stem}")
        return elapsed

    def measure_traced(self, seconds: float) -> dict:
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        tracer = None
        gc.collect()
        gauge = SpeedGauge()
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
            tracer = None  # drop the last run's spans before timing the plain call
            plain.append(gauge.scale(self.main_in_process("plain", None)))
            tracer = tracing.Tracer()
            elapsed = self.main_in_process("traced", tracer)
            traced.append(gauge.scale(elapsed))
            layers.append(tracing.layer_metrics(tracer, elapsed))
        tracer.write_spans(self.dir / "spans.csv")
        self.samples = {
            "plain_s (reference speed)": plain,
            "traced_s (reference speed)": traced,
            "reference_loop_s": gauge.references,
        }
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_frac"] = overhead
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.WORKLOADS), default="full",
        help="'smoke' runs a tiny version of each workload, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    try:
        with Spawner() as spawner:
            hetimpute = import_package()
            env = environment()
            workload = workloads.WORKLOADS[args.size][args.workload]
            run = Run(hetimpute, spawner, workload, args.seed, args.size)
            metrics = {}
            try:
                run.warm_up()
                if run.reference:
                    measure = run.measure_traced if args.trace else run.measure
                    metrics = measure(args.seconds)
            except Exception:  # the program under test crashed in-process: a failed run
                run.fail(traceback.format_exc(limit=-4))
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
    gated = {name: metrics[name] for name in units if name in metrics}
    correct = run.failed == 0 and bool(gated) and len(gated) == len(units)
    failed_frac = run.failed / max(run.attempted, 1)
    samples = getattr(run, "samples", {})
    results = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "environment": env,
        "input": run.inputs.properties, "samples": samples,
        "metrics": metrics, "failed_frac": failed_frac, "problems": run.problems,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(results, indent=1) + "\n")

    print(f"# {args.workload} ({args.size}) seed={args.seed} trace={args.trace}")
    print(f"# input {json.dumps(run.inputs.properties)}")
    print(f"# environment {json.dumps(env)}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    for key, values in samples.items():
        print(
            f"# {key}: {len(values)} samples, min {min(values):.4g}, "
            f"median {statistics.median(values):.4g}, max {max(values):.4g}"
        )
    shown_units = {**units, **REPORTED_ONLY_UNITS}
    for metric, value in metrics.items():
        print(f"{metric:32s} {value:14.6g} {shown_units[metric]}")
    print(f"{'failed_frac':32s} {failed_frac:14.6g} ratio  ({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in gated.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
