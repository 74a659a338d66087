"""Command-line interface: impute, benchmark, distance, validate, fixtures.

Exit codes: 0 success, 1 data error (unreadable, invalid or unwritable
files or stdout, unimputable cells), 2 usage error. All randomness is
controlled by --seed; given identical arguments and inputs, output files are
byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .core import DataMatrix
from .distances import _shared_distances, row_distance
from .evaluation import benchmark
from .fixtures import FIXTURE_NAMES, fixture
from .imputer import impute
from .typed_csv import ParseError, _decoded, _lines, _parse, _records


class _DataError(Exception):
    """Input problem reported on stderr with exit code 1."""


def _int_at_least(low: int, what: str):
    """An argparse type that reads an integer of at least ``low``, and names
    ``what`` it expects when given anything else."""

    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, found {text!r}")
        return value

    return read


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a nonnegative integer")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_matrix(path: str) -> DataMatrix:
    try:
        with open(path, "rb", buffering=0) as file:
            lines = _lines(_decoded(file))
            try:
                return _parse(lines)
            except ParseError as exc:
                for _ in lines:  # a file that is not UTF-8 is refused as such
                    pass
                raise _DataError(f"{path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _DataError(f"cannot read {path}: {exc}") from None


#: An output path and the (file, mode) its text replaces, or None to write in place.
_Target = tuple[Path, Optional[tuple[str, int]]]


def _temp_beside(real: str) -> tuple[int, str]:
    """A new temporary file in the directory of ``real``, as ``(fd, path)``.
    Its name adds 14 bytes to at most 32 characters of ``real``'s, so it stays
    within the 255-byte name limit however long ``real``'s name is."""
    directory, name = os.path.split(real)
    return tempfile.mkstemp(".tmp", f".{name[:32]}.", directory)


def _targets(paths: Iterable[Path]) -> list[_Target]:
    """Each of ``paths`` as a target, checked before any work is done.

    A path that exists but is no regular file that its resolved path
    reaches (a device such as /dev/null or /dev/stdout, a FIFO) is written
    in place. A symlink resolves to its target, so the link stays a link; a
    file that exists keeps its mode. A directory, a missing or non-directory
    parent, a directory that refuses a new file, and a path that resolves to
    the same file as an earlier path are data errors.
    """
    targets: list[_Target] = []
    for path in paths:
        real = os.path.realpath(path)
        try:
            try:
                st = os.stat(path)
            except FileNotFoundError:  # a missing parent fails the probe below
                st = None
            if st is None:
                umask = os.umask(0)
                os.umask(umask)
                target = real, 0o666 & ~umask
            elif stat.S_ISDIR(st.st_mode):
                raise _DataError(f"cannot write {path}: Is a directory")
            else:
                try:
                    same = os.path.samestat(st, os.stat(real))
                except OSError:
                    same = False
                regular = same and stat.S_ISREG(st.st_mode)
                target = (real, stat.S_IMODE(st.st_mode)) if regular else None
            if target and any(t and t[0] == real for _, t in targets):
                raise _DataError(f"cannot write {path}: same file as another output")
            if target:  # the directory must take the file _write stages it in
                fd, temp = _temp_beside(real)
                os.close(fd)
                os.unlink(temp)
        except OSError as exc:
            raise _DataError(f"cannot write {path}: {exc.strerror or exc}") from None
        targets.append((path, target))
    return targets


def _write(targets: Sequence[_Target], *outputs: Iterable[str]) -> None:
    """Write each output's lines to its target, replacing no file until all
    are written. The lines are drawn one at a time, as they are written.

    An output that replaces a file goes to a temporary file beside it, which
    ``os.replace`` moves over it only after every temporary file and every
    in-place target is written, so a failed write leaves no output behind.
    """
    staged: list[tuple[str, str]] = []
    failed = None
    try:
        for (failed, target), lines in zip(targets, outputs):
            if target is not None:
                real, mode = target
                fd, temp = _temp_beside(real)
                staged.append((temp, real))
                with os.fdopen(fd, "w", encoding="utf-8") as out:
                    out.writelines(lines)
                os.chmod(temp, mode)
        for (failed, target), lines in zip(targets, outputs):
            if target is None:
                with open(failed, "w", encoding="utf-8") as out:
                    out.writelines(lines)
        for temp, failed in staged:
            os.replace(temp, failed)
    except BaseException as exc:
        for temp, _ in staged:
            try:
                os.unlink(temp)
            except FileNotFoundError:
                pass
        if isinstance(exc, OSError):
            raise _DataError(f"cannot write {failed}: {exc.strerror or exc}") from None
        raise


def _table(header: str, rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """``header``, then one line per row: values by ``repr``, None as the
    empty field. Each line ends in a newline and is made as it is drawn."""
    yield header + "\n"
    for row in rows:
        yield ",".join(["" if v is None else repr(v) for v in row]) + "\n"


def cmd_impute(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.input)
    result = impute(matrix, args.k)
    outputs = [_records(result.matrix)]
    if args.trace is not None:
        rows = ((ref.row, ref.col, d.row, d.distance, d.weight)
                for ref, donors in result.trace.items() for d in donors)
        outputs.append(_table("row,col,donor_row,distance,weight", rows))
    _write(args.targets, *outputs)
    if result.unimputable:
        for ref in result.unimputable:
            print(
                f"unimputable: cell ({ref.row},{ref.col}) has no usable donors",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    if args.k_min > args.k_max:
        return _usage_error("--k-min must not exceed --k-max")
    if args.nan_min > args.nan_max:
        return _usage_error("--nan-min must not exceed --nan-max")
    if args.fixture:
        matrix = fixture(args.fixture)
    else:
        matrix = _read_matrix(args.input)
        if not matrix.is_complete():
            raise _DataError(f"{args.input}: benchmark expects a complete matrix")
    if args.nan_max > matrix.n_rows:
        return _usage_error(
            f"--nan-max {args.nan_max} exceeds the {matrix.n_rows} rows "
            f"of the input (at most one masked cell per row)"
        )
    report = benchmark(
        matrix,
        k_values=range(args.k_min, args.k_max + 1),
        missing_counts=range(args.nan_min, args.nan_max + 1),
        trials=args.trials,
        seed=args.seed,
    )
    trials = ((t.k, t.missing_count, t.trial, t.error, int(t.error is not None))
              for t in report.trials)
    per_k = ((k, s.min, s.q1, s.median, s.q3, s.max, s.mean)
             for k, s in report.k_summaries.items())
    summary = list(_table("k,min,q1,median,q3,max,mean", per_k))
    raw = _table("k,missing_count,trial,error,imputable", trials)
    _write(args.targets, raw, summary)
    sys.stdout.writelines(summary)
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.input)
    try:
        left, right = (int(part) for part in args.rows.split(","))
    except ValueError:
        return _usage_error("--rows expects two comma-separated indices, e.g. 2,0")
    if left == right:
        return _usage_error("--rows needs two distinct rows")
    if not (0 <= left < matrix.n_rows and 0 <= right < matrix.n_rows):
        return _usage_error(
            f"row indices must be in 0..{matrix.n_rows - 1} (zero-based)"
        )
    shared = _shared_distances(matrix, left, right)
    if not shared:
        print("incomparable")
        return 0
    for l, d in shared:
        print(f"column {l} ({matrix.column_names[l]}): {d!r}")
    print(f"shared features: {len(shared)}")
    print(f"row distance: {row_distance(matrix, left, right)!r}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    # parse() refuses a cell whose components are non-finite or unordered.
    _read_matrix(args.input)
    return 0


def cmd_fixtures(args: argparse.Namespace) -> int:
    names = [args.name] if args.name else list(FIXTURE_NAMES)
    dest = Path(args.dest)
    try:
        dest.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _DataError(f"cannot create {dest}: {exc}") from None
    paths = [dest / f"{name}.csv" for name in names]
    _write(_targets(paths), *(_records(fixture(name)) for name in names))
    for path in paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetimpute",
        description=(
            "k-nearest-neighbor imputation and benchmarking for typed-CSV "
            "tables of crisp, interval, and triangular-fuzzy values"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impute", help="fill every missing cell of a typed-CSV file")
    p.add_argument("--input", required=True, help="typed-CSV file to complete")
    p.add_argument("--output", required=True, help="where to write the completed file")
    p.add_argument("--k", type=_positive_int, required=True, help="number of neighbors")
    p.add_argument(
        "--trace",
        help="optional CSV listing donor rows, distances, and weights per imputed cell",
    )
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser(
        "benchmark",
        help="mask random cells, impute, and report error statistics",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="typed-CSV file to benchmark")
    source.add_argument(
        "--fixture", choices=FIXTURE_NAMES, help="built-in matrix to benchmark"
    )
    p.add_argument("--k-min", type=_positive_int, required=True)
    p.add_argument("--k-max", type=_positive_int, required=True)
    p.add_argument("--nan-min", type=_nonnegative_int, required=True)
    p.add_argument("--nan-max", type=_nonnegative_int, required=True)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output",
        required=True,
        help="raw per-trial table; the per-k summary lands next to it as *.summary*",
    )
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser(
        "distance", help="show the distance between two rows and its per-column parts"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--rows", required=True, help="two zero-based row indices, e.g. 2,0")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("validate", help="check a typed-CSV file, show its first error")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "fixtures", help="export the built-in example matrices as typed-CSV files"
    )
    p.add_argument("--dest", default=".", help="directory to write into")
    p.add_argument("--name", choices=FIXTURE_NAMES, help="export just one fixture")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # An output path must name a file: benchmark names its summary after it.
    # Test it as typed, since pathlib drops a trailing "/" or "/.".
    outputs = [getattr(args, option, None) for option in ("output", "trace")]
    for option, path in zip(("output", "trace"), outputs):
        if path is not None and os.path.basename(path) in ("", ".", ".."):
            message = f"argument --{option}: expected a file name, found {path!r}"
            return _usage_error(message)
    paths = [Path(path) for path in outputs if path is not None]
    if args.command == "benchmark":  # the per-k summary lands beside --output
        out = paths[0]
        paths.append(out.with_name(out.stem + ".summary" + out.suffix))
    # A command makes no reference cycles: a collection would only walk parse()'s cells.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args.targets = _targets(paths)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader is gone: send the exit flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        print("error: cannot write to standard output: broken pipe", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
