"""Typed-CSV codec: the canonical on-disk format for heterogeneous matrices.

Grammar
-------
header record   name:kind , name:kind , ...     kind in {crisp, interval, fuzzy}
crisp cell      finite decimal literal          e.g.  0.5891  or  -1.2e-3
interval cell   [lower;upper]                   e.g.  [0.31623;0.94868]
fuzzy cell      (a1;a2;a3)                      e.g.  (0.455842;0.569803;0.683763)
missing cell    empty field, or NaN (any case)

Fields are separated by commas; components inside a cell by semicolons, so
the outer format needs no quoting. Whitespace around fields and components
is ignored. Serialization is canonical: no padding, missing as the empty
field, every real printed with the shortest digits that parse back to the
identical double, records joined by single newlines with one trailing
newline. parse(serialize(m)) reproduces m bit-exactly.

Both directions work column by column: each column's cell reader and writer
is picked once, from the header. A reader refuses anything it does not
accept outright, and a line it refuses is re-read cell by cell, left to
right, by _parse_cell, which names the first bad field in the ParseError.
"""

from __future__ import annotations

import math

from .core import (
    CellValue,
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    order_violation,
)

_KIND_TAGS = {kind.value: kind for kind in ColumnKind}
_INF = math.inf


class ParseError(ValueError):
    """A malformed document, with 1-based line and column of the offense."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def _parse_number(token: str, line: int, column: int, what: str) -> float:
    # float() reads every decimal literal, and also '_' separators, 'inf',
    # 'nan' and literals that overflow to inf, which a finite cell refuses.
    try:
        value = float(token)
        if "_" not in token and math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ParseError(line, column, f"{what}: {token!r} is not a finite decimal number")


def _parse_cell(token: str, kind: ColumnKind, line: int, column: int) -> CellValue:
    if token == "" or token.lower() == "nan":
        return None
    if kind is ColumnKind.CRISP:
        return Crisp(_parse_number(token, line, column, "expected crisp cell"))
    if kind is ColumnKind.INTERVAL:
        if not (token.startswith("[") and token.endswith("]")):
            raise ParseError(
                line, column, f"expected interval cell '[lower;upper]', found {token!r}"
            )
        parts = token[1:-1].split(";")
        if len(parts) != 2:
            raise ParseError(
                line,
                column,
                f"expected interval cell with 2 components, found {len(parts)}",
            )
        lower = _parse_number(parts[0].strip(), line, column, "interval lower bound")
        upper = _parse_number(parts[1].strip(), line, column, "interval upper bound")
        cell = Interval(lower, upper)
    else:
        if not (token.startswith("(") and token.endswith(")")):
            raise ParseError(
                line, column, f"expected fuzzy cell '(a1;a2;a3)', found {token!r}"
            )
        parts = token[1:-1].split(";")
        if len(parts) != 3:
            raise ParseError(
                line,
                column,
                f"expected fuzzy cell with 3 components, found {len(parts)}",
            )
        cell = FuzzyTFN(
            *(_parse_number(p.strip(), line, column, "fuzzy component") for p in parts)
        )
    if message := order_violation(cell):
        raise ParseError(line, column, message)
    return cell


def _gap(token: str) -> None:
    """None for a gap's spelling; ValueError for any other token."""
    if token == "" or token.lower() == "nan":
        return None
    raise ValueError(token)


# One reader per column kind. Each takes a raw field and returns its cell, or
# raises ValueError on anything it does not accept, and parse() then says
# why. A chained comparison refuses nan and +-inf and checks the order at once.
def _read_crisp(field: str) -> CellValue:
    token = field.strip()
    if token:
        value = float(token)
        if -_INF < value < _INF and "_" not in token:
            return Crisp(value)
    return _gap(token)


def _read_interval(field: str) -> CellValue:
    token = field.strip()
    if token[:1] != "[" or token[-1:] != "]":
        return _gap(token)
    lower, upper = token[1:-1].split(";")
    lower, upper = float(lower.strip()), float(upper.strip())
    if -_INF < lower <= upper < _INF and "_" not in token:
        return Interval(lower, upper)
    raise ValueError(token)


def _read_fuzzy(field: str) -> CellValue:
    token = field.strip()
    if token[:1] != "(" or token[-1:] != ")":
        return _gap(token)
    a1, a2, a3 = token[1:-1].split(";")
    a1, a2, a3 = float(a1.strip()), float(a2.strip()), float(a3.strip())
    if -_INF < a1 <= a2 <= a3 < _INF and "_" not in token:
        return FuzzyTFN(a1, a2, a3)
    raise ValueError(token)


_READERS = {
    ColumnKind.CRISP: _read_crisp,
    ColumnKind.INTERVAL: _read_interval,
    ColumnKind.FUZZY: _read_fuzzy,
}


def parse(text: str) -> DataMatrix:
    """Parse a typed-CSV document into a valid DataMatrix.

    Raises ParseError, pointing at the offending line and column, for
    malformed cells, kind or arity mismatches, ragged rows, and cells that
    would violate a matrix invariant.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, 1, "empty document")
    names: list[str] = []
    schema: list[ColumnKind] = []
    for col, raw in enumerate(lines[0].split(","), start=1):
        cell = raw.strip()
        name, sep, tag = cell.rpartition(":")
        if not sep or tag not in _KIND_TAGS:
            raise ParseError(
                1,
                col,
                f"header cell must be 'name:kind' with kind one of "
                f"{', '.join(_KIND_TAGS)}, found {cell!r}",
            )
        names.append(name)
        schema.append(_KIND_TAGS[tag])
    arity = len(schema)
    readers = [_READERS[kind] for kind in schema]
    rows: list[tuple[CellValue, ...]] = []
    for lineno, raw_line in enumerate(lines[1:], start=2):
        fields = raw_line.split(",")
        try:
            row = [read(field) for read, field in zip(readers, fields, strict=True)]
            rows.append(tuple(row))
            continue
        except ValueError:
            pass
        # A reader refused this line: read it again cell by cell, left to
        # right, so that the ParseError names its first bad field.
        if len(fields) != arity:
            raise ParseError(
                lineno, 1, f"expected {arity} fields, found {len(fields)}"
            )
        rows.append(
            tuple(
                _parse_cell(field.strip(), schema[col - 1], lineno, col)
                for col, field in enumerate(fields, start=1)
            )
        )
    if not rows:
        raise ParseError(1, 1, "document has a header but no data rows")
    return DataMatrix(tuple(schema), tuple(rows), tuple(names))


# One writer per column kind; repr() of a float is the shortest string that
# round-trips exactly.
_WRITERS = {
    ColumnKind.CRISP: lambda cell: f"{cell.value!r}",
    ColumnKind.INTERVAL: lambda cell: f"[{cell.lower!r};{cell.upper!r}]",
    ColumnKind.FUZZY: lambda cell: f"({cell.a1!r};{cell.a2!r};{cell.a3!r})",
}


def serialize(matrix: DataMatrix) -> str:
    """Render a matrix in canonical typed-CSV form."""
    for name in matrix.column_names:
        # parse() splits the header on both and strips a name's leading space.
        if "," in name or "\n" in name or name[:1].isspace():
            raise ValueError(f"column name {name!r} has ',', newline or leading space")
    header = ",".join(
        f"{name}:{kind.value}"
        for name, kind in zip(matrix.column_names, matrix.schema)
    )
    writers = [_WRITERS[kind] for kind in matrix.schema]
    records = [
        ",".join(["" if c is None else write(c) for write, c in zip(writers, row)])
        for row in matrix.cells
    ]
    return "\n".join([header, *records, ""])
