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
is picked once, from the header. The readers are the one cell grammar, and
a cell's constructor checks that its components are finite and in order.
Each data line is read once: its field count first, then its fields left
to right, and the ParseError names the first that is wrong.
"""

from __future__ import annotations

from .core import CellValue, ColumnKind, Crisp, DataMatrix, FuzzyTFN, Interval

_KIND_TAGS = {kind.value: kind for kind in ColumnKind}


class ParseError(ValueError):
    """A malformed document, with 1-based line and column of the offense."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def _gap(token: str, error: str) -> None:
    """None for a gap's spelling; ValueError(error) for any other token."""
    if token == "" or token.lower() == "nan":
        return None
    raise ValueError(error)


_NOT_A_NUMBER = "{}: {!r} is not a finite decimal number"


def _number(token: str, what: str) -> float:
    """The value of a decimal literal that a Crisp accepts; ValueError naming
    ``token`` otherwise. float() also reads '_' separators, which the grammar
    refuses, and 'inf', 'nan' and literals that overflow, which Crisp refuses."""
    try:
        if "_" not in token:
            return Crisp(float(token)).value
    except ValueError:
        pass
    raise ValueError(_NOT_A_NUMBER.format(what, token))


# One reader per column kind: it takes a raw field and returns its cell, or
# raises ValueError with the message that parse() reports. The accept path
# calls float() once per component. Only when that or the cell's constructor
# fails does a reader work out the message: _gap tells a gap from a bad
# field, _number names a bad component, and the constructor the order.
def _read_crisp(field: str) -> CellValue:
    token = field.strip()
    try:
        if "_" not in token:
            return Crisp(float(token))
    except ValueError:
        pass
    return _gap(token, _NOT_A_NUMBER.format("expected crisp cell", token))


def _read_interval(field: str) -> CellValue:
    token = field.strip()
    if token[:1] != "[" or token[-1:] != "]":
        return _gap(token, f"expected interval cell '[lower;upper]', found {token!r}")
    parts = token[1:-1].split(";")
    try:
        lower, upper = parts
        if "_" not in token:
            return Interval(float(lower), float(upper))
    except ValueError:
        pass
    if len(parts) != 2:
        raise ValueError(f"expected interval cell with 2 components, found {len(parts)}")
    return Interval(
        _number(parts[0].strip(), "interval lower bound"),
        _number(parts[1].strip(), "interval upper bound"),
    )


def _read_fuzzy(field: str) -> CellValue:
    token = field.strip()
    if token[:1] != "(" or token[-1:] != ")":
        return _gap(token, f"expected fuzzy cell '(a1;a2;a3)', found {token!r}")
    parts = token[1:-1].split(";")
    try:
        a1, a2, a3 = parts
        if "_" not in token:
            return FuzzyTFN(float(a1), float(a2), float(a3))
    except ValueError:
        pass
    if len(parts) != 3:
        raise ValueError(f"expected fuzzy cell with 3 components, found {len(parts)}")
    return FuzzyTFN(*[_number(part.strip(), "fuzzy component") for part in parts])


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
    if lines[-1] == "":
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
        if len(fields) != arity:
            raise ParseError(
                lineno, 1, f"expected {arity} fields, found {len(fields)}"
            )
        row: list[CellValue] = []
        try:
            for read, field in zip(readers, fields):
                row.append(read(field))
        except ValueError as exc:
            raise ParseError(lineno, len(row) + 1, str(exc)) from None
        rows.append(tuple(row))
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
