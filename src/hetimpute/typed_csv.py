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

Both directions work a row at a time, each through code compiled for the
schema on its first use: the row reader reads an empty field as a gap and
builds every other cell inline from float() of its components; the row writer
is one f-string. A line the row reader refuses (padding, NaN, any fault) is
read again field by field, through the whole cell grammar, which names the
first wrong field: the field count first, then fields left to right. A
cell's constructor checks that its components are finite and in order.

Neither direction holds a second copy of the table. parse() draws its lines
from the text one at a time, so it holds the text and the matrix it builds;
_records() yields the canonical lines one at a time, so a writer can stream
them to a file, and serialize() joins them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

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


# One reader per column kind: a raw field's cell, or ValueError with the message parse()
# reports. _gap tells a gap from a bad field, _number names a bad component.
def _read_crisp(field: str) -> CellValue:
    token = field.strip()
    if token == "" or token.lower() == "nan":
        return None
    return Crisp(_number(token, "expected crisp cell"))


def _read_interval(field: str) -> CellValue:
    token = field.strip()
    if token[:1] != "[" or token[-1:] != "]":
        return _gap(token, f"expected interval cell '[lower;upper]', found {token!r}")
    parts = token[1:-1].split(";")
    if len(parts) != 2:
        raise ValueError(f"expected interval cell with 2 components, found {len(parts)}")
    return Interval(_number(parts[0].strip(), "interval lower bound"),
                    _number(parts[1].strip(), "interval upper bound"))


def _read_fuzzy(field: str) -> CellValue:
    token = field.strip()
    if token[:1] != "(" or token[-1:] != ")":
        return _gap(token, f"expected fuzzy cell '(a1;a2;a3)', found {token!r}")
    parts = token[1:-1].split(";")
    if len(parts) != 3:
        raise ValueError(f"expected fuzzy cell with 3 components, found {len(parts)}")
    return FuzzyTFN(*[_number(part.strip(), "fuzzy component") for part in parts])


_READERS = {
    ColumnKind.CRISP: _read_crisp,
    ColumnKind.INTERVAL: _read_interval,
    ColumnKind.FUZZY: _read_fuzzy,
}

# Each kind's text in the row reader, which makes c{l}, the observed field of column {l},
# its cell, and in the row writer, where c{l} is the cell.
_READ = {
    ColumnKind.CRISP: "c{l} = Crisp(float(c{l}))",
    ColumnKind.INTERVAL: """if c{l}[0] != "[" or c{l}[-1] != "]":
    raise ValueError
x, y = c{l}[1:-1].split(";")
c{l} = Interval(float(x), float(y))""",
    ColumnKind.FUZZY: """if c{l}[0] != "(" or c{l}[-1] != ")":
    raise ValueError
x, y, z = c{l}[1:-1].split(";")
c{l} = FuzzyTFN(float(x), float(y), float(z))""",
}
_WRITE = {
    ColumnKind.CRISP: "{{c{l}.value!r}}",
    ColumnKind.INTERVAL: "[{{c{l}.lower!r}};{{c{l}.upper!r}}]",
    ColumnKind.FUZZY: "({{c{l}.a1!r}};{{c{l}.a2!r}};{{c{l}.a3!r}})",
}


class _Codecs(dict):
    """``_CODECS[schema]``: ``(read, write)``, compiled on first use from the column kinds
    alone. ``read(line)`` gives the row of a line of gaps and unpadded cells with no '_', else
    raises ValueError; ``write(row)`` its canonical record, repr() giving the shortest digits."""

    def __missing__(self, schema: tuple) -> tuple[Callable, Callable]:
        cells = "".join(f"c{l}, " for l in range(len(schema)))
        source = [f"def read(line):\n    {cells}= line.split(',')",
                  "    if '_' in line:\n        raise ValueError"]
        for l, kind in enumerate(schema):
            read = _READ[kind].format(l=l).replace("\n", "\n        ")
            source.append(f"    if c{l}:\n        {read}\n    else:\n        c{l} = None")
        writes = ",".join(f"{{'' if c{l} is None else f'{_WRITE[kind].format(l=l)}'}}"
                          for l, kind in enumerate(schema))
        source += [f"    return ({cells})", f"def write(row):\n    {cells}= row",
                   f'    return f"{writes}\\n"\n']
        namespace = {"Crisp": Crisp, "Interval": Interval, "FuzzyTFN": FuzzyTFN}
        exec("\n".join(source), namespace)
        self[schema] = codec = namespace["read"], namespace["write"]
        return codec


_CODECS = _Codecs()


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` one at a time: those of ``text.split("\n")``,
    less the last when it is empty, so a final newline ends the last line
    and "" has no line. No list of lines is built."""
    start = 0
    end = text.find("\n")
    while end >= 0:
        yield text[start:end]
        start = end + 1
        end = text.find("\n", start)
    if start < len(text):
        yield text[start:]


def parse(text: str) -> DataMatrix:
    """Parse a typed-CSV document into a valid DataMatrix.

    Raises ParseError, pointing at the offending line and column, for
    malformed cells, kind or arity mismatches, ragged rows, and cells that
    would violate a matrix invariant.
    """
    lines = _lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError(1, 1, "empty document")
    names: list[str] = []
    schema: list[ColumnKind] = []
    for col, raw in enumerate(header.split(","), start=1):
        cell = raw.strip()
        name, sep, tag = cell.rpartition(":")
        if not sep or tag not in _KIND_TAGS:
            raise ParseError(1, col, f"header cell must be 'name:kind' with kind one of "
                                     f"{', '.join(_KIND_TAGS)}, found {cell!r}")
        names.append(name)
        schema.append(_KIND_TAGS[tag])
    read = _CODECS[tuple(schema)][0]
    rows: list[tuple[CellValue, ...]] = []
    for lineno, line in enumerate(lines, start=2):
        try:
            rows.append(read(line))
            continue
        except ValueError:  # read the line again, field by field
            fields = line.split(",")
        if len(fields) != len(schema):
            raise ParseError(lineno, 1, f"expected {len(schema)} fields, found {len(fields)}")
        row: list[CellValue] = []
        try:
            for kind, field in zip(schema, fields):
                row.append(_READERS[kind](field))
        except ValueError as exc:
            raise ParseError(lineno, len(row) + 1, str(exc)) from None
        rows.append(tuple(row))
    if not rows:
        raise ParseError(1, 1, "document has a header but no data rows")
    return DataMatrix(tuple(schema), tuple(rows), tuple(names))


def _records(matrix: DataMatrix) -> Iterator[str]:
    """The canonical lines of ``matrix``, each ending in a newline: the
    header, then one record per row. A column name that parse() would not
    read back raises ValueError in this call, before any line is drawn."""
    for name in matrix.column_names:
        # parse() splits the header on both and strips a name's leading space.
        if "," in name or "\n" in name or name[:1].isspace():
            raise ValueError(f"column name {name!r} has ',', newline or leading space")
    header = ",".join(
        f"{name}:{kind.value}"
        for name, kind in zip(matrix.column_names, matrix.schema)
    )
    write = _CODECS[matrix.schema][1]
    return itertools.chain([header + "\n"], map(write, matrix.cells))


def serialize(matrix: DataMatrix) -> str:
    """Render a matrix in canonical typed-CSV form."""
    return "".join(_records(matrix))
