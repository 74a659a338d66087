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

Both directions work a row at a time, through code that core._compiled
compiles for the schema on first use from each kind's brackets in _SHAPES and
its class's __slots__: only a command that writes compiles a row writer. The
row reader reads an empty field as a gap and builds every other cell inline
from float() of its components, after its constructor's test; the row writer
is one f-string. A line the row reader refuses (padding, NaN, any fault) is
read again field by field, through the whole cell grammar and the cells'
constructors, which name the first wrong field: the field count first, then
fields left to right.

Neither direction holds a second copy of the table. One parser draws its
lines one at a time: parse() from a text, the CLI from a file that _decoded()
reads a chunk at a time, so a file goes straight into its matrix. _records()
yields the canonical lines one at a time, and serialize() joins them.
"""

from __future__ import annotations

import codecs
import io
import itertools
from typing import BinaryIO, Iterable, Iterator

from .core import _KIND_CLASS, CellValue, ColumnKind, Crisp, DataMatrix, _compiled, _indent

_KIND_TAGS = {kind.value: kind for kind in ColumnKind}
_CHUNK = io.DEFAULT_BUFFER_SIZE  # characters or bytes read at a time


class ParseError(ValueError):
    """A malformed document, with 1-based line and column of the offense."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def _number(token: str, what: str) -> float:
    """The value of a decimal literal that a Crisp accepts; ValueError naming
    ``token`` otherwise. float() also reads '_' separators, which the grammar
    refuses, and 'inf', 'nan' and literals that overflow, which Crisp refuses."""
    try:
        if "_" not in token:
            return Crisp(float(token)).value
    except ValueError:
        pass
    raise ValueError(f"{what}: {token!r} is not a finite decimal number")


# Each kind's brackets, stated only here, and what a message of _read calls its components.
_SHAPES = {
    ColumnKind.CRISP: ("", ["expected crisp cell"]),
    ColumnKind.INTERVAL: ("[]", ["interval lower bound", "interval upper bound"]),
    ColumnKind.FUZZY: ("()", ["fuzzy component"] * 3),
}


def _read(field: str, kind: ColumnKind) -> CellValue:
    """A raw field's cell, or ValueError with the message parse() reports: the
    first of a missing bracket, a wrong component count and a bad component."""
    token = field.strip()
    if token == "" or token.lower() == "nan":
        return None
    cls, (brackets, names) = _KIND_CLASS[kind], _SHAPES[kind]
    parts = [token]
    if brackets:
        if token[:1] != brackets[0] or token[-1:] != brackets[1]:
            shape = f"{brackets[0]}{';'.join(cls.__slots__)}{brackets[1]}"
            raise ValueError(f"expected {kind.value} cell '{shape}', found {token!r}")
        parts = token[1:-1].split(";")
        if len(parts) != len(names):
            raise ValueError(f"expected {kind.value} cell with {len(names)} components, "
                             f"found {len(parts)}")
    return cls(*[_number(part.strip(), name) for part, name in zip(parts, names)])


def _reader(schema: tuple) -> str:
    """The source of ``schema``'s row reader: ``read(line)`` gives the row of a line of gaps
    and unpadded cells with no '_', else raises ValueError."""
    cells = "".join(f"c{l}, " for l in range(len(schema)))
    source = [f"def read(line):\n    {cells}= line.split(',')",
              "    if '_' in line:\n        raise ValueError"]
    for l, kind in enumerate(schema):
        # Components, the constructor's test, then slots set directly: cheaper than a call.
        cls, (opening, closing) = _KIND_CLASS[kind], _SHAPES[kind][0] or ("", "")
        xs = cls.__slots__
        read = [f"{xs[0]} = c{l}"] if not opening else [
            f"if c{l}[0] != {opening!r} or c{l}[-1] != {closing!r}:\n    raise ValueError",
            f"{', '.join(xs)} = c{l}[1:-1].split(';')"]
        read += [*(f"{x} = float({x})" for x in xs),
                 f"if not -inf < {' <= '.join(xs)} < inf:\n    raise ValueError",
                 f"c{l} = new({cls.__name__})", *(f"set_{x}(c{l}, {x})" for x in xs)]
        read = _indent("\n".join(read), 2)
        source.append(f"    if c{l}:\n        {read}\n    else:\n        c{l} = None")
    return "\n".join(source) + f"\n    return ({cells})"


def _writer(schema: tuple) -> str:
    """The source of ``schema``'s row writer: ``write(row)`` gives the row's canonical
    record, repr() giving the shortest digits."""
    cells = "".join(f"c{l}, " for l in range(len(schema)))
    writes = []
    for l, kind in enumerate(schema):
        opening, closing = _SHAPES[kind][0] or ("", "")
        fields = ";".join(f"{{c{l}.{x}!r}}" for x in _KIND_CLASS[kind].__slots__)
        writes.append(f"{{'' if c{l} is None else f'{opening}{fields}{closing}'}}")
    return f'''def write(row):\n    {cells}= row\n    return f"{",".join(writes)}\\n"'''


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of the text that ``chunks`` make up, one at a time: those of
    ``text.split("\n")``, less the last when it is empty, so a final newline
    ends the last line and "" has no line. No list of every line is built."""
    head = []  # the pieces of a line that no chunk has ended yet
    for chunk in chunks:
        *lines, last = chunk.split("\n")
        if lines:
            lines[0] = "".join(head) + lines[0]
            head.clear()
            yield from lines
        head.append(last)
    last = "".join(head)
    if last:
        yield last


def _decoded(file: BinaryIO) -> Iterator[str]:
    """The text of a binary file, a chunk at a time, decoded as UTF-8 with universal
    newlines as ``open(path, encoding="utf-8").read()`` decodes it. A byte that is
    not UTF-8 raises UnicodeDecodeError with its position in the whole file."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True)
    chunk, done = None, 0  # done: bytes read
    while chunk != b"":
        chunk = file.read(_CHUNK)
        start = done - len(decoder.getstate()[0])  # where the bytes decoded next start
        done += len(chunk)
        try:
            yield decoder.decode(chunk, not chunk)
        except UnicodeDecodeError as exc:
            exc.object = bytes(start) + exc.object
            exc.start, exc.end = exc.start + start, exc.end + start
            raise


def parse(text: str) -> DataMatrix:
    r"""Parse a typed-CSV document into a valid DataMatrix.

    A line ends at "\n" alone, and a "\r" is padding; a file that the CLI reads
    also ends a line at "\r\n" or a lone "\r". Raises ParseError, pointing at
    the offending line and column, for malformed cells, kind or arity
    mismatches, ragged rows, and cells that would violate a matrix invariant.
    """
    return _parse(_lines(text[i:i + _CHUNK] for i in range(0, len(text), _CHUNK)))


def _parse(lines: Iterator[str]) -> DataMatrix:
    """parse() of the document whose lines ``lines`` yields, drawn one at a time."""
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
    read = _compiled(_reader, tuple(schema))
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
                row.append(_read(field, kind))
        except ValueError as exc:
            raise ParseError(lineno, len(row) + 1, str(exc)) from None
        rows.append(tuple(row))
    if not rows:
        raise ParseError(1, 1, "document has a header but no data rows")
    return DataMatrix(schema, rows, names)


def _records(matrix: DataMatrix) -> Iterator[str]:
    """The canonical lines of ``matrix``, each ending in a newline: the
    header, then one record per row. A column name that parse() would not
    read back raises ValueError in this call, before any line is drawn."""
    for name in matrix.column_names:
        # parse() splits the header at each and strips a name's leading space; a file
        # that the CLI reads also ends a line at "\r".
        if "," in name or "\n" in name or "\r" in name or name[:1].isspace():
            raise ValueError(f"column name {name!r} has ',', a line break or leading space")
    header = ",".join(
        f"{name}:{kind.value}"
        for name, kind in zip(matrix.column_names, matrix.schema)
    )
    write = _compiled(_writer, matrix.schema)
    return itertools.chain([header + "\n"], map(write, matrix.cells))


def serialize(matrix: DataMatrix) -> str:
    """Render a matrix in canonical typed-CSV form."""
    return "".join(_records(matrix))
