import io
import os
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetimpute.core import (
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
)
from hetimpute.fixtures import FIXTURE_NAMES, fixture
from hetimpute import cli, core, typed_csv
from hetimpute.typed_csv import ParseError, _decoded, _lines, _records, parse, serialize

from conftest import seeded_table
from oracle import bf_parse_cell
from strategies import column_kinds, grid_reals, matrices, raw_reals


class TestParse:
    def test_heterogeneous_row(self):
        text = (
            "x:crisp,y:interval,z:fuzzy\n"
            "0.5891,[0.31623;0.94868],(0.455842;0.569803;0.683763)\n"
        )
        m = parse(text)
        assert m.column_names == ("x", "y", "z")
        assert m.schema == (ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY)
        assert m.cells[0] == (
            Crisp(0.5891),
            Interval(0.31623, 0.94868),
            FuzzyTFN(0.455842, 0.569803, 0.683763),
        )

    @pytest.mark.parametrize("token", ["NaN", "nan", "NAN", ""])
    def test_missing_spellings(self, token):
        m = parse(f"x:crisp\n{token}\n")
        assert isinstance(m.cells[0][0], Missing)

    def test_surrounding_whitespace_ignored(self):
        text = "x:crisp , y:interval\n 0.5 , [ 0.1 ; 0.2 ] \n"
        m = parse(text)
        assert m.cells[0] == (Crisp(0.5), Interval(0.1, 0.2))

    def test_missing_trailing_newline_tolerated(self):
        assert parse("x:crisp\n1.5") == parse("x:crisp\n1.5\n")

    def test_exponent_and_sign_notation(self):
        m = parse("x:crisp,y:crisp\n-1.2e-3,+.5\n")
        assert m.cells[0] == (Crisp(-0.0012), Crisp(0.5))
        m = parse(
            "x:interval,y:fuzzy\n[-1e308;1e308],(-1.7976931348623157e308;0;1e308)\n"
        )
        assert m.cells[0] == (
            Interval(-1e308, 1e308),
            FuzzyTFN(-1.7976931348623157e308, 0.0, 1e308),
        )

    def test_header_without_kind_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("x\n1.0\n")
        assert err.value.line == 1 and err.value.column == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="crisp, interval, fuzzy"):
            parse("x:crisp,y:categorical\n1.0,2.0\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("x:crisp,y:crisp\n1.0\n")
        assert err.value.line == 2
        assert "expected 2 fields" in str(err.value)
        # The first faulty line is reported, be it a bad cell or a ragged row.
        with pytest.raises(ParseError) as err:
            parse("x:crisp,y:crisp\n1,2\n1,zzz\n1,2\n1\n")
        assert str(err.value) == (
            "line 3, column 2: "
            "expected crisp cell: 'zzz' is not a finite decimal number"
        )
        # A line's field count is checked before any of its fields.
        with pytest.raises(ParseError) as err:
            parse("x:crisp,y:crisp,z:crisp\nzzz,1\n")
        assert str(err.value) == "line 2, column 1: expected 3 fields, found 2"

    def test_interval_order_enforced(self):
        with pytest.raises(ParseError, match="lower > upper") as err:
            parse("x:interval\n[0.9;0.3]\n")
        assert err.value.line == 2 and err.value.column == 1

    def test_fuzzy_order_enforced(self):
        with pytest.raises(ParseError, match="out of order"):
            parse("x:fuzzy\n(0.5;0.2;0.8)\n")

    def test_component_count_enforced(self):
        with pytest.raises(ParseError, match="2 components"):
            parse("x:interval\n[0.1;0.2;0.3]\n")
        with pytest.raises(ParseError, match="3 components"):
            parse("x:fuzzy\n(0.1;0.2)\n")

    def test_kind_shape_mismatch_names_expected_kind(self):
        with pytest.raises(ParseError, match="expected crisp"):
            parse("x:crisp\n[0.1;0.2]\n")
        with pytest.raises(ParseError, match="expected fuzzy"):
            parse("x:fuzzy\n0.5\n")
        with pytest.raises(ParseError) as err:
            parse("x:interval\n(0.1;0.2)\n")
        assert str(err.value) == (
            "line 2, column 1: expected interval cell '[lower;upper]', "
            "found '(0.1;0.2)'"
        )

    def test_malformed_number_positions(self):
        with pytest.raises(ParseError) as err:
            parse("x:crisp,y:crisp\n1.0,zzz\n")
        assert err.value.line == 2 and err.value.column == 2
        # Of two bad cells on a line, the leftmost is reported.
        with pytest.raises(ParseError) as err:
            parse("x:crisp,y:interval,z:crisp\n1.0,[2;1],1e400\n")
        assert str(err.value) == "line 2, column 2: lower > upper"

    def test_non_finite_literals_rejected(self):
        for text in [
            "x:crisp\ninf\n",
            "x:crisp\n1_000\n",
            "x:crisp\n1e400\n",
            "x:crisp\n-1e400\n",
            "x:interval\n[0;1e400]\n",
            "x:fuzzy\n(0;1;1e999)\n",
            "x:crisp\n-nan\n",
            "x:interval\n+NaN\n",
        ]:
            with pytest.raises(ParseError):
                parse(text)

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_header_only_rejected(self):
        with pytest.raises(ParseError, match="no data rows"):
            parse("x:crisp\n")


class TestLines:
    @settings(max_examples=300)
    @given(st.text(alphabet="x,\n\r", max_size=12), st.integers(1, 13))
    def test_same_lines_as_split(self, text, size):
        # A final newline ends the last line; "" has no line; a line may span chunks.
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        assert list(_lines(text[i:i + size] for i in range(0, len(text), size))) == lines

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from([b"a", b",", b"\n", b"\r", b"\xc3\xa9", b"\xe2\x82\xac",
                                     b"\xf0\x9f\x98\x80", b"\xc3", b"\xe2\x82", b"\xff", b"\x80"]),
                    max_size=16).map(b"".join), st.integers(1, 5))
    def test_a_file_decodes_as_a_whole_read_decodes_it(self, data, size):
        # Text mode reads the file at once: universal newlines, and a bad byte's
        # position counted from the start of the file, whatever the chunk it falls in.
        try:
            expected = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        except UnicodeDecodeError as exc:
            expected = exc
        with mock.patch.object(typed_csv, "_CHUNK", size):
            try:
                got = "".join(_decoded(io.BytesIO(data)))
            except UnicodeDecodeError as exc:
                got = exc
        assert type(got) is type(expected) and str(got) == str(expected)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("", (1, 1, "empty document")),
            ("\n", (1, 1, "header cell must be 'name:kind' with kind one of "
                          "crisp, interval, fuzzy, found ''")),
            ("x:crisp", (1, 1, "document has a header but no data rows")),
            ("x:crisp\n\n", [(None,)]),
            ("x:crisp\n1\n\n", [(Crisp(1.0),), (None,)]),
            ("x:crisp,y:crisp\n1,2\n3", (3, 1, "expected 2 fields, found 1")),
            ("x:crisp,y:crisp\n1,2\n3,", [(Crisp(1.0), Crisp(2.0)), (Crisp(3.0), None)]),
            ("x:crisp\r\n1\r\n", [(Crisp(1.0),)]),
            ("x:crisp,y:interval\r\n1,[0;1]\r\n\r\n", (3, 1, "expected 2 fields, found 1")),
        ],
        ids=["empty", "newline", "header-only-unterminated", "gap-row",
             "blank-last-line", "ragged-unterminated", "gap-unterminated",
             "crlf", "crlf-blank-line"],
    )
    def test_edge_documents(self, text, expected):
        # The outcomes split("\n") gave: a matrix's rows, or the ParseError's
        # line, column and message.
        if isinstance(expected, tuple):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.column, err.value.message) == expected
        else:
            assert list(parse(text).cells) == expected

    def test_parse_holds_no_list_of_lines(self, tall_text):
        # Beside the text and the matrix it builds, parse holds one line at a
        # time; a list of every line would add about 1.5x the text.
        tracemalloc.start()
        try:
            matrix = parse(tall_text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.n_rows == 3000
        assert peak - held < 0.75 * len(tall_text)

    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "gaps"])
    def test_crlf_lines_read_as_lf_lines(self, name):
        # The "\r" ends each line's last field, so the compiled row reader refuses
        # a bracketed last cell and the field-by-field reader strips it.
        m = seeded_table(40, 6, seed=7, gap_rate=0.2) if name == "gaps" else fixture(name)
        if name == "gaps":
            assert any(row[-1] is None for row in m.cells)  # a last field of just "\r"
        lf = serialize(m)
        crlf = lf.replace("\n", "\r\n")
        assert crlf.count("\r\n") == m.n_rows + 1
        assert parse(crlf) == parse(lf) == m
        assert repr(parse(crlf)) == repr(m)


def test_only_indices_and_kinds_reach_a_codec(compiles):
    # A schema's row reader and writer are compiled source: no column name or cell
    # value may reach them. parse compiles the reader alone, serialize the writer.
    text = "zq'{0}:crisp,zq\\\":fuzzy\n0.123456789,(0.25;0.375;0.4375)\n"
    m = parse(text)
    assert [source.split("(")[0] for source in compiles] == ["def read"]
    assert serialize(m) == text
    assert [source.split("(")[0] for source in compiles] == ["def read", "def write"]
    assert not any(s in source for s in ("zq", "0.123456789", "0.375") for source in compiles)


def test_shapes_alone_decide_a_kinds_syntax(monkeypatch, case1):
    # A kind's brackets are stated once, in _SHAPES: the row writer writes them, and
    # the row reader reads them without falling back to the field-by-field reader.
    def refused(field, kind):
        raise AssertionError(f"the row reader refused {field!r}")

    _, names = typed_csv._SHAPES[ColumnKind.INTERVAL]
    monkeypatch.setitem(typed_csv._SHAPES, ColumnKind.INTERVAL, ("<>", names))
    core._compiled.cache_clear()
    try:
        text = serialize(case1)
        monkeypatch.setattr(typed_csv, "_read", refused)
        parsed = parse(text)
    finally:
        monkeypatch.undo()
        core._compiled.cache_clear()
    assert text == serialize(case1).replace("[", "<").replace("]", ">")
    assert "<0.31623;0.94868>" in text
    assert parsed == case1


class TestSerialize:
    def test_canonical_shortest_digits(self):
        m = parse("x:crisp\n0.50000\n")
        assert serialize(m) == "x:crisp\n0.5\n"
        # Negative zero keeps its sign; float() reads non-ASCII digits.
        m = parse("x:crisp,y:interval\n-0.0,[-0.0;\u0661]\n")
        assert serialize(m) == "x:crisp,y:interval\n-0.0,[-0.0;1.0]\n"

    def test_missing_as_empty_field(self):
        m = parse("x:crisp,y:fuzzy\nNaN,\n")
        assert serialize(m) == "x:crisp,y:fuzzy\n,\n"

    @pytest.mark.parametrize(
        "schema, cells, expected",
        [
            ("x:crisp,y:interval,z:fuzzy",
             (Crisp(0.1), Interval(0.25, 0.5), FuzzyTFN(-1.0, -0.0, 1e300)),
             ["x:crisp,y:interval,z:fuzzy",
              "0.1,[0.25;0.5],(-1.0;-0.0;1e+300)",
              ",[0.25;0.5],(-1.0;-0.0;1e+300)",
              "0.1,,(-1.0;-0.0;1e+300)",
              "0.1,[0.25;0.5],",
              ",,"]),
            ("x:fuzzy,y:interval,z:crisp",
             (FuzzyTFN(5e-324, 0.5, 2.0), Interval(-2.5, 1.7976931348623157e308), Crisp(-3.0)),
             ["x:fuzzy,y:interval,z:crisp",
              "(5e-324;0.5;2.0),[-2.5;1.7976931348623157e+308],-3.0",
              ",[-2.5;1.7976931348623157e+308],-3.0",
              "(5e-324;0.5;2.0),,-3.0",
              "(5e-324;0.5;2.0),[-2.5;1.7976931348623157e+308],",
              ",,"]),
        ],
        ids=["crisp-interval-fuzzy", "fuzzy-interval-crisp"],
    )
    def test_a_gap_in_every_column_is_the_empty_field(self, schema, cells, expected):
        # The row with no gap, then one gap in each column in turn, then all gaps.
        rows = [cells] + [cells[:l] + (None,) + cells[l + 1:] for l in range(3)]
        rows.append((None, None, None))
        kinds = [ColumnKind(column.split(":")[1]) for column in schema.split(",")]
        m = DataMatrix(kinds, rows, "xyz")
        assert serialize(m) == "\n".join(expected) + "\n"
        assert parse(serialize(m)) == m

    def test_single_missing_cell_document(self):
        m = parse("x:crisp\n\n")
        assert isinstance(m.cells[0][0], Missing)
        assert serialize(m) == "x:crisp\n\n"

    def test_rejects_unserializable_names(self, case1):
        bad = type(case1)(case1.schema, case1.cells, ("a,b", "c", "d"))
        with pytest.raises(ValueError):
            serialize(bad)

    @pytest.mark.parametrize(
        "name", ["a,b", "a\nb", "a\rb", " a", "\ta"],
        ids=["comma", "newline", "carriage-return", "leading-space", "leading-tab"],
    )
    def test_rejects_names_parse_would_change(self, case1, name):
        bad = type(case1)(case1.schema, case1.cells, (name, "c", "d"))
        with pytest.raises(ValueError, match="column name"):
            serialize(bad)

    def test_records_refuse_a_name_before_any_line(self, case1):
        bad = type(case1)(case1.schema, case1.cells, ("a,b", "c", "d"))
        with pytest.raises(ValueError, match="column name"):
            _records(bad)  # no line drawn

    def test_colon_in_name_roundtrips(self, case1):
        named = type(case1)(case1.schema, case1.cells, ("a:b", "c", "d"))
        assert parse(serialize(named)).column_names == ("a:b", "c", "d")


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_bit_exact(self, name):
        m = fixture(name)
        assert parse(serialize(m)) == m

    def test_canonicalization_is_a_fixed_point(self):
        text = " x:crisp , y:interval \n 0.50 , [ 0.10 ; 0.30 ] \n"
        once = serialize(parse(text))
        assert serialize(parse(once)) == once

    @settings(max_examples=200)
    @given(matrices(elements=raw_reals(), max_rows=6, max_cols=5))
    def test_random_matrices_bit_exact(self, m):
        assert parse(serialize(m)) == m

    @settings(max_examples=500)
    @given(column_kinds, st.lists(st.floats(), min_size=3, max_size=3), st.booleans())
    def test_parse_refuses_exactly_what_the_constructor_refuses(self, kind, xs, ordered):
        # Components range over every float, nan and +-inf included.
        cls, spelling = _CELL_TEXT[kind]
        xs = xs[: spelling.count("{")]
        if ordered:
            xs.sort()
        field = spelling.format(*xs)
        text = f"x:{kind.value}\n{field}\n"
        try:
            cell = cls(*xs)
        except ValueError as refused:
            if field == "nan":  # the spelling of a gap
                assert parse(text).cells == ((None,),)
                return
            with pytest.raises(ParseError) as err:
                parse(text)
            if str(refused) != "non-finite component":
                assert str(err.value) == f"line 2, column 1: {refused}"
        else:
            got = parse(text).cells[0][0]
            assert got == cell and repr(got) == repr(cell)


_CELL_TEXT = {
    ColumnKind.CRISP: (Crisp, "{!r}"),
    ColumnKind.INTERVAL: (Interval, "[{!r};{!r}]"),
    ColumnKind.FUZZY: (FuzzyTFN, "({!r};{!r};{!r})"),
}


def _reference_parse(text: str, template: DataMatrix) -> DataMatrix:
    """Read the data lines of ``text`` under ``template``'s header, row by row
    and cell by cell through the arity check and the reference cell grammar."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    schema = template.schema
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(schema):
            raise ParseError(
                lineno, 1, f"expected {len(schema)} fields, found {len(fields)}"
            )
        rows.append(
            tuple(
                bf_parse_cell(field.strip(), kind, lineno, col)
                for col, (kind, field) in enumerate(zip(schema, fields), start=1)
            )
        )
    return DataMatrix(schema, tuple(rows), template.column_names)


# Literals that replace a whole component, and text inserted anywhere.
_COMPONENTS = [
    "1_0", "inf", "-inf", "1e400", "-1e400", "nan", "nAn", "-nan", "",
    "-0.0", "1e308", "-1e308", "\u0661", "+.5",
]
_INSERTS = [
    "_", "inf", "1e400", "nan", "nAn", ";", "[", "]", "(", ")",
    "\xa0", "\x1c", "0", "-", "e", ".",
]
_PADDING = ["\xa0", "\x1c", " ", "\t", "\r"]


@st.composite
def mutated_documents(draw):
    """A valid typed-CSV document with one mutation in one data field."""
    elements = st.one_of(raw_reals(), grid_reals())
    m = draw(matrices(elements=elements, max_rows=4, max_cols=4))
    lines = serialize(m).split("\n")
    row = draw(st.integers(1, m.n_rows))
    fields = lines[row].split(",")
    col = draw(st.integers(0, m.n_cols - 1))
    field = fields[col]
    parts = field[1:-1].split(";") if field[:1] in ("[", "(") else [field]
    mutation = draw(
        st.sampled_from(
            ["insert", "replace", "delete", "swap", "brackets", "pad", "drop"]
        )
    )
    if mutation == "insert":
        at = draw(st.integers(0, len(field)))
        field = field[:at] + draw(st.sampled_from(_INSERTS)) + field[at:]
    elif mutation == "replace":
        # at == -1, or a field of one part, replaces the whole field.
        at = draw(st.integers(-1, len(parts) - 1))
        literal = draw(st.sampled_from(_COMPONENTS))
        if at == -1 or len(parts) == 1:
            field = literal
        else:
            parts[at] = literal
            field = field[0] + ";".join(parts) + field[-1]
    elif mutation == "delete" and field:
        at = draw(st.integers(0, len(field) - 1))
        field = field[:at] + field[at + 1 :]
    elif mutation == "swap" and len(parts) > 1:
        i, j = draw(st.permutations(range(len(parts))))[:2]
        parts[i], parts[j] = parts[j], parts[i]
        field = field[0] + ";".join(parts) + field[-1]
    elif mutation == "brackets":
        pair = draw(st.sampled_from(["[]", "()", "[)", "(]", "", "[", ")"]))
        field = pair[:1] + field.strip("[]()") + pair[1:]
    elif mutation == "pad":
        pads = st.sampled_from(_PADDING)
        field = draw(pads) + field + draw(pads)
    if mutation == "drop":
        del fields[col]
    else:
        fields[col] = field
    lines[row] = ",".join(fields)
    return m, "\n".join(lines)


class TestParseMatchesCellByCellReference:
    @settings(max_examples=1000, deadline=None)
    @given(mutated_documents())
    def test_same_matrix_or_same_error(self, case):
        template, text = case
        try:
            expected = _reference_parse(text, template)
        except ParseError as reference_error:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == str(reference_error)  # line, column, message
        else:
            got = parse(text)
            assert got == expected
            assert repr(got) == repr(expected)  # tells -0.0 from 0.0


@st.composite
def file_bytes(draw):
    """The bytes of a typed-CSV file: a mutated document, or an empty or a
    header-only one, with LF, CRLF or lone-CR line ends, whitespace after some
    lines, and a final line end or none."""
    shape = draw(st.sampled_from(["mutated", "empty", "header-only"]))
    text = {"mutated": lambda: draw(mutated_documents())[1], "empty": lambda: "",
            "header-only": lambda: "a:crisp,b:interval,c:fuzzy"}[shape]()
    lines = [line + draw(st.sampled_from(["", "", " ", "\t", " \t "])) for line in text.split("\n")]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines).rstrip("\r\n") + draw(st.sampled_from(["", end]))
    return text.encode("utf-8")


class TestFileParsesAsItsText:
    @settings(max_examples=500, deadline=None)
    @given(file_bytes(), st.sampled_from([1, 2, 3, 7, 64, 8192]))
    def test_same_matrix_or_same_error(self, data, size):
        # The CLI reads a file a chunk at a time; parse() of the file's text, as
        # a text-mode read gives it, is the reference: same matrix or same error.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as f:
                f.write(data)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            try:
                expected = parse(text)
            except ParseError as exc:
                expected = f"{path}: {exc}"  # line, column and message
            with mock.patch.object(typed_csv, "_CHUNK", size):
                try:
                    got = cli._read_matrix(path)
                except cli._DataError as exc:
                    got = str(exc)
        assert got == expected
        assert repr(got) == repr(expected)  # tells -0.0 from 0.0


class TestFixtures:
    def test_case1_shape_and_digits(self):
        m = fixture("case1")
        assert (m.n_rows, m.n_cols) == (3, 3)
        assert m.schema == (ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY)
        assert m.cells[0][0] == Crisp(0.5891)
        assert m.cells[1][1] == Interval(0.55470, 0.83205)
        assert m.cells[2][2] == FuzzyTFN(0.491539, 0.573462, 0.655386)

    def test_case2_shape_and_digits(self):
        m = fixture("case2")
        assert (m.n_rows, m.n_cols) == (4, 4)
        assert m.schema == (
            ColumnKind.CRISP,
            ColumnKind.FUZZY,
            ColumnKind.FUZZY,
            ColumnKind.INTERVAL,
        )
        assert m.cells[0][1] == FuzzyTFN(0.32, 0.48, 0.71)
        assert m.cells[3][3] == Interval(0.50, 0.69)

    def test_case3_shape_and_digits(self):
        m = fixture("case3")
        assert (m.n_rows, m.n_cols) == (5, 3)
        assert m.schema == (ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY)
        assert m.cells[4][1] == Interval(0.20, 0.98)
        assert m.cells[2][2] == FuzzyTFN(0.46, 0.57, 0.68)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_all_fixtures_valid_and_complete(self, name):
        m = fixture(name)
        assert parse(serialize(m)) == m
        assert m.is_complete()

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="case1, case2, case3"):
            fixture("case9")
