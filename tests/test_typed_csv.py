import tracemalloc

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
from hetimpute.typed_csv import ParseError, _lines, _records, parse, serialize

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
    @given(st.text(alphabet="x,\n\r", max_size=12))
    def test_same_lines_as_split(self, text):
        # A final newline ends the last line; "" has no line.
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        assert list(_lines(text)) == lines

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

    def test_single_missing_cell_document(self):
        m = parse("x:crisp\n\n")
        assert isinstance(m.cells[0][0], Missing)
        assert serialize(m) == "x:crisp\n\n"

    def test_rejects_unserializable_names(self, case1):
        bad = type(case1)(case1.schema, case1.cells, ("a,b", "c", "d"))
        with pytest.raises(ValueError):
            serialize(bad)

    @pytest.mark.parametrize(
        "name", ["a,b", "a\nb", " a", "\ta"],
        ids=["comma", "newline", "leading-space", "leading-tab"],
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
_PADDING = ["\xa0", "\x1c", " ", "\t"]


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
