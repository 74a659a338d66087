import copy
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetimpute import fixture
from hetimpute.core import (
    CellRef,
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
    components,
    matches_kind,
    missing_cells,
)
from hetimpute.evaluation import Summary, TrialRecord, mask_random
from hetimpute.imputer import Donor, impute

from strategies import cell_values, column_kinds, matrices


# A cell checks its own components when it is built: a cell that breaks
# the rule of its kind never exists, so no matrix can hold one.


def test_validate_accepts_fixture(case1):
    for row in case1.cells:
        for cell in row:
            assert type(cell)(*components(cell)) == cell


def test_validate_reports_interval_order_violation():
    with pytest.raises(ValueError, match=r"^lower > upper$"):
        Interval(0.9, 0.3)
    with pytest.raises(ValueError, match=r"^lower > upper$"):
        Interval(math.ulp(0.0), 0.0)
    assert Interval(0.3, 0.3) == Interval(0.3, 0.3)


def test_validate_reports_kind_mismatch():
    # Building the matrix rejects a cell of another kind and names the cell.
    with pytest.raises(
        ValueError, match=r"^cell \(1,0\): Crisp does not match column kind fuzzy$"
    ):
        DataMatrix(
            schema=(ColumnKind.FUZZY,),
            cells=((None,), (Crisp(0.5),)),
        )


def test_kind_check_accepts_a_subclass_of_the_kind_class():
    class Tagged(Crisp):
        pass

    cells = ((Tagged(1.0),), (None,), (Crisp(2.0),), (Tagged(3.0),))
    m = DataMatrix(schema=(ColumnKind.CRISP,), cells=cells)
    assert m.cells == cells
    # In a column of another kind, the row-major first one is named.
    with pytest.raises(
        ValueError, match=r"^cell \(1,1\): Tagged does not match column kind interval$"
    ):
        DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.INTERVAL),
            cells=(
                (Crisp(0.0), Interval(0.0, 1.0)),
                (Tagged(1.0), Tagged(2.0)),
                (Crisp(0.0), Tagged(3.0)),
            ),
        )


def test_validate_reports_fuzzy_order_violation():
    for a1, a2, a3 in [(0.5, 0.2, 0.8), (0.1, 0.9, 0.8), (0.3, 0.2, 0.1)]:
        with pytest.raises(ValueError, match=r"^fuzzy components out of order$"):
            FuzzyTFN(a1, a2, a3)
    assert FuzzyTFN(0.5, 0.5, 0.5) == FuzzyTFN(0.5, 0.5, 0.5)


def test_validate_reports_nonfinite_components():
    # A non-finite component is reported as such, even where the order
    # breaks too; nan compares with nothing.
    for bad in (math.nan, math.inf, -math.inf):
        for cls, args in [
            (Crisp, (bad,)),
            (Interval, (0.0, bad)),
            (Interval, (bad, 0.0)),
            (Interval, (bad, bad)),
            (FuzzyTFN, (bad, 0.0, 1.0)),
            (FuzzyTFN, (0.0, bad, 1.0)),
            (FuzzyTFN, (0.0, 1.0, bad)),
            (FuzzyTFN, (1.0, 0.0, bad)),
        ]:
            with pytest.raises(ValueError, match=r"^non-finite component$"):
                cls(*args)


def test_validate_is_idempotent_on_invalid_input():
    # The same components are refused every time, with the same message.
    messages = set()
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            Interval(2.0, 1.0)
        messages.add(str(err.value))
    assert messages == {"lower > upper"}


def test_validate_skips_missing_cells():
    # A gap is None, no cell: it has no components to check.
    m = DataMatrix(schema=(ColumnKind.FUZZY,), cells=((None,),))
    assert m.cells == ((None,),)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (Crisp, (math.inf,), "non-finite component"),
        (Interval, (0.9, 0.3), "lower > upper"),
        (FuzzyTFN, (0.5, 0.2, 0.8), "fuzzy components out of order"),
        (FuzzyTFN, (0.0, math.nan, 1.0), "non-finite component"),
    ],
    ids=["crisp-inf", "interval-order", "fuzzy-order", "fuzzy-nan"],
)
def test_unpickling_a_broken_cell_raises(cls, args, message):
    # A cell pickles as its class and components, and unpickling calls the
    # class: a pickle whose components break the cell's rule is refused.
    def forge(parts):
        class Forged:
            def __reduce__(self):
                return cls, parts

        return pickle.dumps(Forged())

    good = (0.25, 0.5, 0.75)[: len(args)]
    assert forge(good) == pickle.dumps(cls(*good))
    with pytest.raises(ValueError, match=f"^{message}$"):
        pickle.loads(forge(args))


def test_missing_cells_finds_masked_fixture_cell(case1_masked):
    assert missing_cells(case1_masked) == [CellRef(2, 2)]


def test_missing_cells_empty_for_complete_matrix(case1):
    assert missing_cells(case1) == []


def test_missing_cells_row_major_order():
    m = DataMatrix(
        schema=(ColumnKind.CRISP, ColumnKind.CRISP),
        cells=((None, Crisp(1.0)), (Crisp(2.0), None)),
    )
    assert missing_cells(m) == [CellRef(0, 0), CellRef(1, 1)]


@given(matrices())
def test_missing_plus_observed_covers_grid(m):
    observed = sum(
        1 for row in m.cells for c in row if not isinstance(c, Missing)
    )
    assert len(missing_cells(m)) + observed == m.n_rows * m.n_cols


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gap_record_follows_every_derived_matrix(data):
    # The gaps are recorded once at construction and derived by with_cell,
    # mask_random and impute; each record must equal a scan of the grid.
    m = data.draw(matrices())
    i = data.draw(st.integers(0, m.n_rows - 1))
    l = data.draw(st.integers(0, m.n_cols - 1))
    complete = m
    for row, cells in enumerate(m.cells):
        for col, cell in enumerate(cells):
            if cell is None:
                value = data.draw(cell_values(m.schema[col]))
                complete = complete.with_cell(row, col, value)
    count = data.draw(st.integers(0, m.n_rows))
    observed = data.draw(cell_values(m.schema[l]))
    # with_cell builds what the constructor builds from the edited grid.
    for value in (None, observed):
        edited = [list(row) for row in m.cells]
        edited[i][l] = value
        built, changed = DataMatrix(m.schema, edited, m.column_names), m.with_cell(i, l, value)
        assert changed == built
        assert changed._gaps == built._gaps
    derived = [
        m,
        m.with_cell(i, l, None),
        m.with_cell(i, l, observed),
        complete,
        mask_random(complete, count, data.draw(st.integers(0, 2**32)))[0],
        impute(m, data.draw(st.integers(1, 4))).matrix,
    ]
    for d in derived:
        scan = [
            CellRef(r, c)
            for r, cells in enumerate(d.cells)
            for c, cell in enumerate(cells)
            if cell is None
        ]
        built = DataMatrix(d.schema, d.cells, d.column_names)
        copies = (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)))
        for twin in (d, built, *copies):
            assert missing_cells(twin) == scan
            assert all(isinstance(ref, CellRef) for ref in missing_cells(twin))
            assert twin.is_complete() == (not scan)
            assert twin == d
            assert hash(twin) == hash(d)
            assert repr(twin) == repr(d)
    assert repr(m) == (
        f"DataMatrix(schema={m.schema!r}, cells={m.cells!r}, "
        f"column_names={m.column_names!r})"
    )
    # The gap record is no component of the matrix: a twin whose record is
    # forced wrong still equals, hashes and prints like it, and copy,
    # deepcopy and pickle rebuild the record from the cells, not carry it.
    twin = DataMatrix(m.schema, m.cells, m.column_names)
    object.__setattr__(twin, "_gaps", (*m._gaps, CellRef(m.n_rows, 0)))
    assert twin._gaps != m._gaps
    assert twin == m
    assert m != (m.schema, m.cells, m.column_names)
    assert hash(twin) == hash(m)
    assert repr(twin) == repr(m)
    copies = (copy.copy(twin), copy.deepcopy(twin), pickle.loads(pickle.dumps(twin)))
    for rebuilt in copies:
        assert rebuilt._gaps == m._gaps


def test_matrix_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        DataMatrix(schema=(), cells=((),))
    with pytest.raises(ValueError):
        DataMatrix(schema=(ColumnKind.CRISP,), cells=())
    with pytest.raises(ValueError):
        DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=((Crisp(1.0),),),
        )
    with pytest.raises(ValueError):
        DataMatrix(
            schema=(ColumnKind.CRISP,),
            cells=((Crisp(1.0),),),
            column_names=("a", "b"),
        )


def test_matrix_rejects_a_schema_entry_that_is_not_a_kind():
    with pytest.raises(ValueError, match=r"^column 1 has kind 'crisp'"):
        DataMatrix(schema=(ColumnKind.CRISP, "crisp"), cells=((None, None),))


def test_matrix_rejects_a_column_name_that_is_not_a_str():
    # serialize could not write such a name, so no matrix holds one.
    with pytest.raises(ValueError, match=r"^column 1 has name 5, not a str$"):
        DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=((None, None),),
            column_names=("a", 5),
        )


def test_missing_is_one_instance():
    # A gap is None itself, and Missing is its type.
    assert Missing() is None
    assert isinstance(None, Missing)
    m = DataMatrix(schema=(ColumnKind.CRISP,), cells=((Missing(),),))
    assert m.cells[0][0] is None
    crisp = ColumnKind.CRISP
    m = DataMatrix((crisp, crisp), ((Crisp(1.0), None), (Crisp(2.0), Crisp(3.0))))
    assert missing_cells(m) == [CellRef(0, 1)]
    result = impute(m, 1)
    assert result.matrix.cells[0][1] == Crisp(3.0)
    assert result.unimputable == ()


@settings(max_examples=300)
@given(st.data())
def test_construction_raises_exactly_on_a_cell_of_another_kind(data):
    schema = data.draw(st.lists(column_kinds, min_size=1, max_size=4))
    any_cell = st.one_of(
        st.builds(Missing), *(cell_values(kind) for kind in ColumnKind)
    )
    rows = data.draw(
        st.lists(st.tuples(*(any_cell for _ in schema)), min_size=1, max_size=5)
    )
    bad = [
        (i, l)
        for i, row in enumerate(rows)
        for l, (cell, kind) in enumerate(zip(row, schema))
        if cell is not None and not matches_kind(cell, kind)
    ]
    if bad:
        with pytest.raises(ValueError, match=r"^cell \(%d,%d\): " % bad[0]):
            DataMatrix(schema, rows)
    else:
        m = DataMatrix(schema, rows)
        assert all(cell is None for row in m.cells for cell in row
                   if isinstance(cell, Missing))


def test_matrix_accepts_lists_and_freezes_them():
    m = DataMatrix(
        schema=[ColumnKind.CRISP],
        cells=[[Crisp(1.0)], [None]],
        column_names=["x"],
    )
    assert isinstance(m.cells, tuple)
    assert isinstance(m.cells[0], tuple)
    assert m.schema == (ColumnKind.CRISP,)


def test_matrix_default_column_names():
    m = DataMatrix(
        schema=(ColumnKind.CRISP, ColumnKind.FUZZY),
        cells=((Crisp(0.0), None),),
    )
    assert m.column_names == ("c1", "c2")


def test_with_cell_returns_modified_copy(case1):
    changed = case1.with_cell(0, 0, Crisp(0.9))
    assert changed.cells[0][0] == Crisp(0.9)
    assert case1.cells[0][0] == Crisp(0.5891)
    with pytest.raises(IndexError):
        case1.with_cell(5, 0, None)
    assert case1.with_cell(0, 0, Missing()).cells[0][0] is None


@pytest.mark.parametrize("name", ["case1", "case2", "case3"])
def test_with_cell_refuses_a_cell_of_another_kind(name):
    m = fixture(name)
    samples = {ColumnKind.CRISP: Crisp(0.5), ColumnKind.INTERVAL: Interval(0.1, 0.2),
               ColumnKind.FUZZY: FuzzyTFN(0.1, 0.2, 0.3)}
    for i in range(m.n_rows):
        for l, kind in enumerate(m.schema):
            assert m.with_cell(i, l, samples[kind]).cells[i][l] is samples[kind]
            for cell in [*(c for k, c in samples.items() if k is not kind), 1.0]:
                message = (f"cell ({i},{l}): {type(cell).__name__} does not match "
                           f"column kind {kind.value}")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    m.with_cell(i, l, cell)
    for i, l in [(m.n_rows, 0), (0, m.n_cols), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            m.with_cell(i, l, None)


def test_is_complete(case1, case1_masked):
    assert case1.is_complete()
    assert not case1_masked.is_complete()


def test_matches_kind_and_components():
    assert matches_kind(Crisp(1.0), ColumnKind.CRISP)
    assert not matches_kind(None, ColumnKind.CRISP)
    assert not matches_kind(Interval(0.0, 1.0), ColumnKind.FUZZY)
    assert components(FuzzyTFN(1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0)
    assert components(Interval(0.0, 1.0)) == (0.0, 1.0)
    with pytest.raises(ValueError):
        components(None)


def test_cellref_orders_row_major():
    refs = [CellRef(1, 0), CellRef(0, 2), CellRef(0, 1)]
    assert sorted(refs) == [CellRef(0, 1), CellRef(0, 2), CellRef(1, 0)]
    # A CellRef is the plain (row, col) tuple, with names.
    ref = CellRef(1, 2)
    assert ref == (1, 2)
    assert hash(ref) == hash((1, 2))
    row, col = ref
    assert (row, col) == (ref.row, ref.col) == (1, 2)
    assert repr(ref) == "CellRef(row=1, col=2)"


@pytest.mark.parametrize(
    "cell, field",
    [
        (Crisp(1.5), "value"),
        (Interval(0.1, 0.2), "upper"),
        (FuzzyTFN(-1.0, 0.0, 2.5), "a2"),
    ],
    ids=["crisp", "interval", "fuzzy"],
)
def test_cell_is_an_immutable_value(cell, field):
    before = components(cell)
    twin = type(cell)(*before)
    assert twin == cell and not twin != cell and twin is not cell
    assert hash(twin) == hash(cell)
    for copied in (copy.copy(cell), copy.deepcopy(cell), pickle.loads(pickle.dumps(cell))):
        assert type(copied) is type(cell)
        assert copied == cell
        assert repr(copied) == repr(cell)
    with pytest.raises(AttributeError):
        setattr(cell, field, 9.0)
    with pytest.raises(AttributeError):
        delattr(cell, field)
    with pytest.raises(AttributeError):
        cell.note = "anything"
    with pytest.raises(TypeError):
        vars(cell)
    assert components(cell) == before


def test_matrix_is_an_immutable_value(case1_masked):
    m = case1_masked
    for name in ("schema", "cells", "column_names", "_gaps"):
        before = getattr(m, name)
        with pytest.raises(AttributeError):
            setattr(m, name, ())
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert getattr(m, name) == before
    with pytest.raises(AttributeError):
        m.note = "anything"
    with pytest.raises(TypeError):
        vars(m)
    # A matrix is no tuple: it has no length, items or tuple methods.
    for use in (len, iter, lambda m: m[0], lambda m: m + m):
        with pytest.raises(TypeError):
            use(m)
    assert not hasattr(m, "_replace")


def test_init_leaves_a_built_matrix_as_it_is(case1_masked):
    # The constructor is __new__: __init__ on a built matrix, even on the
    # fixture that every caller shares, rebinds nothing.
    other = fixture("case2").with_cell(0, 1, None)
    for m in (case1_masked, fixture("case1")):
        before = DataMatrix(m.schema, m.cells, m.column_names)
        m.__init__(other.schema, other.cells, other.column_names)
        m.__init__(other.schema, other.cells)
        assert m == before
        assert m._gaps == before._gaps
    assert fixture("case1").is_complete()


def test_cells_equal_only_cells_of_their_own_kind():
    assert Crisp(1.0) != (1.0,)
    assert Interval(0.0, 1.0) != CellRef(0, 1)
    assert Interval(0.0, 1.0) != (0.0, 1.0)
    assert Crisp(1.0) != Interval(1.0, 1.0)
    assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
    assert FuzzyTFN(0.0, 1.0, 2.0) != FuzzyTFN(0.0, 1.5, 2.0)


def test_cell_repr_names_its_fields():
    assert repr(Crisp(-0.0)) == "Crisp(value=-0.0)"
    assert repr(Interval(0.1, 0.2)) == "Interval(lower=0.1, upper=0.2)"
    assert repr(FuzzyTFN(1.0, 2.0, 3.0)) == "FuzzyTFN(a1=1.0, a2=2.0, a3=3.0)"
    assert Interval(upper=0.2, lower=0.1) == Interval(0.1, 0.2)


def test_records_keep_their_field_order():
    assert Donor(3, 0.5, 1.0) == Donor(row=3, distance=0.5, weight=1.0)
    assert Donor._fields == ("row", "distance", "weight")
    assert Summary._fields == ("min", "q1", "median", "q3", "max", "mean")
    assert TrialRecord._fields == ("k", "missing_count", "trial", "error")
