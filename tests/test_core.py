import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetimpute.core import (
    MISSING,
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
            cells=((MISSING,), (Crisp(0.5),)),
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
    m = DataMatrix(schema=(ColumnKind.FUZZY,), cells=((MISSING,),))
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
        cells=((MISSING, Crisp(1.0)), (Crisp(2.0), MISSING)),
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
    # mask_random, impute and _replace; each record must equal a scan of the grid.
    m = data.draw(matrices())
    i = data.draw(st.integers(0, m.n_rows - 1))
    l = data.draw(st.integers(0, m.n_cols - 1))
    complete = m
    for row, cells in enumerate(m.cells):
        for col, cell in enumerate(cells):
            if cell is MISSING:
                value = data.draw(cell_values(m.schema[col]))
                complete = complete.with_cell(row, col, value)
    count = data.draw(st.integers(0, m.n_rows))
    derived = [
        m,
        m.with_cell(i, l, MISSING),
        m.with_cell(i, l, data.draw(cell_values(m.schema[l]))),
        complete,
        mask_random(complete, count, data.draw(st.integers(0, 2**32)))[0],
        impute(m, data.draw(st.integers(1, 4))).matrix,
        complete._replace(cells=m.cells),
    ]
    for d in derived:
        scan = [
            CellRef(r, c)
            for r, cells in enumerate(d.cells)
            for c, cell in enumerate(cells)
            if cell is MISSING
        ]
        built = DataMatrix(d.schema, d.cells, d.column_names)
        for twin in (d, built, copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
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
    # The gap record is no item of the matrix: a twin whose record was
    # derived another way (here, one that disagrees) still equals, hashes
    # and prints like it, and pickle and deepcopy carry each record over.
    twin = copy.copy(m)
    vars(twin)["_gaps"] = (*m._gaps, CellRef(m.n_rows, 0))
    assert twin._gaps != m._gaps
    assert twin == m == (m.schema, m.cells, m.column_names)
    assert hash(twin) == hash(m)
    assert repr(twin) == repr(m)
    for d in (m, twin):
        assert copy.deepcopy(d)._gaps == d._gaps
        assert pickle.loads(pickle.dumps(d))._gaps == d._gaps


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
    # A named tuple's _replace builds through the same checks.
    with pytest.raises(ValueError):
        DataMatrix(schema=(ColumnKind.CRISP,), cells=((Crisp(1.0),),))._replace(cells=())


def test_matrix_rejects_a_schema_entry_that_is_not_a_kind():
    with pytest.raises(ValueError, match=r"^column 1 has kind 'crisp'"):
        DataMatrix(schema=(ColumnKind.CRISP, "crisp"), cells=((MISSING, MISSING),))


def test_missing_is_one_instance():
    assert Missing() is MISSING
    m = DataMatrix(schema=(ColumnKind.CRISP,), cells=((Missing(),),))
    assert m.cells[0][0] is MISSING
    # A gap is None itself, so a matrix built in the library can write it so.
    assert MISSING is None
    assert Missing() is None
    crisp = ColumnKind.CRISP
    m = DataMatrix((crisp, crisp), ((Crisp(1.0), None), (Crisp(2.0), Crisp(3.0))))
    assert missing_cells(m) == [CellRef(0, 1)]
    result = impute(m, 1)
    assert result.matrix.cell(0, 1) == Crisp(3.0)
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
        if cell is not MISSING and not matches_kind(cell, kind)
    ]
    if bad:
        with pytest.raises(ValueError, match=r"^cell \(%d,%d\): " % bad[0]):
            DataMatrix(schema, rows)
    else:
        m = DataMatrix(schema, rows)
        assert all(cell is MISSING for row in m.cells for cell in row
                   if isinstance(cell, Missing))


def test_matrix_accepts_lists_and_freezes_them():
    m = DataMatrix(
        schema=[ColumnKind.CRISP],
        cells=[[Crisp(1.0)], [MISSING]],
        column_names=["x"],
    )
    assert isinstance(m.cells, tuple)
    assert isinstance(m.cells[0], tuple)
    assert m.schema == (ColumnKind.CRISP,)


def test_matrix_default_column_names():
    m = DataMatrix(
        schema=(ColumnKind.CRISP, ColumnKind.FUZZY),
        cells=((Crisp(0.0), MISSING),),
    )
    assert m.column_names == ("c1", "c2")


def test_with_cell_returns_modified_copy(case1):
    changed = case1.with_cell(0, 0, Crisp(0.9))
    assert changed.cell(0, 0) == Crisp(0.9)
    assert case1.cell(0, 0) == Crisp(0.5891)
    with pytest.raises(IndexError):
        case1.with_cell(5, 0, MISSING)
    assert case1.with_cell(0, 0, Missing()).cell(0, 0) is MISSING


def test_is_complete(case1, case1_masked):
    assert case1.is_complete()
    assert not case1_masked.is_complete()


def test_matches_kind_and_components():
    assert matches_kind(Crisp(1.0), ColumnKind.CRISP)
    assert not matches_kind(MISSING, ColumnKind.CRISP)
    assert not matches_kind(Interval(0.0, 1.0), ColumnKind.FUZZY)
    assert components(FuzzyTFN(1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0)
    assert components(Interval(0.0, 1.0)) == (0.0, 1.0)
    with pytest.raises(ValueError):
        components(MISSING)


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
    assert components(cell) == before


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
