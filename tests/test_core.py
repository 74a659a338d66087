import copy
import dataclasses
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
    validate,
)
from hetimpute.evaluation import mask_random
from hetimpute.imputer import impute

from strategies import cell_values, column_kinds, matrices


def test_validate_accepts_fixture(case1):
    assert validate(case1) == []


def test_validate_reports_interval_order_violation():
    m = DataMatrix(
        schema=(ColumnKind.CRISP, ColumnKind.INTERVAL),
        cells=((Crisp(0.1), Interval(0.9, 0.3)),),
    )
    report = validate(m)
    assert len(report) == 1
    assert report[0].ref == CellRef(0, 1)
    assert str(report[0]) == "lower > upper at (0,1)"


def test_validate_reports_kind_mismatch():
    # A cell of another kind never reaches validate(): building the matrix
    # rejects it and names the cell.
    with pytest.raises(
        ValueError, match=r"^cell \(1,0\): Crisp does not match column kind fuzzy$"
    ):
        DataMatrix(
            schema=(ColumnKind.FUZZY,),
            cells=((MISSING,), (Crisp(0.5),)),
        )


def test_validate_reports_fuzzy_order_violation():
    m = DataMatrix(
        schema=(ColumnKind.FUZZY,),
        cells=((FuzzyTFN(0.5, 0.2, 0.8),),),
    )
    assert [v.message for v in validate(m)] == ["fuzzy components out of order"]


def test_validate_reports_nonfinite_components():
    m = DataMatrix(
        schema=(ColumnKind.CRISP, ColumnKind.INTERVAL),
        cells=((Crisp(math.nan), Interval(0.0, math.inf)),),
    )
    messages = [v.message for v in validate(m)]
    assert messages == ["non-finite component", "non-finite component"]


def test_validate_is_idempotent_on_invalid_input():
    m = DataMatrix(
        schema=(ColumnKind.INTERVAL,),
        cells=((Interval(2.0, 1.0),), (Interval(0.0, 1.0),)),
    )
    assert validate(m) == validate(m)


def test_validate_skips_missing_cells():
    m = DataMatrix(schema=(ColumnKind.FUZZY,), cells=((MISSING,),))
    assert validate(m) == []


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
    # mask_random and impute; each record must equal a scan of the grid.
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
            assert twin.is_complete() == (not scan)
            assert twin == d
            assert hash(twin) == hash(d)
            assert repr(twin) == repr(d)
    assert repr(m) == (
        f"DataMatrix(schema={m.schema!r}, cells={m.cells!r}, "
        f"column_names={m.column_names!r})"
    )
    assert [f.name for f in dataclasses.fields(DataMatrix)] == [
        "schema",
        "cells",
        "column_names",
    ]


@given(matrices())
def test_validate_pure(m):
    before = m.cells
    first = validate(m)
    second = validate(m)
    assert first == second
    assert m.cells == before


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
        DataMatrix(schema=(ColumnKind.CRISP, "crisp"), cells=((MISSING, MISSING),))


def test_missing_is_one_instance():
    assert Missing() is MISSING
    m = DataMatrix(schema=(ColumnKind.CRISP,), cells=((Missing(),),))
    assert m.cells[0][0] is MISSING


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
