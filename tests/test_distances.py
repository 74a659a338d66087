import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetimpute.core import (
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
)
from hetimpute.core import _compiled
from hetimpute.distances import _apart, _shared_distances, cell_distance, row_distance

from oracle import bf_cell_distance, bf_row_distance
from strategies import cell_values, complete_matrices, edge_reals, grid_reals, matrices

approx = pytest.approx


class TestCrispDistance:
    def test_fixture_pair(self):
        d = cell_distance(Crisp(0.5802), Crisp(0.5624), ColumnKind.CRISP)
        assert d == approx(0.0178)

    def test_identity(self):
        assert cell_distance(Crisp(0.37), Crisp(0.37), ColumnKind.CRISP) == 0.0

    def test_plain_gap(self):
        assert cell_distance(Crisp(0.0), Crisp(3.0), ColumnKind.CRISP) == 3.0


class TestIntervalDistance:
    def test_fixture_pair(self):
        d = cell_distance(
            Interval(0.31623, 0.94868), Interval(0.55470, 0.83205), ColumnKind.INTERVAL
        )
        assert d == approx(0.132732, abs=1e-6)
        assert d == approx(0.13273139963851807, rel=1e-12)

    def test_identity(self):
        iv = Interval(0.1, 0.9)
        assert cell_distance(iv, iv, ColumnKind.INTERVAL) == 0.0

    def test_unit_square_diagonal(self):
        assert cell_distance(Interval(0, 0), Interval(2, 2), ColumnKind.INTERVAL) == approx(
            0.5 * math.sqrt(8)
        )

    def test_overflowing_square_is_inf(self):
        d = cell_distance(Interval(-1e300, 1e300), Interval(1e300, 1e300), ColumnKind.INTERVAL)
        assert d == math.inf


class TestTfnDistance:
    def test_fixture_pair(self):
        d = cell_distance(
            FuzzyTFN(0.455842, 0.569803, 0.683763),
            FuzzyTFN(0.371391, 0.557086, 0.742781),
            ColumnKind.FUZZY,
        )
        assert d == approx(0.052062, abs=1e-9)

    def test_identity(self):
        t = FuzzyTFN(0.1, 0.2, 0.3)
        assert cell_distance(t, t, ColumnKind.FUZZY) == 0.0

    def test_constant_offset(self):
        d = cell_distance(FuzzyTFN(0, 0, 0), FuzzyTFN(3, 3, 3), ColumnKind.FUZZY)
        assert d == approx(3.0)


class TestCellDistance:
    def test_crisp_dispatch(self):
        assert cell_distance(Crisp(0.47), Crisp(0.58), ColumnKind.CRISP) == approx(0.11)

    def test_interval_identity(self):
        iv = Interval(0.55470, 0.83205)
        assert cell_distance(iv, iv, ColumnKind.INTERVAL) == 0.0

    def test_fuzzy_dispatch(self):
        d = cell_distance(FuzzyTFN(0, 0, 0), FuzzyTFN(3, 3, 3), ColumnKind.FUZZY)
        assert d == approx(3.0)

    def test_missing_operand_rejected(self):
        with pytest.raises(ValueError):
            cell_distance(None, Crisp(1.0), ColumnKind.CRISP)
        with pytest.raises(ValueError):
            cell_distance(Crisp(1.0), None, ColumnKind.CRISP)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cell_distance(Crisp(1.0), Interval(0.0, 1.0), ColumnKind.CRISP)
        with pytest.raises(ValueError):
            cell_distance(Crisp(1.0), Crisp(2.0), ColumnKind.FUZZY)


class TestRowDistance:
    def test_worked_example_pair(self, case1_masked):
        to_first = row_distance(case1_masked, 2, 0)
        to_second = row_distance(case1_masked, 2, 1)
        assert to_first == approx(0.2661, abs=5e-4)
        assert to_second == approx(0.0945, abs=5e-4)
        assert to_first == approx(0.26611219404465286, rel=1e-12)
        assert to_second == approx(0.09433981132056614, rel=1e-12)
        assert len(_shared_distances(case1_masked, 2, 0)) == 2
        assert len(_shared_distances(case1_masked, 2, 1)) == 2

    def test_disjoint_rows_incomparable(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=((Crisp(1.0), None), (None, Crisp(2.0))),
        )
        assert row_distance(m, 0, 1) is None

    def test_same_row_rejected(self, case1):
        with pytest.raises(ValueError):
            row_distance(case1, 1, 1)

    def test_out_of_range_rejected(self, case1):
        with pytest.raises(IndexError):
            row_distance(case1, 0, 3)
        with pytest.raises(IndexError):
            row_distance(case1, -1, 0)

    def test_identical_rows_are_at_distance_zero(self):
        row = (Crisp(0.4), Interval(0.1, 0.2), FuzzyTFN(0.1, 0.2, 0.3))
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY),
            cells=(row, row),
        )
        assert row_distance(m, 0, 1) == 0.0


# -- randomized properties ---------------------------------------------------

unit_reals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(column_kind=st.sampled_from(list(ColumnKind)), data=st.data())
def test_cell_distance_symmetric_nonnegative(column_kind, data):
    a = data.draw(cell_values(column_kind))
    b = data.draw(cell_values(column_kind))
    d = cell_distance(a, b, column_kind)
    assert d >= 0.0
    assert d == cell_distance(b, a, column_kind)


@given(column_kind=st.sampled_from(list(ColumnKind)), data=st.data())
def test_cell_distance_zero_iff_equal(column_kind, data):
    a = data.draw(cell_values(column_kind))
    b = data.draw(cell_values(column_kind))
    d = cell_distance(a, b, column_kind)
    assert (d == 0.0) == (a == b)


@given(column_kind=st.sampled_from(list(ColumnKind)), data=st.data())
def test_cell_distance_unit_components_stay_comparable(column_kind, data):
    """No per-type distance can dominate: on [0,1] components the crisp and
    fuzzy distances stay within [0,1] and the interval distance within
    [0, sqrt(2)/2]."""
    a = data.draw(cell_values(column_kind, elements=unit_reals))
    b = data.draw(cell_values(column_kind, elements=unit_reals))
    d = cell_distance(a, b, column_kind)
    bound = math.sqrt(0.5) if column_kind is ColumnKind.INTERVAL else 1.0
    assert 0.0 <= d <= bound + 1e-15


@given(matrices(min_rows=2))
def test_row_distance_symmetric(m):
    for j in range(1, m.n_rows):
        forward = row_distance(m, 0, j)
        backward = row_distance(m, j, 0)
        if forward is None:
            assert backward is None
        else:
            assert type(forward) is float
            assert forward == backward
            assert len(_shared_distances(m, 0, j)) == len(_shared_distances(m, j, 0))


@settings(max_examples=60)
@given(complete_matrices(min_rows=2, max_cols=4))
def test_row_distance_matches_bruteforce(m):
    for j in range(1, m.n_rows):
        d = row_distance(m, 0, j)
        assert d == approx(bf_row_distance(m, 0, j), rel=1e-9, abs=1e-12)
        assert len(_shared_distances(m, 0, j)) == m.n_cols


@given(matrices(min_rows=2))
def test_row_distance_folds_the_shared_distances(m):
    # ``hetimpute distance`` prints these pairs as its per-column lines: they
    # are the shared columns in order, and rebuild the row distance bit for
    # bit when left-folded, divided by their count and square-rooted.
    for j in range(1, m.n_rows):
        shared = _shared_distances(m, 0, j)
        pairs = zip(m.cells[0], m.cells[j])
        assert [l for l, _ in shared] == [
            l for l, (a, b) in enumerate(pairs) if a is not None and b is not None
        ]
        for l, d in shared:
            assert d == approx(bf_cell_distance(m.cells[0][l], m.cells[j][l]), rel=1e-12)
        total = 0.0
        for _, d in shared:
            total += d
        expected = math.sqrt(total / len(shared)) if shared else None
        assert row_distance(m, 0, j) == expected


@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(grid_reals(0, 5), min_size=m, max_size=m),
            min_size=2,
            max_size=6,
        )
    )
)
def test_all_crisp_rows_reduce_to_root_mean_gap(rows):
    m = DataMatrix(
        schema=tuple(ColumnKind.CRISP for _ in rows[0]),
        cells=tuple(tuple(Crisp(x) for x in row) for row in rows),
    )
    expected = math.sqrt(
        sum(abs(a - b) for a, b in zip(rows[0], rows[1])) / len(rows[0])
    )
    assert row_distance(m, 0, 1) == approx(expected, rel=1e-12, abs=0)


@settings(max_examples=300, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6, max_cols=6,
                         elements=st.one_of(edge_reals(), grid_reals())), st.data())
def test_apart_leaves_each_column_out_bit_for_bit(m, data):
    # For each column l, apart's distance from row i to each other row is the
    # one row_distance gives with only (i, l) a gap, in every bit (repr tells
    # -0.0 from 0.0); with one column no row is comparable.
    i = data.draw(st.integers(0, m.n_rows - 1))
    rows = [j for j in range(m.n_rows) if j != i]
    lists = _compiled(_apart, m.schema)(m.cells, i, iter(rows))
    assert len(lists) == m.n_cols
    for l, listed in enumerate(lists):
        masked = m.with_cell(i, l, None)
        expected = [(d, j) for j in rows if (d := row_distance(masked, i, j)) is not None]
        assert repr(listed) == repr(expected)
