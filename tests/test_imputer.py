import faulthandler
import functools
import math
import os
import sys
import threading
import warnings

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from hetimpute import core, distances, evaluation, fixture, imputer
from hetimpute.core import (
    CellRef,
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
    components,
    missing_cells,
)
from hetimpute.imputer import impute
from hetimpute.typed_csv import parse, serialize

from conftest import refuse_other_processes, seeded_table
from oracle import bf_candidate_distances, bf_combine, bf_weights
from strategies import cell_values, matrices, raw_reals

approx = pytest.approx


def fill(cells, distances):
    """``(weights, cell)`` from the fill step of ``cells``' kind, donor j at ``distances[j]``."""
    kind = next(kind for kind in ColumnKind if core.matches_kind(cells[0], kind))
    chosen = [(d, j) for j, d in enumerate(distances)]
    return core._compiled(imputer._step, kind)([[c] for c in cells], 0, chosen)


#: Donors whose values the weights tests ignore.
DONORS = [Crisp(float(j)) for j in range(10)]

_TOP = sys.float_info.max
_ULP = math.ulp(_TOP)
#: Two donors' distances whose weights sum to just over 1 (see the clamping test below).
_PAST_TOP = [math.sqrt(1 / 3), math.sqrt(292299213049927 / 3)]


class TestNeighborWeights:
    def test_worked_example_pair(self):
        w, _ = fill(DONORS[:2], [0.2661, 0.0945])
        assert w[0] == approx(0.2620, abs=1e-3)
        assert w[1] == approx(0.7380, abs=1e-3)

    def test_equal_distances_split_evenly(self):
        assert fill(DONORS[:2], [0.37, 0.37])[0] == [0.5, 0.5]

    def test_zero_distance_takes_all(self):
        assert fill(DONORS[:2], [0.0, 0.3])[0] == [1.0, 0.0]

    def test_tied_zero_distances_share(self):
        assert fill(DONORS[:3], [0.0, 0.0, 0.3])[0] == [0.5, 0.5, 0.0]

    def test_near_zero_counts_as_zero(self):
        assert fill(DONORS[:2], [1e-13, 0.3])[0] == [1.0, 0.0]

    def test_all_infinite_distances_share(self):
        distances = [math.inf, math.inf]
        assert fill(DONORS[:2], distances)[0] == bf_weights(distances) == [0.5, 0.5]

    def test_infinite_distance_among_finite_gets_nothing(self):
        assert fill(DONORS[:2], [0.5, math.inf])[0] == [1.0, 0.0]

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    def test_weights_normalized(self, distances):
        w, _ = fill(DONORS[:len(distances)], distances)
        assert len(w) == len(distances)
        assert all(0.0 <= x <= 1.0 for x in w)
        assert sum(w) == approx(1.0, abs=1e-12)


class TestFindNeighbors:
    """A cell's donors, as ``impute`` records them in its trace."""

    def test_worked_example(self, case1_masked):
        donors = impute(case1_masked, k=2).trace[CellRef(2, 2)]
        assert [d.row for d in donors] == [1, 0]
        assert donors[0].distance == approx(0.0945, abs=5e-4)
        assert donors[1].distance == approx(0.2661, abs=5e-4)
        assert donors[0].weight == approx(0.7380, abs=1e-3)
        assert donors[1].weight == approx(0.2620, abs=1e-3)

    def test_single_candidate_gets_full_weight(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (Crisp(0.2), None),
                (Crisp(0.3), Crisp(0.4)),
                (Crisp(0.9), None),
            ),
        )
        donors = impute(m, k=3).trace[CellRef(0, 1)]
        assert len(donors) == 1
        assert donors[0].row == 1
        assert donors[0].weight == 1.0

    def test_no_shared_columns_gives_empty_set(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=((None, None), (Crisp(1.0), Crisp(2.0))),
        )
        result = impute(m, k=1)
        assert CellRef(0, 0) not in result.trace
        assert CellRef(0, 0) in result.unimputable

    def test_tie_breaks_to_lower_row(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (None, Crisp(0.5)),
                (Crisp(0.3), Crisp(0.25)),
                (Crisp(0.9), Crisp(0.25)),
            ),
        )
        donors = impute(m, k=1).trace[CellRef(0, 0)]
        assert [d.row for d in donors] == [1]

    def test_target_must_be_missing(self, case1, case1_masked):
        # An observed cell never has a trace entry.
        assert CellRef(0, 0) not in impute(case1, k=1).trace
        assert set(impute(case1_masked, k=2).trace) == {CellRef(2, 2)}

    def test_k_must_be_positive(self, case1_masked):
        with pytest.raises(ValueError):
            impute(case1_masked, k=0)


class TestCombineCells:
    def test_worked_example_fuzzy_blend(self, case1):
        _, out = fill([case1.cells[0][2], case1.cells[1][2]], [0.2661, 0.0945])
        assert out.a1 == approx(0.3935, abs=1e-3)
        assert out.a2 == approx(0.5604, abs=1e-3)
        assert out.a3 == approx(0.7273, abs=1e-3)

    def test_single_donor_is_verbatim(self):
        t = FuzzyTFN(0.123, 0.456, 0.789)
        assert fill([t], [0.5])[1] is t

    def test_interval_midpoint(self):
        out = fill([Interval(0, 1), Interval(1, 3)], [0.5, 0.5])[1]
        assert out == Interval(0.5, 2.0)

    def test_identical_donors_return_exact_value(self):
        c = Crisp(0.1)
        out = fill([c, c, c], [0.3, 0.3, 0.3])[1]
        assert out.value == 0.1

    def test_kind_mismatch_rejected(self, case1):
        # Donors come from one column of a DataMatrix, which holds no cell
        # of another kind: putting one there is what fails.
        with pytest.raises(ValueError, match=r"^cell \(0,0\): Interval .* crisp$"):
            case1.with_cell(0, 0, Interval(0.0, 1.0))

    def test_overflowing_sum_clamped_into_donor_range(self):
        # Weights of two donors at distances sqrt(1/3) and sqrt(292299213049927/3):
        # they sum to just over 1, so the weighted sum rounds past the largest double.
        donors = [Crisp(_TOP), Crisp(1.7976931335875647e308)]
        weights, out = fill(donors, _PAST_TOP)
        assert weights == [0.99999994150939, 5.8490610119042095e-08]
        assert out == Crisp(_TOP)
        assert fill([Crisp(-c.value) for c in donors], _PAST_TOP)[1] == Crisp(-_TOP)

    @pytest.mark.parametrize(
        "distances, donors",
        [([1.0, 3.0, 7.0], None), ([0.5, 0.5, 2.0], None), ([1e-3, 1e300, 7.0], None),
         ([0.3, 1.0, math.inf], None), ([math.inf] * 3, None), ([1e-7, 3e-7, 1e-6], None),
         ([math.sqrt(8.614), math.sqrt(34.026)],
          [Interval(_TOP - _ULP, _TOP - _ULP), Interval(_TOP - 2 * _ULP, _TOP - _ULP)]),
         ([math.sqrt(8.614), math.sqrt(34.026)],
          [FuzzyTFN(*[_TOP - _ULP] * 3), FuzzyTFN(_TOP - 2 * _ULP, _TOP - 2 * _ULP, _TOP - _ULP)])],
        ids=[*(f"distances{i}" for i in range(6)), "interval-top-clamped", "fuzzy-top-clamped"],
    )
    def test_order_survives_donors_one_ulp_apart(self, distances, donors):
        # A filled cell's slots are set without its constructor's test, so
        # the weighted sums, and the clamp of a sum past the largest double,
        # must keep the donors' order at the largest doubles and among the
        # subnormals, where rounding may still carry them outside the
        # donors' range. Without ``donors``, each pair one ulp apart is tried.
        top = sys.float_info.max
        tiny = math.ulp(0.0)
        grids = [donors] if donors else [
            grid
            for a, b in [
                (math.nextafter(top, 0.0), top),
                (-top, math.nextafter(-top, 0.0)),
                (-tiny, 0.0),
                (0.0, tiny),
                (tiny, 2 * tiny),
                (-2 * tiny, tiny),
            ]
            for grid in [
                [Interval(a, b), Interval(b, b), Interval(a, a)],
                [Interval(a, a), Interval(a, b), Interval(b, b)],
                [FuzzyTFN(a, a, b), FuzzyTFN(a, b, b), FuzzyTFN(b, b, b)],
                [FuzzyTFN(a, a, a), FuzzyTFN(a, a, b), FuzzyTFN(a, b, b)],
            ]
        ]
        for grid in grids:
            parts = components(fill(grid, distances)[1])
            assert list(parts) == sorted(parts)

    @given(
        kind=st.sampled_from(list(ColumnKind)),
        data=st.data(),
        n=st.integers(1, 6),
    )
    def test_convex_combination_stays_in_donor_range(self, kind, data, n):
        cells = [data.draw(cell_values(kind)) for _ in range(n)]
        distances = [data.draw(st.floats(min_value=0.0, allow_nan=False)) for _ in range(n)]
        out = fill(cells, distances)[1]
        for position, value in enumerate(components(out)):
            donor_values = [components(c)[position] for c in cells]
            assert min(donor_values) - 1e-9 <= value <= max(donor_values) + 1e-9
        if isinstance(out, Interval):
            assert out.lower <= out.upper
        if isinstance(out, FuzzyTFN):
            assert out.a1 <= out.a2 <= out.a3

    def test_a_clamped_fill_keeps_its_finite_fields_in_donor_range(self):
        # The last sum passes the largest double, and the middle one, finite,
        # rounds past its donors' largest: the clamp takes every field.
        donors = [FuzzyTFN(1e308, _TOP - _ULP, _TOP), FuzzyTFN(-5e-324, _TOP - _ULP, _TOP - _ULP),
                  FuzzyTFN(-(_TOP - _ULP), -0.0, 1e308)]
        out = fill(donors, [7.132724776580624e-07, 8.739485663958117, math.inf])[1]
        for position, value in enumerate(components(out)):
            donor_values = [components(c)[position] for c in donors]
            assert min(donor_values) <= value <= max(donor_values)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(ColumnKind)),
    data=st.data(),
    distances=st.lists(
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-13, imputer.ZERO_DISTANCE_EPS, math.inf]),
                  st.floats(min_value=0.0, allow_nan=False)),
        min_size=1, max_size=6,
    ),
    same=st.booleans(),
)
@example(kind=ColumnKind.FUZZY, data=None, distances=_PAST_TOP, same=False)
@example(kind=ColumnKind.FUZZY, data=None, distances=_PAST_TOP[::-1], same=False)
@example(kind=ColumnKind.FUZZY, data=None, distances=[math.inf] * 3, same=False)
@example(kind=ColumnKind.FUZZY, data=None, distances=[1e-13, 0.0, 0.5], same=True)
def test_the_fill_step_matches_the_oracle_bit_for_bit(kind, data, distances, same):
    # Each kind's compiled step weights and combines a gap's donors in one call,
    # which must give the oracle's weights and cell to the last bit, and the
    # first donor itself when every donor is equal. The examples without drawn
    # donors take fuzzy cells at the largest doubles, whose sums overflow.
    if data is None:
        cells = [FuzzyTFN(_TOP, _TOP, _TOP), FuzzyTFN(*[1.7976931335875647e308] * 3),
                 FuzzyTFN(-_TOP, 0.0, _TOP)][:len(distances)]
    else:
        near_top = [_TOP, math.nextafter(_TOP, 0), _TOP - 2 * _ULP]
        parts = st.one_of(raw_reals(),
                          st.sampled_from([*near_top, *(-x for x in near_top), 5e-324]))
        cells = [data.draw(cell_values(kind, parts)) for _ in distances]
    if same:
        cells = [cells[0]] + [type(cells[0])(*components(cells[0])) for _ in cells[1:]]
    chosen = [(d, j) for j, d in enumerate(distances)]
    weights, cell = core._compiled(imputer._step, kind)([[c] for c in cells], 0, chosen)
    expected = bf_weights(distances)
    assert repr((weights, cell)) == repr((expected, bf_combine(cells, expected)))
    if all(c == cells[0] for c in cells):
        assert cell is cells[0]


class TestImpute:
    def test_worked_example_completion(self, case1, case1_masked):
        result = impute(case1_masked, k=2)
        filled = result.matrix.cells[2][2]
        assert filled.a1 == approx(0.3935, abs=1e-3)
        assert filled.a2 == approx(0.5604, abs=1e-3)
        assert filled.a3 == approx(0.7273, abs=1e-3)
        assert result.unimputable == ()
        assert set(result.trace) == {CellRef(2, 2)}
        # every other cell is untouched
        for i in range(3):
            for l in range(3):
                if (i, l) != (2, 2):
                    assert result.matrix.cells[i][l] == case1.cells[i][l]

    def test_complete_matrix_is_returned_unchanged(self, case1):
        result = impute(case1, k=3)
        assert result.matrix == case1
        assert result.trace == {}
        assert result.unimputable == ()

    def test_single_column_matrix_is_unimputable(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP,),
            cells=((Crisp(5.0),), (None,), (Crisp(5.0),)),
        )
        result = impute(m, k=2)
        assert result.unimputable == (CellRef(1, 0),)
        assert isinstance(result.matrix.cells[1][0], Missing)
        assert result.trace == {}

    def test_input_not_mutated(self, case1_masked):
        impute(case1_masked, k=2)
        assert isinstance(case1_masked.cells[2][2], Missing)

    def test_k_below_one_rejected(self, case1):
        with pytest.raises(ValueError):
            impute(case1, k=0)

    def test_donor_pool_frozen_during_pass(self):
        # (1,0)'s nearest donor by the *original* matrix is row 0 at distance
        # zero over their one shared observed column; if row 0's own gap had
        # been filled first and entered the pool, the distance would differ.
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (Crisp(1.0), Crisp(1.0), None),
                (None, Crisp(1.0), Crisp(2.0)),
                (Crisp(4.0), Crisp(1.0), Crisp(6.0)),
            ),
        )
        result = impute(m, k=1)
        assert result.matrix.cells[1][0] == Crisp(1.0)

    def test_rows_with_several_gaps_are_filled_per_cell(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (None, Crisp(0.5), None),
                (Crisp(0.1), Crisp(0.5), Crisp(0.9)),
                (Crisp(0.2), Crisp(0.6), Crisp(0.8)),
            ),
        )
        result = impute(m, k=2)
        assert result.unimputable == ()
        assert set(result.trace) == {CellRef(0, 0), CellRef(0, 2)}
        assert result.matrix.is_complete()

    def test_duplicate_row_recovered_verbatim(self):
        row = (Crisp(0.31), Interval(0.2, 0.4), FuzzyTFN(0.1, 0.5, 0.6))
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY),
            cells=(
                row,
                (Crisp(0.31), Interval(0.2, 0.4), None),
                (Crisp(0.9), Interval(0.5, 0.7), FuzzyTFN(0.2, 0.3, 0.9)),
            ),
        )
        result = impute(m, k=1)
        assert result.matrix.cells[1][2] == row[2]

    @pytest.mark.parametrize("bad_row", [0, 1], ids=["target", "donor"])
    def test_kind_mismatch_from_library_input_raises(self, bad_row):
        # A Crisp cell in an interval column, in a hand-built matrix: the
        # matrix refuses it by name before any imputation can start.
        rows = [
            [Interval(0.1, 0.2), None],
            [Interval(0.3, 0.4), Crisp(0.3)],
        ]
        rows[bad_row][0] = Crisp(0.5)
        with pytest.raises(
            ValueError,
            match=rf"^cell \({bad_row},0\): Crisp does not match column kind interval$",
        ):
            DataMatrix(
                schema=(ColumnKind.INTERVAL, ColumnKind.CRISP),
                cells=tuple(tuple(row) for row in rows),
            )


# -- randomized properties ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=2, max_rows=8), st.integers(1, 5))
def test_find_neighbors_agrees_with_bruteforce(m, k):
    result = impute(m, k)
    # `impute --trace` writes the trace in its own order, which is row-major.
    assert list(result.trace) == sorted(result.trace)
    for ref in missing_cells(m):
        ranked = bf_candidate_distances(m, ref.row, ref.col)
        if ref not in result.trace:
            assert ranked == [] and ref in result.unimputable
            continue
        donors = result.trace[ref]
        assert len(donors) == min(k, len(ranked))
        assert all(d.row != ref.row for d in donors)
        assert all(
            not isinstance(m.cells[d.row][ref.col], Missing) for d in donors
        )
        ordered = [d.distance for d in donors]
        assert ordered == sorted(ordered)
        assert sum(d.weight for d in donors) == approx(1.0, abs=1e-12)
        chosen = {d.row for d in donors}
        worst_chosen = max(d for d, j in ranked if j in chosen)
        best_skipped = min(
            (d for d, j in ranked if j not in chosen), default=float("inf")
        )
        assert worst_chosen <= best_skipped + 1e-9
        for donor in donors:
            (bf_d,) = [d for d, j in ranked if j == donor.row]
            assert donor.distance == approx(bf_d, rel=1e-9, abs=1e-12)
        bf_w = bf_weights([d.distance for d in donors])
        for donor, expected in zip(donors, bf_w):
            assert donor.weight == approx(expected, rel=1e-9, abs=1e-12)
        gaps = [
            abs(a - b) for (a, _), (b, _) in zip(ranked, ranked[1:])
        ]
        if all(g > 1e-9 for g in gaps):
            assert [d.row for d in donors] == [j for _, j in ranked[:k]]


def assert_matches_oracle(m, k):
    # One selection pass per target row, shared by the row's gaps and
    # cutting rows short, must select exactly what a per-cell brute force
    # selects, and fill the cell with its value, to the last bit (float.hex,
    # since a cell's == takes -0.0 for 0.0).
    result = impute(m, k)
    for ref in missing_cells(m):
        ranked = bf_candidate_distances(m, ref.row, ref.col)[:k]
        if ranked:
            donors = result.trace[ref]
            weights = bf_weights([d for d, _ in ranked])
            assert [(d.distance, d.row) for d in donors] == ranked
            assert [d.weight for d in donors] == weights
            filled = result.matrix.cells[ref.row][ref.col]
            expected = bf_combine([m.cells[j][ref.col] for _, j in ranked], weights)
            assert type(filled) is type(expected)
            assert [*map(float.hex, components(filled))] == [
                *map(float.hex, components(expected))]
        else:
            assert ref not in result.trace
            assert ref in result.unimputable


# The oracle properties report the first table that fails, unshrunk: on a
# kernel that drops rows it should keep, shrinking took 70 s of a 124 s
# failing run on the 8-row tables, and the 40-row ones ran past 400 s, where
# finding a failure takes a few seconds.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(matrices(min_rows=2, max_rows=8), st.integers(1, 5))
def test_impute_matches_oracle_bit_for_bit(m, k):
    assert_matches_oracle(m, k)


# Tables tall enough that the k nearest fill up early and later rows are cut
# short: raw full-range floats, the extremes of the float range (subnormal,
# tiny, huge and largest finite), and few values, so that rows tie.
EXTREMES = [0.0, 5e-324, -5e-324, 1e-310, 2.0**-1000, 1e-160, 1.0, 1e150,
            1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(matrices(min_rows=2, max_rows=40, elements=raw_reals()), st.integers(1, 5))
def test_tall_tables_of_raw_floats_match_oracle_bit_for_bit(m, k):
    assert_matches_oracle(m, k)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(
    matrices(min_rows=2, max_rows=40, elements=st.sampled_from(EXTREMES)),
    st.integers(1, 5),
)
def test_tall_tables_at_the_extremes_match_oracle_bit_for_bit(m, k):
    assert_matches_oracle(m, k)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(
    matrices(min_rows=2, max_rows=40, elements=st.sampled_from([0.0, 1.0, 2.0])),
    st.integers(1, 5),
)
def test_tall_tables_full_of_ties_match_oracle_bit_for_bit(m, k):
    assert_matches_oracle(m, k)


def counted_cells(counter: list):
    """Subclasses of the three cell classes, by the class they extend, that
    add 1 to ``counter[0]`` at each read of one field (``value``, ``lower`` or
    ``a1``). A cell distance reads that field of each of its two cells once."""

    def counted(cls, field):
        slot = getattr(cls, field)

        def read(cell):
            counter[0] += 1
            return slot.__get__(cell)

        return type(cls.__name__, (cls,), {"__slots__": (), field: property(read, slot.__set__)})

    return {Crisp: counted(Crisp, "value"), Interval: counted(Interval, "lower"),
            FuzzyTFN: counted(FuzzyTFN, "a1")}


def test_rows_that_cannot_be_nearest_are_cut_short(monkeypatch):
    # Selection must stop summing a row once it cannot be among the k
    # nearest, so it evaluates fewer cell distances than a full pass over
    # every candidate row's shared columns would.
    plain = seeded_table(200, 6, seed=19, gap_rate=0.15)
    reads = [0]
    classes = counted_cells(reads)
    rows = [tuple(a if a is None else classes[type(a)](*components(a)) for a in row)
            for row in plain.cells]
    m = DataMatrix(plain.schema, rows)
    full = 0
    for i, row in enumerate(rows):
        gaps = [l for l, a in enumerate(row) if a is None]
        for j, other in enumerate(rows):
            if j != i and any(other[l] is not None for l in gaps):
                full += sum(a is not None and b is not None for a, b in zip(row, other))
    evaluated = 0

    def counting(nearest):
        def pass_(cells, i, *args):
            # The target row's own fields are read once a pass; every other
            # read of the field is a donor's, one per evaluation.
            nonlocal evaluated
            before = reads[0]
            result = nearest(cells, i, *args)
            evaluated += reads[0] - before - sum(a is not None for a in cells[i])
            return result

        return pass_

    wrap_kernels(monkeypatch, counting)
    assert impute(m, 5).trace == impute(plain, 5).trace
    # A pass with no cut evaluates all of ``full``; this one about 73%.
    assert 0 < evaluated < 0.8 * full


def wrap_kernels(monkeypatch, wrap):
    """Make the fill step run ``wrap(kernel)`` in place of each schema's kernel."""
    wrapped = functools.cache(lambda write, key: wrap(core._compiled(write, key))
                              if write is distances._kernel else core._compiled(write, key))
    monkeypatch.setattr(imputer, "_compiled", wrapped)


# -- one selection kernel per schema -----------------------------------------


def test_a_column_name_never_reaches_a_kernel(compiles):
    m = seeded_table(30, 3, seed=3, gap_rate=0.2)
    hostile = DataMatrix(m.schema, m.cells, ["x\nimport os", '"""', "'''\nos.abort()"])
    traces = []
    for matrix in (m, hostile):
        core._compiled.cache_clear()
        traces.append(impute(matrix, 3).trace)
    assert len(compiles) == 8  # the kernel and three kinds' fill steps, twice
    assert compiles[4:] == compiles[:4]
    assert traces[1] == traces[0]
    assert not any("import" in source or "os." in source for source in compiles)


def test_a_schema_gets_one_kernel(compiles):
    complete = seeded_table(30, 4, seed=4, gap_rate=0.0)
    narrow = seeded_table(30, 3, seed=4, gap_rate=0.2)
    for _ in range(2):
        impute(complete.with_cell(0, 1, None).with_cell(5, 2, None), 3)
        impute(narrow, 3)
        evaluation.benchmark(complete, [1, 2], [1, 2], 3, 0)
    kernels = [distances._kernel(complete.schema), distances._kernel(narrow.schema)]
    steps = [imputer._step(kind) for kind in ColumnKind]  # one per kind, not per schema
    cells = [distances._cell_distance(kind) for kind in ColumnKind]  # that score the benchmark
    # The first table's gaps are an interval and a fuzzy cell, so narrow's compile the crisp step.
    assert compiles == [kernels[0], *steps[1:], kernels[1], steps[0], *cells]


def test_impute_compiles_only_the_steps_of_its_gaps_kinds(compiles):
    complete = seeded_table(30, 4, seed=4, gap_rate=0.0)
    impute(complete, 3)
    impute(complete.with_cell(2, 3, None).with_cell(9, 0, None), 3)  # both columns crisp
    assert compiles == [distances._kernel(complete.schema), imputer._step(ColumnKind.CRISP)]


def test_a_gap_without_donors_never_reaches_its_step(monkeypatch):
    # So no step has to answer for an empty donor list.
    m = DataMatrix((ColumnKind.CRISP, ColumnKind.CRISP),
                   ((Crisp(1.0), Crisp(2.0)), (None, None), (Crisp(3.0), Crisp(4.0)),
                    (None, Crisp(5.0))))
    donor_lists = []

    def logged(write, key):
        compiled = core._compiled(write, key)
        if write is not imputer._step:
            return compiled

        def step(cells, col, chosen):
            donor_lists.append(chosen)
            return compiled(cells, col, chosen)
        return step

    monkeypatch.setattr(imputer, "_compiled", logged)
    result = impute(m, 2)
    assert result.unimputable == (CellRef(1, 0), CellRef(1, 1))
    assert list(result.trace) == [(3, 0)]
    assert len(donor_lists) == 1 and all(donor_lists)


def test_impute_reads_the_kernel_cache_once_per_call(dense_matrix, monkeypatch):
    # Not once per target row or cell: the kernel once, and each column's fill step.
    expected, reads = impute(dense_matrix, 5), []

    def counted(write, key):
        reads.append((write, key))
        return core._compiled(write, key)

    monkeypatch.setattr(imputer, "_compiled", counted)
    assert impute(dense_matrix, 5) == expected
    assert reads == [(distances._kernel, dense_matrix.schema),
                     *((imputer._step, kind) for kind in dense_matrix.schema)]


def test_a_warm_kernel_lookup_makes_no_python_call():
    # The cache is C, and ColumnKind hashes in C, so looking a schema's kernel up
    # runs no Enum.__hash__ and no other Python-level call.
    schema = fixture("case2").schema
    core._compiled(distances._kernel, schema)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        core._compiled(distances._kernel, schema)
    finally:
        sys.setprofile(None)
    assert calls == []


# -- everything in one process and one thread ----------------------------------


def test_a_dense_table_is_imputed_in_this_process(dense_matrix, one_process):
    assert_matches_oracle(dense_matrix, 5)


def test_two_gaps_in_a_tall_table_are_filled_in_this_process(tall_text, one_process):
    m = parse(tall_text).with_cell(7, 1, None).with_cell(2900, 4, None)
    assert set(impute(m, 5).trace) == {(7, 1), (2900, 4)}
    assert_matches_oracle(m, 5)


@pytest.mark.parametrize("rows, cols", [(30, 8), (250, 2)])
def test_few_target_rows_of_a_small_table_are_filled_in_this_process(one_process, rows, cols):
    m = seeded_table(rows, cols, seed=30, gap_rate=0.0)
    for i in range(24):
        m = m.with_cell(i, i % cols, None)
    assert len(impute(m, 5).trace) == 24
    assert_matches_oracle(m, 5)


@pytest.mark.parametrize("passes", [2, 80])
def test_impute_and_benchmark_run_in_this_process(one_process, passes):
    # One gap in each of ``passes`` rows of 110 x 4 cells, and a benchmark of
    # two distinct imputations that mask ``passes`` cells in all. Each trial's
    # error is that of the completed matrix of its masked table.
    m = seeded_table(110, 4, seed=8, gap_rate=0.0)
    gapped = m
    for i in range(passes):
        gapped = gapped.with_cell(i, i % 4, None)
    assert set(impute(gapped, 5).trace) == set(missing_cells(gapped))
    half = passes // 2 - 1
    report = evaluation.benchmark(m, [3], [half, passes - half], 1, 0)
    assert len(report.trials) == 2
    for rec in report.trials:
        masked, _ = evaluation.mask_random(m, rec.missing_count,
                                           evaluation.derive_trial_seed(0, 3, rec.missing_count, 0))
        assert rec.error == evaluation.matrix_error(m, impute(masked, 3).matrix)


@pytest.mark.parametrize("target", ["dense", "tall"])
def test_selection_makes_one_pass_per_target_row(dense_matrix, tall_text, monkeypatch, target):
    # In row-major order, whatever the count of the row's gaps.
    m = dense_matrix if target == "dense" else (
        parse(tall_text).with_cell(7, 1, None).with_cell(7, 4, None).with_cell(2900, 4, None))
    rows = []

    def logged(nearest):
        def pass_(cells, i, *args):
            rows.append(i)
            return nearest(cells, i, *args)

        return pass_

    wrap_kernels(monkeypatch, logged)
    impute(m, 5)
    assert rows == list(dict.fromkeys(ref.row for ref in missing_cells(m)))
    assert len(rows) < len(missing_cells(m))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, MemoryError])
@pytest.mark.parametrize("where", ["pass", "compile"])
def test_an_exception_in_selection_reaches_the_caller(dense_matrix, one_process, where, error):
    # The third selection pass, or the kernel's compile, raises: the exception
    # ends the call as it is, and the next call, with nothing failing, is whole.
    expected, passes = impute(dense_matrix, 5), []
    with pytest.MonkeyPatch.context() as mp:
        if where == "pass":
            def failing(nearest):
                def pass_(*args):
                    passes.append(args[1])
                    if len(passes) == 3:
                        raise error("stop")
                    return nearest(*args)

                return pass_

            wrap_kernels(mp, failing)
        else:
            def failing(source, namespace):
                raise error("stop")

            core._compiled.cache_clear()
            mp.setattr(core, "exec", failing, raising=False)
        with pytest.raises(error, match="stop"):
            impute(dense_matrix, 5)
    assert len(passes) == (3 if where == "pass" else 0)
    assert impute(dense_matrix, 5) == expected


def test_an_impute_inside_a_pass_leaves_both_whole(dense_matrix, monkeypatch):
    # The fill step keeps no state between calls, so a call made while
    # another is between two of its passes gives each its own result.
    inner = seeded_table(30, 3, seed=3, gap_rate=0.2)
    expected, expected_inner, nested = impute(dense_matrix, 5), impute(inner, 3), []

    def nesting(nearest):
        def pass_(*args):
            if not nested:
                nested.append(None)
                nested[0] = impute(inner, 3)
            return nearest(*args)

        return pass_

    wrap_kernels(monkeypatch, nesting)
    assert impute(dense_matrix, 5) == expected
    assert nested == [expected_inner]


def test_the_fill_step_keeps_its_default_lists_empty(dense_matrix):
    # impute passes no lists, and a benchmark that lists rows leaves none behind.
    m = seeded_table(60, 8, seed=60, gap_rate=0.0)
    evaluation.benchmark(m, range(1, 6), range(1, 5), 2, 1)
    assert imputer._fill.__defaults__ == ({},)
    impute(dense_matrix, 5)
    assert imputer._fill.__defaults__ == ({},)


def test_selection_beside_a_live_thread_gives_the_same_result(dense_matrix):
    expected = impute(dense_matrix, 5)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            refuse_other_processes(mp)
            assert impute(dense_matrix, 5) == expected
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_selection_beside_an_os_thread_warns_nothing(dense_matrix):
    # faulthandler's watchdog is an OS thread that threading does not list; a
    # fork beside it would warn on Python 3.12 and later.
    expected = impute(dense_matrix, 5)
    tasks = "/proc/self/task"
    before = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    faulthandler.dump_traceback_later(600)
    try:
        if before is not None:
            assert len(os.listdir(tasks)) == before + 1
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            refuse_other_processes(mp)
            assert impute(dense_matrix, 5) == expected
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_threads_that_impute_at_once_get_the_serial_result(dense_matrix):
    # Two threads, switching often, each compile the kernel on first use and select.
    expected = impute(dense_matrix, 5)
    core._compiled.cache_clear()
    start, results = threading.Barrier(2), []

    def run():
        start.wait()
        results.append(impute(dense_matrix, 5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected, expected]


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=2), st.integers(1, 4))
def test_impute_results_are_valid_and_deterministic(m, k):
    first = impute(m, k)
    second = impute(m, k)
    assert first == second
    assert parse(serialize(first.matrix)) == first.matrix
    originally_missing = set(missing_cells(m))
    assert set(first.trace) | set(first.unimputable) == originally_missing
    assert set(first.trace) & set(first.unimputable) == set()
    assert first.unimputable == tuple(missing_cells(first.matrix))


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=2))
def test_k1_copies_nearest_donor_verbatim(m):
    result = impute(m, k=1)
    for ref, donors in result.trace.items():
        donor = donors[0]
        assert donor.weight == 1.0
        assert result.matrix.cells[ref.row][ref.col] == m.cells[donor.row][ref.col]


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=2), st.integers(1, 4))
def test_imputed_components_stay_in_donor_hull(m, k):
    result = impute(m, k)
    for ref, donors in result.trace.items():
        filled = components(result.matrix.cells[ref.row][ref.col])
        donor_cells = [m.cells[d.row][ref.col] for d in donors]
        for position, value in enumerate(filled):
            donor_values = [components(c)[position] for c in donor_cells]
            assert min(donor_values) - 1e-9 <= value <= max(donor_values) + 1e-9


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=2), st.integers(1, 4))
def test_second_pass_is_identity_when_first_pass_completes(m, k):
    first = impute(m, k)
    assume(not first.unimputable)
    second = impute(first.matrix, k)
    assert second.matrix == first.matrix
    assert second.trace == {}


@settings(max_examples=300, deadline=None)
@given(matrices(elements=raw_reals(), min_rows=2), st.integers(1, 4))
def test_impute_over_the_full_float_range(m, k):
    # Distances and weighted sums may overflow; every filled value stays a
    # finite cell that typed CSV can carry.
    result = impute(m, k)
    for i, l in result.trace:
        assert all(map(math.isfinite, components(result.matrix.cells[i][l])))
    assert parse(serialize(result.matrix)) == result.matrix
