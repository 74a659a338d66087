import math
import sys

import pytest
from hypothesis import assume, given, settings
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
    missing_cells,
)
from hetimpute.imputer import (
    combine_cells,
    impute,
    neighbor_weights,
)
from hetimpute.typed_csv import parse, serialize

from oracle import bf_candidate_distances, bf_weights
from strategies import cell_values, matrices, raw_reals

approx = pytest.approx


class TestNeighborWeights:
    def test_worked_example_pair(self):
        w = neighbor_weights([0.2661, 0.0945])
        assert w[0] == approx(0.2620, abs=1e-3)
        assert w[1] == approx(0.7380, abs=1e-3)

    def test_equal_distances_split_evenly(self):
        assert neighbor_weights([0.37, 0.37]) == [0.5, 0.5]

    def test_zero_distance_takes_all(self):
        assert neighbor_weights([0.0, 0.3]) == [1.0, 0.0]

    def test_tied_zero_distances_share(self):
        assert neighbor_weights([0.0, 0.0, 0.3]) == [0.5, 0.5, 0.0]

    def test_near_zero_counts_as_zero(self):
        assert neighbor_weights([1e-13, 0.3]) == [1.0, 0.0]

    def test_all_infinite_distances_share(self):
        distances = [math.inf, math.inf]
        assert neighbor_weights(distances) == bf_weights(distances) == [0.5, 0.5]

    def test_infinite_distance_among_finite_gets_nothing(self):
        assert neighbor_weights([0.5, math.inf]) == [1.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            neighbor_weights([])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    def test_weights_normalized(self, distances):
        w = neighbor_weights(distances)
        assert len(w) == len(distances)
        assert all(0.0 <= x <= 1.0 for x in w)
        assert sum(w) == approx(1.0, abs=1e-12)


class TestFindNeighbors:
    """A cell's donors, as ``impute`` records them in its trace."""

    def test_worked_example(self, case1_masked):
        ns = impute(case1_masked, k=2).trace[CellRef(2, 2)]
        assert [d.row for d in ns.donors] == [1, 0]
        assert ns.donors[0].distance == approx(0.0945, abs=5e-4)
        assert ns.donors[1].distance == approx(0.2661, abs=5e-4)
        assert ns.donors[0].weight == approx(0.7380, abs=1e-3)
        assert ns.donors[1].weight == approx(0.2620, abs=1e-3)

    def test_single_candidate_gets_full_weight(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (Crisp(0.2), MISSING),
                (Crisp(0.3), Crisp(0.4)),
                (Crisp(0.9), MISSING),
            ),
        )
        ns = impute(m, k=3).trace[CellRef(0, 1)]
        assert len(ns.donors) == 1
        assert ns.donors[0].row == 1
        assert ns.donors[0].weight == 1.0

    def test_no_shared_columns_gives_empty_set(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=((MISSING, MISSING), (Crisp(1.0), Crisp(2.0))),
        )
        result = impute(m, k=1)
        assert CellRef(0, 0) not in result.trace
        assert CellRef(0, 0) in result.unimputable

    def test_tie_breaks_to_lower_row(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (MISSING, Crisp(0.5)),
                (Crisp(0.3), Crisp(0.25)),
                (Crisp(0.9), Crisp(0.25)),
            ),
        )
        ns = impute(m, k=1).trace[CellRef(0, 0)]
        assert [d.row for d in ns.donors] == [1]

    def test_target_must_be_missing(self, case1, case1_masked):
        # An observed cell never has a trace entry.
        assert CellRef(0, 0) not in impute(case1, k=1).trace
        assert set(impute(case1_masked, k=2).trace) == {CellRef(2, 2)}

    def test_k_must_be_positive(self, case1_masked):
        with pytest.raises(ValueError):
            impute(case1_masked, k=0)


class TestCombineCells:
    def test_worked_example_fuzzy_blend(self, case1):
        donors = [
            (case1.cell(0, 2), 0.2620),
            (case1.cell(1, 2), 0.7380),
        ]
        out = combine_cells(donors)
        assert out.a1 == approx(0.3935, abs=1e-3)
        assert out.a2 == approx(0.5604, abs=1e-3)
        assert out.a3 == approx(0.7273, abs=1e-3)

    def test_single_donor_is_verbatim(self):
        t = FuzzyTFN(0.123, 0.456, 0.789)
        assert combine_cells([(t, 1.0)]) == t

    def test_interval_midpoint(self):
        out = combine_cells([(Interval(0, 1), 0.5), (Interval(1, 3), 0.5)])
        assert out == Interval(0.5, 2.0)

    def test_identical_donors_return_exact_value(self):
        c = Crisp(0.1)
        out = combine_cells([(c, 1 / 3), (c, 1 / 3), (c, 1 / 3)])
        assert out.value == 0.1

    def test_kind_mismatch_rejected(self, case1):
        # Donors come from one column of a DataMatrix, which holds no cell
        # of another kind: putting one there is what fails.
        with pytest.raises(ValueError, match=r"^cell \(0,0\): Interval .* crisp$"):
            case1.with_cell(0, 0, Interval(0.0, 1.0))

    def test_overflowing_sum_clamped_into_donor_range(self):
        # Weights of two donors at distances sqrt(1/3) and sqrt(292299213049927/3):
        # they sum to just over 1, so the weighted sum rounds past the largest double.
        top = sys.float_info.max
        donors = [(Crisp(top), 0.99999994150939),
                  (Crisp(1.7976931335875647e308), 5.8490610119042095e-08)]
        assert combine_cells(donors) == Crisp(top)
        low = [(Crisp(-value.value), w) for value, w in donors]
        assert combine_cells(low) == Crisp(-top)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_cells([])

    @pytest.mark.parametrize(
        "distances",
        [[1.0, 3.0, 7.0], [0.5, 0.5, 2.0], [1e-3, 1e300, 7.0], [0.3, 1.0, math.inf],
         [math.inf] * 3, [1e-7, 3e-7, 1e-6]],
    )
    def test_order_survives_donors_one_ulp_apart(self, distances):
        # A filled cell is built through its constructor, which refuses
        # components out of order: the weighted sums must keep the donors'
        # order at the largest doubles and among the subnormals, where
        # rounding may still carry them outside the donors' range.
        top = sys.float_info.max
        tiny = math.ulp(0.0)
        weights = neighbor_weights(distances)
        for a, b in [
            (math.nextafter(top, 0.0), top),
            (-top, math.nextafter(-top, 0.0)),
            (-tiny, 0.0),
            (0.0, tiny),
            (tiny, 2 * tiny),
            (-2 * tiny, tiny),
        ]:
            for donors in [
                [Interval(a, b), Interval(b, b), Interval(a, a)],
                [Interval(a, a), Interval(a, b), Interval(b, b)],
                [FuzzyTFN(a, a, b), FuzzyTFN(a, b, b), FuzzyTFN(b, b, b)],
                [FuzzyTFN(a, a, a), FuzzyTFN(a, a, b), FuzzyTFN(a, b, b)],
            ]:
                parts = components(combine_cells(list(zip(donors, weights))))
                assert list(parts) == sorted(parts)

    @given(
        kind=st.sampled_from(list(ColumnKind)),
        data=st.data(),
        n=st.integers(1, 6),
    )
    def test_convex_combination_stays_in_donor_range(self, kind, data, n):
        cells = [data.draw(cell_values(kind)) for _ in range(n)]
        raw = [data.draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(n)]
        weights = [r / sum(raw) for r in raw]
        out = combine_cells(list(zip(cells, weights)))
        for position, value in enumerate(components(out)):
            donor_values = [components(c)[position] for c in cells]
            assert min(donor_values) - 1e-9 <= value <= max(donor_values) + 1e-9
        if isinstance(out, Interval):
            assert out.lower <= out.upper
        if isinstance(out, FuzzyTFN):
            assert out.a1 <= out.a2 <= out.a3


class TestImpute:
    def test_worked_example_completion(self, case1, case1_masked):
        result = impute(case1_masked, k=2)
        filled = result.matrix.cell(2, 2)
        assert filled.a1 == approx(0.3935, abs=1e-3)
        assert filled.a2 == approx(0.5604, abs=1e-3)
        assert filled.a3 == approx(0.7273, abs=1e-3)
        assert result.unimputable == ()
        assert set(result.trace) == {CellRef(2, 2)}
        # every other cell is untouched
        for i in range(3):
            for l in range(3):
                if (i, l) != (2, 2):
                    assert result.matrix.cell(i, l) == case1.cell(i, l)

    def test_complete_matrix_is_returned_unchanged(self, case1):
        result = impute(case1, k=3)
        assert result.matrix == case1
        assert result.trace == {}
        assert result.unimputable == ()

    def test_single_column_matrix_is_unimputable(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP,),
            cells=((Crisp(5.0),), (MISSING,), (Crisp(5.0),)),
        )
        result = impute(m, k=2)
        assert result.unimputable == (CellRef(1, 0),)
        assert isinstance(result.matrix.cell(1, 0), Missing)
        assert result.trace == {}

    def test_input_not_mutated(self, case1_masked):
        impute(case1_masked, k=2)
        assert isinstance(case1_masked.cell(2, 2), Missing)

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
                (Crisp(1.0), Crisp(1.0), MISSING),
                (MISSING, Crisp(1.0), Crisp(2.0)),
                (Crisp(4.0), Crisp(1.0), Crisp(6.0)),
            ),
        )
        result = impute(m, k=1)
        assert result.matrix.cell(1, 0) == Crisp(1.0)

    def test_rows_with_several_gaps_are_filled_per_cell(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.CRISP, ColumnKind.CRISP),
            cells=(
                (MISSING, Crisp(0.5), MISSING),
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
                (Crisp(0.31), Interval(0.2, 0.4), MISSING),
                (Crisp(0.9), Interval(0.5, 0.7), FuzzyTFN(0.2, 0.3, 0.9)),
            ),
        )
        result = impute(m, k=1)
        assert result.matrix.cell(1, 2) == row[2]

    @pytest.mark.parametrize("bad_row", [0, 1], ids=["target", "donor"])
    def test_kind_mismatch_from_library_input_raises(self, bad_row):
        # A Crisp cell in an interval column, in a hand-built matrix: the
        # matrix refuses it by name before any imputation can start.
        rows = [
            [Interval(0.1, 0.2), MISSING],
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
    for ref in missing_cells(m):
        ranked = bf_candidate_distances(m, ref.row, ref.col)
        if ref not in result.trace:
            assert ranked == [] and ref in result.unimputable
            continue
        ns = result.trace[ref]
        assert len(ns.donors) == min(k, len(ranked))
        assert all(d.row != ref.row for d in ns.donors)
        assert all(
            not isinstance(m.cell(d.row, ref.col), Missing) for d in ns.donors
        )
        ordered = [d.distance for d in ns.donors]
        assert ordered == sorted(ordered)
        assert sum(d.weight for d in ns.donors) == approx(1.0, abs=1e-12)
        chosen = {d.row for d in ns.donors}
        worst_chosen = max(d for d, j in ranked if j in chosen)
        best_skipped = min(
            (d for d, j in ranked if j not in chosen), default=float("inf")
        )
        assert worst_chosen <= best_skipped + 1e-9
        for donor in ns.donors:
            (bf_d,) = [d for d, j in ranked if j == donor.row]
            assert donor.distance == approx(bf_d, rel=1e-9, abs=1e-12)
        bf_w = bf_weights([d.distance for d in ns.donors])
        for donor, expected in zip(ns.donors, bf_w):
            assert donor.weight == approx(expected, rel=1e-9, abs=1e-12)
        gaps = [
            abs(a - b) for (a, _), (b, _) in zip(ranked, ranked[1:])
        ]
        if all(g > 1e-9 for g in gaps):
            assert [d.row for d in ns.donors] == [j for _, j in ranked[:k]]


@settings(max_examples=150, deadline=None)
@given(matrices(min_rows=2, max_rows=8), st.integers(1, 5))
def test_impute_matches_oracle_bit_for_bit(m, k):
    # One distance vector per target row, shared by the row's gaps, must
    # select exactly what a per-cell brute force selects, to the last bit.
    result = impute(m, k)
    for ref in missing_cells(m):
        ranked = bf_candidate_distances(m, ref.row, ref.col)[:k]
        if ranked:
            ns = result.trace[ref]
            assert [(d.distance, d.row) for d in ns.donors] == ranked
            assert [d.weight for d in ns.donors] == bf_weights([d for d, _ in ranked])
        else:
            assert ref not in result.trace
            assert ref in result.unimputable


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
    for ref, ns in result.trace.items():
        donor = ns.donors[0]
        assert donor.weight == 1.0
        assert result.matrix.cell(ref.row, ref.col) == m.cell(donor.row, ref.col)


@settings(max_examples=100, deadline=None)
@given(matrices(min_rows=2), st.integers(1, 4))
def test_imputed_components_stay_in_donor_hull(m, k):
    result = impute(m, k)
    for ref, ns in result.trace.items():
        filled = components(result.matrix.cell(ref.row, ref.col))
        donor_cells = [m.cell(d.row, ref.col) for d in ns.donors]
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
    for ref in result.trace:
        assert all(map(math.isfinite, components(result.matrix.cell(ref.row, ref.col))))
    assert parse(serialize(result.matrix)) == result.matrix
