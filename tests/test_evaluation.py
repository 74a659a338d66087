import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetimpute import distances, evaluation
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
)
from hetimpute.evaluation import (
    benchmark,
    derive_trial_seed,
    mask_random,
    matrix_error,
    summarize,
)
from hetimpute.distances import cell_distance
from hetimpute.fixtures import fixture
from hetimpute.imputer import impute

from oracle import bf_candidate_distances, bf_cell_distance, bf_weights
from strategies import complete_matrices, raw_reals

approx = pytest.approx


class TestMaskRandom:
    def test_zero_count_is_identity(self, case1):
        masked, refs = mask_random(case1, 0, seed=11)
        assert masked == case1
        assert refs == ()

    def test_full_count_hits_every_row_once(self, case1):
        masked, refs = mask_random(case1, 3, seed=5)
        assert sorted(ref.row for ref in refs) == [0, 1, 2]
        assert sum(
            1 for row in masked.cells for c in row if isinstance(c, Missing)
        ) == 3

    def test_same_seed_same_pattern(self, case1):
        first = mask_random(case1, 2, seed=99)
        second = mask_random(case1, 2, seed=99)
        assert first == second

    def test_refs_sorted_and_marked_missing(self, case1):
        masked, refs = mask_random(case1, 3, seed=3)
        assert list(refs) == sorted(refs)
        for ref in refs:
            assert isinstance(masked.cell(ref.row, ref.col), Missing)
            assert not isinstance(case1.cell(ref.row, ref.col), Missing)

    def test_count_above_rows_rejected(self, case1):
        with pytest.raises(ValueError):
            mask_random(case1, 4, seed=0)

    def test_negative_count_rejected(self, case1):
        with pytest.raises(ValueError):
            mask_random(case1, -1, seed=0)

    def test_incomplete_matrix_rejected(self, case1_masked):
        with pytest.raises(ValueError):
            mask_random(case1_masked, 1, seed=0)


class TestCellError:
    """The error of one imputed cell is its distance to the true value."""

    def test_identical_cells(self):
        assert cell_distance(Crisp(0.4), Crisp(0.4), ColumnKind.CRISP) == 0.0

    def test_worked_example_fuzzy_pair(self):
        original = FuzzyTFN(0.491539, 0.573462, 0.655386)
        imputed = FuzzyTFN(0.393517, 0.560418, 0.727318)
        assert cell_distance(original, imputed, ColumnKind.FUZZY) == approx(
            0.061000, abs=1e-3
        )

    def test_crisp_pair(self):
        assert cell_distance(Crisp(0.5), Crisp(0.3), ColumnKind.CRISP) == approx(0.2)

    def test_missing_operand_rejected(self):
        with pytest.raises(ValueError):
            cell_distance(MISSING, Crisp(0.1), ColumnKind.CRISP)


class TestMatrixError:
    def test_identity(self, case1):
        assert matrix_error(case1, case1) == 0.0

    def test_single_cell_error_spread_over_grid(self, case1, case1_masked):
        completed = impute(case1_masked, k=2).matrix
        single = cell_distance(case1.cell(2, 2), completed.cell(2, 2), ColumnKind.FUZZY)
        assert matrix_error(case1, completed) == approx(single / 9, rel=1e-12)
        assert matrix_error(case1, completed) == approx(0.006778, abs=1e-4)

    def test_shape_mismatch_rejected(self, case1):
        other = fixture("case3")
        with pytest.raises(ValueError):
            matrix_error(case1, other)

    def test_restoring_a_cell_never_increases_error(self, case1, case1_masked):
        completed = impute(case1_masked, k=2).matrix
        restored = completed.with_cell(2, 2, case1.cell(2, 2))
        assert matrix_error(case1, restored) <= matrix_error(case1, completed)


class TestSummarize:
    def test_single_sample(self):
        s = summarize([0.4])
        assert (s.min, s.q1, s.median, s.q3, s.max, s.mean) == (
            0.4,
            0.4,
            0.4,
            0.4,
            0.4,
            0.4,
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_infinite_samples_give_inf_not_nan(self):
        s = summarize([math.inf])
        assert (s.min, s.q1, s.median, s.q3, s.max, s.mean) == (math.inf,) * 6
        assert summarize([1.0, math.inf, math.inf]).median == math.inf

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_against_numpy_quantiles(self, values):
        s = summarize(values)
        assert s.min == min(values)
        assert s.max == max(values)
        assert s.q1 == approx(float(np.quantile(values, 0.25)), rel=1e-12, abs=1e-12)
        assert s.median == approx(float(np.quantile(values, 0.5)), rel=1e-12, abs=1e-12)
        assert s.q3 == approx(float(np.quantile(values, 0.75)), rel=1e-12, abs=1e-12)
        assert s.mean == approx(float(np.mean(values)), rel=1e-12, abs=1e-12)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_quartiles_ordered(self, values):
        s = summarize(values)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


class TestBenchmark:
    def test_zero_masking_gives_zero_error(self, case1):
        report = benchmark(case1, k_values=[1, 2], missing_counts=[0], trials=3, seed=4)
        assert [rec.error for rec in report.trials] == [0.0] * 6

    def test_deterministic(self, case1):
        first = benchmark(case1, [1, 2], [1, 2], trials=10, seed=21)
        second = benchmark(case1, [1, 2], [1, 2], trials=10, seed=21)
        assert first == second

    def test_identical_rows_always_recovered(self):
        row = (Crisp(0.3), Interval(0.2, 0.5), FuzzyTFN(0.1, 0.2, 0.4))
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY),
            cells=tuple(row for _ in range(6)),
        )
        report = benchmark(m, k_values=[1, 2, 3, 5], missing_counts=[1, 3], trials=8, seed=0)
        assert len(report.trials) == 4 * 2 * 8
        assert {rec.error for rec in report.trials} == {0.0}

    def test_unimputable_trials_flagged_and_excluded(self):
        m = DataMatrix(
            schema=(ColumnKind.CRISP,),
            cells=((Crisp(1.0),), (Crisp(2.0),), (Crisp(3.0),)),
        )
        report = benchmark(m, k_values=[1], missing_counts=[1], trials=5, seed=8)
        assert len(report.trials) == 5
        assert all(rec.error is None for rec in report.trials)
        assert 1 not in report.k_summaries

    def test_summaries_recomputable_from_samples(self, case1):
        report = benchmark(case1, [1, 2], [1, 2, 3], trials=12, seed=13)
        for k in (1, 2):
            for count in (1, 2, 3):
                key = [r for r in report.trials if (r.k, r.missing_count) == (k, count)]
                assert [r.trial for r in key] == list(range(12))
            pooled = [r.error for r in report.trials if r.k == k and r.error is not None]
            assert report.k_summaries[k] == summarize(pooled)
        errors = [r.error for r in report.trials if r.error is not None]
        assert errors and all(e >= 0.0 for e in errors)

    def test_trial_records_cover_grid(self, case1):
        report = benchmark(case1, [1], [0, 1], trials=4, seed=1)
        assert len(report.trials) == 8
        assert {(r.k, r.missing_count) for r in report.trials} == {(1, 0), (1, 1)}

    def test_invalid_arguments_rejected(self, case1, case1_masked):
        with pytest.raises(ValueError):
            benchmark(case1, [1], [1], trials=0, seed=0)
        with pytest.raises(ValueError):
            benchmark(case1, [1], [9], trials=1, seed=0)
        with pytest.raises(ValueError):
            benchmark(case1_masked, [1], [1], trials=1, seed=0)


def test_trial_seed_derivation_is_stable():
    assert derive_trial_seed(0, 1, 1, 0) == derive_trial_seed(0, 1, 1, 0)
    assert derive_trial_seed(0, 1, 1, 0) != derive_trial_seed(0, 1, 1, 1)
    # frozen so that accidental format changes show up as a test failure
    assert derive_trial_seed(7, 2, 3, 11) == 17530411109125031452


@settings(max_examples=40, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6, max_cols=4), st.integers(0, 2**32))
def test_masking_then_restoring_is_monotone(m, seed):
    masked, refs = mask_random(m, min(2, m.n_rows), seed)
    result = impute(masked, k=2)
    if result.unimputable:
        return
    completed = result.matrix
    error = matrix_error(m, completed)
    for ref in refs:
        restored = completed.with_cell(ref.row, ref.col, m.cell(ref.row, ref.col))
        assert matrix_error(m, restored) <= error + 1e-15
        completed = restored
        error = matrix_error(m, completed)
    assert error == approx(0.0, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(complete_matrices(elements=raw_reals()), st.integers(0, 2**32))
def test_benchmark_over_the_full_float_range(m, seed):
    benchmark(m, [1, 3], sorted({1, m.n_rows}), trials=2, seed=seed)


def _bf_trial_error(matrix, k, count, trial_seed):
    """One trial by brute force: the error, or None if a cell is unimputable.

    Each masked cell takes the convex combination of its k nearest donors,
    summed in donor order (the donors' common value when they agree; a sum
    past the largest double clamped into the donors' range), and the
    squared cell errors are added in row-major order.
    """
    masked, refs = mask_random(matrix, count, trial_seed)
    total = 0.0
    for ref in refs:
        donors = bf_candidate_distances(masked, ref.row, ref.col)[:k]
        if not donors:
            return None
        weights = bf_weights([d for d, _ in donors])
        cells = [masked.cells[j][ref.col] for _, j in donors]
        value = cells[0]
        if any(c != value for c in cells):
            parts = []
            for column in zip(*map(components, cells)):
                x = 0.0
                for p, w in zip(column, weights):
                    x += p * w
                parts.append(x if math.isfinite(x) else min(max(x, min(column)), max(column)))
            value = type(value)(*parts)
        d = bf_cell_distance(matrix.cells[ref.row][ref.col], value)
        total += d * d
    return math.sqrt(total) / (matrix.n_rows * matrix.n_cols)


def _check_against_oracle(m, seed):
    report = benchmark(m, range(1, 5), range(1, m.n_rows + 1), trials=2, seed=seed)
    for rec in report.trials:
        trial_seed = derive_trial_seed(seed, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


@settings(max_examples=120, deadline=None)
@given(complete_matrices(min_rows=2), st.integers(0, 2**32))
def test_benchmark_matches_oracle_trial_by_trial(m, seed):
    # Every trial reads its terms from one table of the complete matrix; each
    # error must equal a brute-force recomputation on the masked matrix.
    _check_against_oracle(m, seed)


@settings(max_examples=120, deadline=None)
@given(complete_matrices(min_rows=2, elements=raw_reals()), st.integers(0, 2**32))
def test_benchmark_matches_oracle_over_the_full_float_range(m, seed):
    _check_against_oracle(m, seed)


def _table_30x4():
    schema = (ColumnKind.CRISP, ColumnKind.INTERVAL, ColumnKind.FUZZY, ColumnKind.CRISP)
    rows = []
    for i in range(30):
        x = (i * 0.37) % 1.0
        rows.append((Crisp(x), Interval(x, x + 0.1 * (i % 3)), FuzzyTFN(0.0, x, 1.0), Crisp(-x)))
    return DataMatrix(schema, rows)


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_fills_the_table_lazily(monkeypatch, seed):
    # One trial masking one cell needs one target row of the table: the n-1
    # pairs' m terms, plus the one scored cell.
    calls = []
    for kind, distance in list(distances._CELL_DISTANCE.items()):
        def counted(a, b, distance=distance):
            calls.append(1)
            return distance(a, b)
        monkeypatch.setitem(distances._CELL_DISTANCE, kind, counted)
    m = _table_30x4()
    benchmark(m, [1], [1], trials=1, seed=seed)
    assert 0 < len(calls) <= m.n_rows * m.n_cols


@pytest.mark.parametrize("name", ["case1", "case2", "case3"])
def test_benchmark_without_a_table_gives_the_same_report(monkeypatch, name):
    m = fixture(name)
    table = benchmark(m, [1, 2, 3], range(m.n_rows + 1), trials=6, seed=5)
    monkeypatch.setattr(evaluation, "_MAX_TABLE_TERMS", 0)
    assert benchmark(m, [1, 2, 3], range(m.n_rows + 1), trials=6, seed=5) == table


def test_benchmark_keeps_no_table_across_calls(monkeypatch):
    # m2 differs from m1 in one cell; its report after m1's must equal one
    # computed with no table at all, and the brute force.
    m1 = _table_30x4()
    m2 = m1.with_cell(4, 0, Crisp(9.0))
    first = benchmark(m1, [1, 3], [1, 5, 30], trials=4, seed=2)
    after = benchmark(m2, [1, 3], [1, 5, 30], trials=4, seed=2)
    monkeypatch.setattr(evaluation, "_MAX_TABLE_TERMS", 0)
    fresh = benchmark(m2, [1, 3], [1, 5, 30], trials=4, seed=2)
    assert first != fresh
    assert after == fresh
    for rec in after.trials:
        trial_seed = derive_trial_seed(2, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m2, rec.k, rec.missing_count, trial_seed)
