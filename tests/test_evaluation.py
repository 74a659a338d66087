import math
import random
import statistics
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetimpute import distances, evaluation, imputer
from hetimpute.core import (
    CellRef,
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
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

from conftest import seeded_table
from oracle import bf_candidate_distances, bf_cell_distance, bf_combine, bf_weights
from strategies import complete_matrices, edge_reals, raw_reals

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
            assert isinstance(masked.cells[ref.row][ref.col], Missing)
            assert not isinstance(case1.cells[ref.row][ref.col], Missing)

    def test_count_above_rows_rejected(self, case1):
        with pytest.raises(ValueError):
            mask_random(case1, 4, seed=0)

    def test_negative_count_rejected(self, case1):
        with pytest.raises(ValueError):
            mask_random(case1, -1, seed=0)

    def test_incomplete_matrix_rejected(self, case1_masked):
        with pytest.raises(ValueError):
            mask_random(case1_masked, 1, seed=0)

    def test_the_draw_is_the_standard_librarys(self):
        # The draw reads the generator's bits itself, and must take the cells that
        # random's own sample and randrange take from the same seed. Counts of 6
        # to 25 reach both of sample's branches: a pool of the rows when n is at
        # most 21 plus a set's table size, else a set (edges at n = 21/22 and
        # 85/86). A draw below 1 still takes bits: when count is n, sample's last
        # pick is one, and the columns drawn after it must not move.
        for n in [*range(1, 91), 100, 200, 341, 342, 1000]:
            for m in (1, 2, 3, 5, 8, 9):
                matrix = DataMatrix([ColumnKind.CRISP] * m, [[Crisp(0.0)] * m] * n)
                for count in range(min(n, 25) + 1):
                    seed = derive_trial_seed(n, m, count, 0)
                    r = random.Random(seed)
                    expected = sorted((row, r.randrange(m)) for row in r.sample(range(n), count))
                    assert list(evaluation._mask_cells(matrix, count, seed)) == expected


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
            cell_distance(None, Crisp(0.1), ColumnKind.CRISP)


class TestMatrixError:
    def test_identity(self, case1):
        assert matrix_error(case1, case1) == 0.0

    def test_single_cell_error_spread_over_grid(self, case1, case1_masked):
        completed = impute(case1_masked, k=2).matrix
        single = cell_distance(case1.cells[2][2], completed.cells[2][2], ColumnKind.FUZZY)
        assert matrix_error(case1, completed) == approx(single / 9, rel=1e-12)
        assert matrix_error(case1, completed) == approx(0.006778, abs=1e-4)

    def test_shape_mismatch_rejected(self, case1):
        other = fixture("case3")
        with pytest.raises(ValueError):
            matrix_error(case1, other)

    def test_a_gap_is_rejected(self, case1, case1_masked):
        with pytest.raises(ValueError):
            matrix_error(case1, case1_masked)
        with pytest.raises(ValueError):
            matrix_error(case1_masked, case1)

    def test_restoring_a_cell_never_increases_error(self, case1, case1_masked):
        completed = impute(case1_masked, k=2).matrix
        restored = completed.with_cell(2, 2, case1.cells[2][2])
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
        # statistics' "inclusive" method is numpy's default quantile (type 7).
        # Before Python 3.13 it needs two points; all quartiles of one value
        # are that value.
        points = values * 2 if len(values) == 1 else values
        q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
        s = summarize(values)
        assert s.min == min(values)
        assert s.max == max(values)
        assert s.q1 == approx(q1, rel=1e-12, abs=1e-12)
        assert s.median == approx(median, rel=1e-12, abs=1e-12)
        assert s.q3 == approx(q3, rel=1e-12, abs=1e-12)
        assert s.mean == approx(statistics.fmean(values), rel=1e-12, abs=1e-12)

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

    def test_k_values_are_read_once_in_their_order(self):
        # An iterator of k values, one of them twice: one summary per k, in
        # first-seen order, of one pass's errors (here a summary of two
        # passes' would differ), and each pass's trials in the order given.
        m = fixture("case3")
        one = {k: benchmark(m, [k], [1, 2], trials=5, seed=9) for k in (1, 2)}
        report = benchmark(m, iter([2, 1, 2]), [1, 2], trials=5, seed=9)
        assert list(report.k_summaries.items()) == [
            (2, one[2].k_summaries[2]), (1, one[1].k_summaries[1])
        ]
        assert report.trials == one[2].trials + one[1].trials + one[2].trials

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

    def test_each_count_is_checked_once(self, case1, monkeypatch):
        checked, check = [], evaluation._check_count
        monkeypatch.setattr(evaluation, "_check_count",
                            lambda m, count: checked.append(count) or check(m, count))
        assert len(benchmark(case1, [1, 2], [2, 1, 2, 0], trials=5, seed=0).trials) == 40
        assert checked == [2, 1, 0]

    def test_a_k_below_one_is_refused_before_any_trial_is_drawn(self, monkeypatch):
        drawn, draw = [], evaluation._mask_cells
        monkeypatch.setattr(evaluation, "_mask_cells",
                            lambda *args: drawn.append(args) or draw(*args))
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            benchmark(fixture("case3"), [0], [1, 2], 20000, 0)
        assert drawn == []

    def test_iterators_give_the_report_of_equal_lists(self, case1):
        # The checks and the plan both read the counts; a one-shot iterator
        # must not be drained by the first, nor an empty one of k run them.
        expected = benchmark(case1, [1, 2], [2, 1, 3], trials=2, seed=0)
        assert len(expected.trials) == 12
        got = benchmark(case1, iter([1, 2]), iter([2, 1, 3]), trials=2, seed=0)
        assert got == expected
        assert benchmark(case1, (k for k in []), iter([9]), 1, 0) == ("", {}, ())

    @pytest.mark.parametrize("masked, ks, counts, trials, error", [
        (False, [1], [4], 1, "cannot mask 4 cells with at most one per row in a 3-row matrix"),
        (False, [1], [-1], 1, "count must be nonnegative"),
        (True, [1], [1], 1, "masking expects a complete matrix"),
        (True, [1], [4], 1, "cannot mask 4 cells with at most one per row in a 3-row matrix"),
        (True, [1], [-1], 1, "count must be nonnegative"),
        (False, [1, 2], [1, 5, -1], 2, "cannot mask 5 cells with at most one per row in a 3-row matrix"),
        (False, [1], [-1, 5], 1, "count must be nonnegative"),
        (False, [2, 1], [0, -2], 1, "count must be nonnegative"),
        (False, [], [99], 1, None),
        (False, [], [-1], 1, None),
        (True, [], [1], 1, None),
        (True, [1], [], 1, None),
        (False, [1], [9], 0, "trials must be at least 1"),
        (False, [], [9], 0, "trials must be at least 1"),
        (False, [0], [1], 1, "k must be at least 1"),
        (False, [0], [9], 1, "cannot mask 9 cells with at most one per row in a 3-row matrix"),
        (False, [0], [], 1, None),
        (False, [1, 0], [0], 1, "k must be at least 1"),
    ])
    def test_bad_arguments_raise_what_the_trials_checks_raised(self, case1, case1_masked, masked,
                                                               ks, counts, trials, error):
        # The count checks run once per distinct count, in the order given,
        # and only when there is a trial to plan; the first failing check is
        # the one each trial's own checks met first.
        m = case1_masked if masked else case1
        if error is None:
            assert benchmark(m, ks, counts, trials, 0) == ("", {}, ())
        else:
            with pytest.raises(ValueError) as raised:
                benchmark(m, ks, counts, trials, 0)
            assert str(raised.value) == error


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
        restored = completed.with_cell(ref.row, ref.col, m.cells[ref.row][ref.col])
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

    Each masked cell takes ``bf_combine`` of its k nearest donors, and the
    squared cell errors are added in row-major order.
    """
    masked, refs = mask_random(matrix, count, trial_seed)
    total = 0.0
    for ref in refs:
        donors = bf_candidate_distances(masked, ref.row, ref.col)[:k]
        if not donors:
            return None
        weights = bf_weights([d for d, _ in donors])
        value = bf_combine([masked.cells[j][ref.col] for _, j in donors], weights)
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
    # Every trial imputes a masked copy of the complete matrix; each error
    # must equal a brute-force recomputation on the masked matrix.
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
def test_a_trial_scores_only_its_masked_cells(monkeypatch, seed):
    # Selection writes each cell distance inline, so the one call a trial
    # masking one cell makes is the score of that cell.
    calls, compiled = [], evaluation._compiled

    def counting(write, key):
        function = compiled(write, key)
        if write is not distances._cell_distance:
            return function
        return lambda a, b: calls.append(1) or function(a, b)

    for module in (distances, evaluation):
        monkeypatch.setattr(module, "_compiled", counting)
    m = _table_30x4()
    benchmark(m, [1], [1], trials=1, seed=seed)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["case1", "case2", "case3"])
def test_benchmark_without_a_table_gives_the_same_report(name):
    # The benchmark computes every cell distance where it needs it, with no
    # table of them: on each case, its report is the brute force's.
    m = fixture(name)
    report = benchmark(m, [1, 2, 3], range(m.n_rows + 1), trials=6, seed=5)
    for rec in report.trials:
        trial_seed = derive_trial_seed(5, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


def test_benchmark_keeps_no_table_across_calls():
    # m2 differs from m1 in one cell; its report after m1's must differ from
    # m1's and match the brute force.
    m1 = _table_30x4()
    m2 = m1.with_cell(4, 0, Crisp(9.0))
    first = benchmark(m1, [1, 3], [1, 5, 30], trials=4, seed=2)
    after = benchmark(m2, [1, 3], [1, 5, 30], trials=4, seed=2)
    assert first != after
    for rec in after.trials:
        trial_seed = derive_trial_seed(2, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m2, rec.k, rec.missing_count, trial_seed)


# -- distinct imputations and per-row lists -----------------------------------


def distinct_masks(m, ks, counts, trials, seed):
    """The distinct (k, masked cells) of a benchmark's trials."""
    return {
        (k, mask_random(m, count, derive_trial_seed(seed, k, count, trial))[1])
        for k in ks for count in counts for trial in range(trials)
    }


def listed_rows(m, masks):
    """The rows the benchmark ranks once: a pass in a trial masking c of n
    rows spares the kernel n - c rows, and a row whose distinct passes spare
    3n gets lists."""
    spared = {}
    for _, refs in masks:
        for ref in refs:
            spared[ref.row] = spared.get(ref.row, 0) + m.n_rows - len(refs)
    return {i for i, rows in spared.items() if rows >= 3 * m.n_rows}


@settings(max_examples=60, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6), st.integers(0, 2**32))
def test_scoring_builds_no_imputation_result(m, seed):
    # The score reads the filled cells: with impute and every matrix copy
    # refused, each trial still matches the oracle.
    def refused(*args):
        raise AssertionError("scoring built a matrix")

    with pytest.MonkeyPatch.context() as mp:
        for module, name in [(imputer, "impute"), (imputer, "_with_cells"),
                             (evaluation, "_with_cells")]:
            mp.setattr(module, name, refused)
        report = benchmark(m, range(1, 4), range(1, m.n_rows + 1), trials=2, seed=seed)
    for rec in report.trials:
        trial_seed = derive_trial_seed(seed, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


def test_each_distinct_mask_is_imputed_once(monkeypatch, case1):
    # case1's 3000 trials at 500 per (k, count) hold 126 distinct masks.
    calls = []
    fill = evaluation._fill

    def counted(matrix, cells, gaps, k, ranked):
        # The gaps are exactly the masked grid's, in row-major order.
        assert [(i, l) for i, row in enumerate(cells) for l, c in enumerate(row)
                if c is None] == list(gaps)
        calls.append((k, tuple(gaps)))
        return fill(matrix, cells, gaps, k, ranked)

    monkeypatch.setattr(evaluation, "_fill", counted)
    report = benchmark(case1, [1, 2], [1, 2, 3], 500, 0)
    assert len(report.trials) == 3000
    assert len(calls) == len(set(calls)) == 126
    assert set(calls) == distinct_masks(case1, [1, 2], [1, 2, 3], 500, 0)


@settings(max_examples=80, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6, max_cols=3, elements=edge_reals()),
       st.integers(0, 2**32), st.booleans())
def test_lists_serve_each_trial_as_the_oracle_fills_it(m, seed, every_row):
    # Four trials at each k and each count up to n revisit most rows often
    # enough for lists. With every_row, the plan's keys are counted 3n times
    # over, so every row that some trial masks at fewer than n rows gets
    # them. Whatever the ties and magnitudes, each trial's error is the brute
    # force's, bit for bit.
    ranked, built = evaluation._ranked, []

    def spied(matrix, keys, kept):
        built.append(ranked(matrix, keys * (3 * matrix.n_rows if every_row else 1), kept))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_ranked", spied)
        report = benchmark(m, range(1, 4), range(1, m.n_rows + 1), trials=4, seed=seed)
    masks = distinct_masks(m, range(1, 4), range(1, m.n_rows + 1), 4, seed)
    if every_row:
        assert {i for i, _ in built[0]} == {r.row for _, refs in masks for r in refs
                                            if len(refs) < m.n_rows}
    else:
        assert {i for i, _ in built[0]} == listed_rows(m, masks)
    for rec in report.trials:
        trial_seed = derive_trial_seed(seed, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


@settings(max_examples=80, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6, max_cols=3, elements=edge_reals()),
       st.integers(0, 2**32), st.integers(1, 2), st.integers(1, 8))
def test_chunks_of_one_or_two_rows_rank_as_one_chunk(m, seed, chunk, kept):
    # With the entry budget cut to chunk rows, every masked row is ranked in
    # chunks of at most that many, so the pairs across chunks are computed
    # from both sides and ties and infinite distances cross chunk edges. The
    # lists equal those of one chunk, bit for bit, each the brute force's
    # first kept rows, and each trial equals the brute force.
    args = (m, range(1, 4), range(1, m.n_rows + 1), 4, seed)
    keys = list(distinct_masks(*args)) * (3 * m.n_rows)
    ranked, compiled, chunks = evaluation._ranked, evaluation._compiled, []
    whole = ranked(m, keys, kept)
    for (i, l), listed in whole.items():
        assert repr(listed) == repr(bf_candidate_distances(m.with_cell(i, l, None), i, l)[:kept])

    def logged(write, key):
        apart = compiled(write, key)
        if write is not distances._apart:
            return apart
        return lambda cells, rows: chunks.append(len(rows)) or apart(cells, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_ENTRIES", chunk * m.n_rows * m.n_cols)
        mp.setattr(evaluation, "_compiled", logged)
        assert repr(ranked(m, keys, kept)) == repr(whole)
        assert max(chunks) <= chunk and sum(chunks) == len({i for i, _ in whole})
        mp.setattr(evaluation, "_ranked", lambda matrix, keys, kept: ranked(
            matrix, keys * (3 * matrix.n_rows), kept))
        report = benchmark(*args)
    for rec in report.trials:
        assert_trial_matches_oracle(m, seed, rec)


def test_ranking_every_row_of_a_300x8_table_keeps_few_lists_alive():
    # The CI plan on 300 complete rows, its keys counted four times: each
    # masked row's passes then spare at least 4(n - 4) >= 3n rows, so all 300
    # rows get lists, in chunks of 27. Were every row's lists alive at once,
    # the peak would be about 8 MB.
    m = seeded_table(300, 8, seed=300, gap_rate=0.0)
    keys = list(distinct_masks(m, range(1, 6), range(1, 5), 40, 1)) * 4
    tracemalloc.start()
    try:
        ranked = evaluation._ranked(m, keys, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({i for i, _ in ranked}) == 300
    assert peak < 3_000_000


def test_lists_hold_k_rows_past_the_nearest_masked_ones(monkeypatch):
    # Each trial masks a row's cell and, in the same column, the count - 1
    # rows nearest to it: the most a walk can skip. Past them, the first
    # max k + max count - 1 rows of each list still hold k whole rows, and
    # each trial equals the brute force.
    m = seeded_table(30, 4, seed=8, gap_rate=0.0)

    def nearest_masked(matrix, count, seed):
        rng = random.Random(seed)
        i, l = rng.randrange(matrix.n_rows), rng.randrange(matrix.n_cols)
        ranked = bf_candidate_distances(matrix.with_cell(i, l, None), i, l)
        return tuple(sorted(CellRef(j, l) for j in [i, *(j for _, j in ranked[:count - 1])]))

    monkeypatch.setattr(evaluation, "_mask_cells", nearest_masked)
    report = benchmark(m, range(1, 4), range(1, 5), 10, 3)
    assert len(listed_rows(m, distinct_masks(m, range(1, 4), range(1, 5), 10, 3))) == 29
    for rec in report.trials:
        trial_seed = derive_trial_seed(3, rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


#: The source of each kind's cell distance, in the order a benchmark compiles them.
CELL_DISTANCES = [distances._cell_distance(kind) for kind in ColumnKind]
#: The source of each kind's fill step, in the order a benchmark on ``seeded_table`` compiles them.
FILL_STEPS = [imputer._step(kind) for kind in ColumnKind]


def logged_ranking(monkeypatch):
    """The list of the rows that ``evaluation`` ranks, in order."""
    compiled, ranked = evaluation._compiled, []

    def logged(write, key):
        function = compiled(write, key)
        if write is not distances._apart:
            return function

        def apart(cells, rows):
            for i, lists in function(cells, rows):
                ranked.append(i)
                yield i, lists

        return apart

    monkeypatch.setattr(evaluation, "_compiled", logged)
    return ranked


@pytest.mark.parametrize("trials, rows", [(2, 5), (10, 60)])
def test_each_revisited_row_is_ranked_once(compiles, monkeypatch, trials, rows):
    # The sweep shape: the ranking, the cell distances that score the trials,
    # the kernel and the fill steps are compiled once each, and each row that the plan
    # revisits enough is ranked once: 5 rows at 2 trials, and all 60 at 10.
    m = seeded_table(60, 8, seed=60, gap_rate=0.0)
    args = (m, range(1, 6), range(1, 5), trials, 1)
    ranked = logged_ranking(monkeypatch)
    benchmark(*args)
    listed = listed_rows(m, distinct_masks(*args))
    assert len(listed) == rows
    assert sorted(ranked) == sorted(listed)
    assert compiles == [distances._apart(m.schema), *CELL_DISTANCES, distances._kernel(m.schema),
                        *FILL_STEPS]


@pytest.mark.parametrize("ks, counts, trials", [
    ([5], [60], 1),  # one trial that masks every row once
    ([1, 2, 3, 4, 5], [1, 2, 3, 4], 1),  # 50 passes on 60 rows: none thrice
    ([3, 4, 5], [50], 2),  # 300 passes, none sparing a row 3n rows
])
def test_a_plan_that_rarely_revisits_a_row_ranks_none(compiles, monkeypatch, ks, counts, trials):
    m = seeded_table(60, 8, seed=60, gap_rate=0.0)
    ranked = logged_ranking(monkeypatch)
    report = benchmark(m, ks, counts, trials, 1)
    assert not listed_rows(m, distinct_masks(m, ks, counts, trials, 1))
    assert ranked == []
    assert compiles == [*CELL_DISTANCES, distances._kernel(m.schema), *FILL_STEPS]
    rec = report.trials[-1]
    trial_seed = derive_trial_seed(1, rec.k, rec.missing_count, rec.trial)
    assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


def test_the_sweep_reports_the_same_with_and_without_lists(monkeypatch):
    # The perfbench benchmark-sweep shape: 60 complete rows, k 1 to 5, 1 to 4
    # gaps and 10 trials, whose lists serve most passes. With no lists the
    # kernel makes every pass, and the report is the same.
    args = (seeded_table(60, 8, seed=60, gap_rate=0.0), range(1, 6), range(1, 5), 10, 201)
    report = benchmark(*args)
    assert len(report.trials) == 200
    monkeypatch.setattr(evaluation, "_ranked", lambda *_: {})
    assert benchmark(*args) == report


# -- everything in one process and one thread ----------------------------------


def assert_trial_matches_oracle(m, seed, rec):
    trial_seed = derive_trial_seed(seed, rec.k, rec.missing_count, rec.trial)
    assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


@settings(max_examples=60, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6), st.data())
def test_a_benchmark_of_two_imputations_matches_oracle(m, data):
    # Any ks, counts and trials: each trial as the brute force fills it.
    ks = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    counts = data.draw(st.lists(st.integers(1, m.n_rows), min_size=1, max_size=3))
    seed = data.draw(st.integers(0, 2**32))
    for rec in benchmark(m, ks, counts, data.draw(st.integers(1, 3)), seed).trials:
        assert_trial_matches_oracle(m, seed, rec)


def test_a_lone_large_trial_is_scored_in_this_process(one_process):
    m = seeded_table(200, 6, seed=7, gap_rate=0.0)
    report = benchmark(m, [5], [60], trials=1, seed=1)
    assert report.trials[0].error is not None
    assert_trial_matches_oracle(m, 1, report.trials[0])


@pytest.mark.parametrize("trials, rows", [(1, 0), (2, 5), (10, 60)])
def test_the_sweep_shape_is_scored_in_this_process(one_process, trials, rows):
    # The perfbench benchmark-sweep shape, with none, some and all of its
    # rows listed; the last trial as the brute force fills it.
    m = seeded_table(60, 8, seed=60, gap_rate=0.0)
    args = (m, range(1, 6), range(1, 5), trials, 1)
    assert len(listed_rows(m, distinct_masks(*args))) == rows
    report = benchmark(*args)
    assert len(report.trials) == 20 * trials
    assert_trial_matches_oracle(m, 1, report.trials[-1])


@pytest.mark.parametrize(
    "ks, counts, distinct", [([1, 2], [2, 3], 4), ([2], [3], 1)],
    ids=["4 distinct", "1 distinct"],
)
def test_case3_plans_are_scored_in_this_process(one_process, ks, counts, distinct):
    m = fixture("case3")
    masks = distinct_masks(m, ks, counts, 1, 5)
    assert len(masks) == distinct
    assert not listed_rows(m, masks)
    for rec in benchmark(m, ks, counts, 1, 5).trials:
        assert_trial_matches_oracle(m, 5, rec)


def test_a_benchmark_of_a_200x8_table_is_scored_in_this_process(one_process):
    # 100 masked cells a trial, two distinct imputations.
    m = seeded_table(200, 8, seed=5, gap_rate=0.0)
    args = (m, [5], [100], 2, 7)
    assert len(distinct_masks(*args)) == 2
    assert_trial_matches_oracle(m, 7, benchmark(*args).trials[1])


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, MemoryError])
@pytest.mark.parametrize("where", ["ranking", "fill"])
def test_an_exception_in_a_benchmark_reaches_the_caller(one_process, where, error):
    # The sweep shape at 10 trials ranks all 60 rows, then fills 50 distinct
    # imputations. The third row ranked, as it is yielded, or the third fill,
    # raises: the exception ends the call as it is, and the next call is whole.
    args = (seeded_table(60, 8, seed=60, gap_rate=0.0), range(1, 6), range(1, 5), 10, 1)
    expected, calls = benchmark(*args), []
    with pytest.MonkeyPatch.context() as mp:
        if where == "ranking":
            compiled = evaluation._compiled

            def failing(write, key):
                apart = compiled(write, key)

                def counted(cells, rows):
                    for i, lists in apart(cells, rows):
                        calls.append(i)
                        if len(calls) == 3:
                            raise error("stop")
                        yield i, lists

                return counted

            mp.setattr(evaluation, "_compiled", failing)
        else:
            fill = evaluation._fill

            def failing(*a):
                calls.append(a[3])
                if len(calls) == 3:
                    raise error("stop")
                return fill(*a)

            mp.setattr(evaluation, "_fill", failing)
        with pytest.raises(error, match="stop"):
            benchmark(*args)
    assert len(calls) == 3
    assert benchmark(*args) == expected


def test_threads_that_benchmark_at_once_get_the_serial_report():
    # Two threads, switching often, each compile the ranking and the kernel on
    # first use, rank the sweep shape's rows and fill its imputations.
    args = (seeded_table(60, 8, seed=60, gap_rate=0.0), range(1, 6), range(1, 5), 10, 1)
    expected = benchmark(*args)
    evaluation._compiled.cache_clear()
    start, reports = threading.Barrier(2), []

    def run():
        start.wait()
        reports.append(benchmark(*args))

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
    assert reports == [expected, expected]
