import errno
import marshal
import math
import os
import statistics

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
    components,
    missing_cells,
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

from conftest import logged_forks, patch_forks, seeded_table
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
    calls = []
    for kind, distance in list(distances._CELL_DISTANCE.items()):
        def counted(a, b, distance=distance):
            calls.append(1)
            return distance(a, b)
        monkeypatch.setitem(distances._CELL_DISTANCE, kind, counted)
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


# -- distinct imputations split over forked workers ---------------------------


def serial_benchmark(*args):
    """``benchmark`` on one CPU, so that neither it nor a trial forks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
        return benchmark(*args)


def distinct_masks(m, ks, counts, trials, seed):
    """The distinct (k, masked cells) of a benchmark's trials."""
    return {
        (k, mask_random(m, count, derive_trial_seed(seed, k, count, trial))[1])
        for k in ks for count in counts for trial in range(trials)
    }


@settings(max_examples=60, deadline=None)
@given(complete_matrices(min_rows=2, max_rows=6), st.data())
def test_a_benchmark_of_two_imputations_forks_and_matches_oracle(m, data):
    # With one pass per process enough, any benchmark of two or more distinct
    # imputations forks once, and no trial forks again; one of a single
    # imputation leaves that trial's selection to fork if it has two passes.
    # Either must give the one-process report bit for bit, trial by trial as
    # the brute force does.
    ks = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    counts = data.draw(st.lists(st.integers(1, m.n_rows), min_size=1, max_size=3))
    args = (m, ks, counts, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32)))
    expected = serial_benchmark(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imputer, "_FORK_MIN_TARGETS", 1)
        mp.setattr(imputer, "_FORK_MIN_CELLS", 0)
        forks = patch_forks(mp)
        report = benchmark(*args)
    masks = distinct_masks(*args)
    assert len(forks) == (len(masks) >= 2 or len(next(iter(masks))[1]) >= 2)
    assert report == expected
    for rec in report.trials:
        trial_seed = derive_trial_seed(args[4], rec.k, rec.missing_count, rec.trial)
        assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)


def test_each_distinct_mask_is_imputed_once(monkeypatch, no_fork, case1):
    # case1's 3000 trials at 500 per (k, count) hold 126 distinct masks.
    calls = []
    impute_masked = evaluation.impute

    def counted(masked, k):
        calls.append((k, tuple(missing_cells(masked))))
        return impute_masked(masked, k)

    monkeypatch.setattr(evaluation, "impute", counted)
    monkeypatch.setattr(imputer, "_FORK_MIN_TARGETS", 10**9)  # count in this process
    report = benchmark(case1, [1, 2], [1, 2, 3], 500, 0)
    assert len(report.trials) == 3000
    assert len(calls) == len(set(calls)) == 126
    assert set(calls) == distinct_masks(case1, [1, 2], [1, 2, 3], 500, 0)


@pytest.mark.parametrize("trials, forked", [(1, 0), (2, 1)])
def test_a_benchmark_forks_once_its_passes_pay(forks, trials, forked):
    # The perfbench benchmark-sweep shape masks 50 distinct cells a trial,
    # each one selection pass over 60 x 8 cells: 50 passes stay in one
    # process, 100 fork.
    args = (seeded_table(60, 8, seed=60, gap_rate=0.0), range(1, 6), range(1, 5), trials, 1)
    passes = sum(len(refs) for _, refs in distinct_masks(*args))
    assert passes == 50 * trials
    assert (passes * (480 + imputer._PASS_COST) >= imputer._FORK_MIN_CELLS) == forked
    benchmark(*args)
    assert len(forks) == forked


@pytest.mark.parametrize("fault", ["fork refused", "pipe refused", "replies short"])
def test_a_failed_fork_or_reply_gives_the_serial_report(monkeypatch, fault):
    # case3 at 20 trials masks 1105 cells over 343 distinct imputations, so
    # it forks at the default thresholds.
    args = (fixture("case3"), range(1, 5), range(1, 6), 20, 3)
    expected = serial_benchmark(*args)
    forks = patch_forks(monkeypatch)
    if fault == "replies short":
        parent, impute_masked = os.getpid(), evaluation.impute

        def short(*a):
            if os.getpid() != parent:
                marshal.dumps = lambda obj: b"[\x02"
            return impute_masked(*a)

        monkeypatch.setattr(evaluation, "impute", short)
    else:
        call, error = {"fork refused": ("fork", errno.EAGAIN),
                       "pipe refused": ("pipe", errno.EMFILE)}[fault]

        def refused():
            raise OSError(error, os.strerror(error))

        monkeypatch.setattr(os, call, refused)
    assert benchmark(*args) == expected
    assert len(forks) == (fault == "replies short")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "ks, counts, trials", [([1, 2], [2, 3], 3), ([2], [3], 1)],
    ids=["benchmark forks", "trials fork"],
)
def test_a_benchmark_forks_only_from_its_own_process(monkeypatch, tmp_path, ks, counts, trials):
    # Any mapping of two passes would fork. When the benchmark forks, its one
    # worker imputes its share without forking again; a benchmark of one
    # distinct imputation does not fork, and that trial forks its selection
    # from here.
    args = (fixture("case3"), ks, counts, trials, 5)
    expected = serial_benchmark(*args)
    log = tmp_path / "forks"
    logged_forks(monkeypatch, log)
    monkeypatch.setattr(imputer, "_FORK_MIN_TARGETS", 1)
    monkeypatch.setattr(imputer, "_FORK_MIN_CELLS", 0)
    assert (len(distinct_masks(*args)) == 1) == (trials == 1)
    assert benchmark(*args) == expected
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]


def test_a_benchmark_of_a_200x8_table_forks_only_from_here(monkeypatch, tmp_path):
    # 320000 cell distances between its rows. Each trial masks 100 cells,
    # enough for its selection to fork, but the benchmark's two distinct
    # imputations fork at its level, and no trial forks again.
    m = seeded_table(200, 8, seed=5, gap_rate=0.0)
    args = (m, [5], [100], 2, 7)
    assert len(distinct_masks(*args)) == 2
    expected = serial_benchmark(*args)
    log = tmp_path / "forks"
    logged_forks(monkeypatch, log)
    report = benchmark(*args)
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]
    assert report == expected
    rec = report.trials[1]
    trial_seed = derive_trial_seed(7, rec.k, rec.missing_count, rec.trial)
    assert rec.error == _bf_trial_error(m, rec.k, rec.missing_count, trial_seed)
