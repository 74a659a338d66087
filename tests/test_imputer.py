import contextlib
import errno
import faulthandler
import marshal
import math
import os
import sys
import threading
import time

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from hetimpute import distances, evaluation, fixture, imputer
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
from hetimpute.imputer import (
    combine_cells,
    impute,
    neighbor_weights,
)
from hetimpute.typed_csv import parse, serialize

from conftest import logged_forks, patch_forks, seeded_table
from oracle import bf_candidate_distances, bf_combine, bf_weights
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
        donors = [
            (case1.cells[0][2], 0.2620),
            (case1.cells[1][2], 0.7380),
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


@contextlib.contextmanager
def forking():
    """Thresholds so low that selection forks on any table of two or more
    target rows, two CPUs, and the list of the pids forked meanwhile."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imputer, "_FORK_MIN_TARGETS", 1)
        mp.setattr(imputer, "_FORK_MIN_CELLS", 0)
        yield patch_forks(mp)


def assert_matches_oracle(m, k):
    # One selection pass per target row, shared by the row's gaps and
    # cutting rows short, must select exactly what a per-cell brute force
    # selects, and fill the cell with its value, to the last bit (float.hex,
    # since a cell's == takes -0.0 for 0.0), in one process or split over two.
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
    with forking() as forks:
        assert impute(m, k) == result
    assert len(forks) == (len({ref.row for ref in missing_cells(m)}) >= 2)


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
    # In one process, so that every evaluation is counted here.
    monkeypatch.setattr(imputer, "_FORK_MIN_TARGETS", 10**9)
    assert impute(m, 5).trace == impute(plain, 5).trace
    # A pass with no cut evaluates all of ``full``; this one about 73%.
    assert 0 < evaluated < 0.8 * full


def wrap_kernels(monkeypatch, wrap):
    """Make the fill step run ``wrap(kernel)`` in place of each schema's kernel."""

    class Wrapped(dict):
        def __missing__(self, schema):
            self[schema] = wrapped = wrap(distances._KERNELS[schema])
            return wrapped

    monkeypatch.setattr(imputer, "_KERNELS", Wrapped())


# -- one selection kernel per schema -----------------------------------------


@pytest.fixture
def kernels():
    """The kernel cache, empty while the test runs and restored after it."""
    saved = dict(distances._KERNELS)
    distances._KERNELS.clear()
    yield distances._KERNELS
    distances._KERNELS.clear()
    distances._KERNELS.update(saved)


def logged_builds(monkeypatch, log):
    """Append the pid of each process that compiles a kernel to ``log``."""
    compile_ = distances._compile

    def logged(source):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
        return compile_(source)

    monkeypatch.setattr(distances, "_compile", logged)


def test_a_column_name_never_reaches_a_kernel(kernels, monkeypatch, no_fork):
    sources = []
    compile_ = distances._compile
    monkeypatch.setattr(distances, "_compile", lambda text: sources.append(text) or compile_(text))
    m = seeded_table(30, 3, seed=3, gap_rate=0.2)
    hostile = DataMatrix(m.schema, m.cells, ["x\nimport os", '"""', "'''\nos.abort()"])
    traces = []
    for matrix in (m, hostile):
        kernels.clear()
        traces.append(impute(matrix, 3).trace)
    assert len(sources) == 2
    assert sources[1] == sources[0]
    assert traces[1] == traces[0]
    assert "import" not in sources[0] and "os." not in sources[0]


def test_a_schema_gets_one_kernel(kernels, monkeypatch, tmp_path, no_fork):
    log = tmp_path / "builds"
    logged_builds(monkeypatch, log)
    complete = seeded_table(30, 4, seed=4, gap_rate=0.0)
    narrow = seeded_table(30, 3, seed=4, gap_rate=0.2)
    for _ in range(2):
        impute(complete.with_cell(0, 1, None).with_cell(5, 2, None), 3)
        impute(narrow, 3)
        evaluation.benchmark(complete, [1, 2], [1, 2], 3, 0)
    assert set(kernels) == {complete.schema, narrow.schema}
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2


@pytest.mark.parametrize("call", ["impute", "benchmark"])
def test_a_worker_builds_no_kernel(kernels, monkeypatch, tmp_path, forks, dense_matrix, call):
    # The parent compiles the kernel before it forks, and each worker inherits it.
    log = tmp_path / "builds"
    logged_builds(monkeypatch, log)
    if call == "impute":
        impute(dense_matrix, 5)
    else:  # the benchmark forks, and no trial forks again
        evaluation.benchmark(fixture("case3"), range(1, 5), range(1, 6), 20, 3)
    assert len(forks) == 1
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_impute_reads_the_kernel_cache_once_per_call(dense_matrix, monkeypatch, forked):
    # Not once per target row: a read hashes the schema through Enum.__hash__.
    expected, reads = serially(dense_matrix, 5), []

    class Counted(type(distances._KERNELS)):
        def __getitem__(self, schema):
            reads.append(schema)
            return super().__getitem__(schema)

    monkeypatch.setattr(imputer, "_KERNELS", Counted(distances._KERNELS))
    forks = patch_forks(monkeypatch)
    if not forked:
        monkeypatch.setattr(imputer, "_FORK_MIN_TARGETS", 10**9)
    assert impute(dense_matrix, 5) == expected
    assert len(forks) == forked
    assert reads == [dense_matrix.schema]


def test_a_warm_kernel_lookup_makes_no_python_call():
    # ColumnKind hashes in C, so looking a schema up runs no Enum.__hash__.
    schema = fixture("case2").schema
    distances._KERNELS[schema]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        distances._KERNELS[schema]
    finally:
        sys.setprofile(None)
    assert calls == []


# -- selection split over forked workers -------------------------------------


def serially(m, k):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imputer, "_FORK_MIN_TARGETS", 10**9)
        return impute(m, k)


def test_a_dense_table_forks_at_the_default_thresholds(dense_matrix, forks):
    result = impute(dense_matrix, 5)
    assert len(forks) == 1
    assert result == serially(dense_matrix, 5)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_two_gaps_in_a_tall_table_stay_serial(tall_text, no_fork):
    m = parse(tall_text).with_cell(7, 1, None).with_cell(2900, 4, None)
    assert set(impute(m, 5).trace) == {(7, 1), (2900, 4)}


@pytest.mark.parametrize("rows, cols", [(30, 8), (250, 2)])
def test_few_target_rows_of_a_small_table_stay_serial(no_fork, rows, cols):
    # 24 target rows of these tables ran 0.53x and 0.61x as fast when forked.
    m = seeded_table(rows, cols, seed=30, gap_rate=0.0)
    for i in range(24):
        m = m.with_cell(i, i % cols, None)
    assert len(impute(m, 5).trace) == 24


def test_benchmark_sweep_trials_stay_serial(forks):
    # The perfbench benchmark-sweep shape: 60 complete rows, k 1 to 5, 1 to 4
    # gaps. No trial forks its selection, even with the benchmark's own
    # mapping kept in this process; the benchmark forks one worker that
    # imputes a share of the trials.
    m = seeded_table(60, 8, seed=60, gap_rate=0.0)
    args = (m, range(1, 6), range(1, 5), 10, 201)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_map_shares", lambda function, items, *_: function(items))
        expected = evaluation.benchmark(*args)
    assert forks == []
    report = evaluation.benchmark(*args)
    assert len(report.trials) == 200
    assert len(forks) == 1
    assert report == expected


def test_a_lone_large_trial_forks_its_selection(forks):
    # One distinct imputation leaves the benchmark nothing to spread over the
    # CPUs, so a trial large enough forks its own selection.
    m = seeded_table(200, 6, seed=7, gap_rate=0.0)
    report = evaluation.benchmark(m, [5], [60], trials=1, seed=1)
    assert len(forks) == 1
    assert report.trials[0].error is not None


def test_a_mapping_inside_a_forked_mapping_runs_serially(dense_matrix, monkeypatch, tmp_path):
    # Each inner mapping would fork on its own; inside the outer one, in the
    # parent's share and in the worker's, it runs without forking.
    log = tmp_path / "forks"
    logged_forks(monkeypatch, log)
    items = list(range(100))

    def outer(shares):
        for _ in shares:
            yield sum(imputer._map_shares(iter, items, dense_matrix, len(items)))

    assert list(imputer._map_shares(outer, [0, 1, 2, 3], dense_matrix, 100)) == [sum(items)] * 4
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())]
    assert sum(imputer._map_shares(iter, items, dense_matrix, len(items))) == sum(items)
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2


def test_a_mapping_that_raised_lets_the_next_one_fork(dense_matrix, forks):
    def failing(shares):
        raise RuntimeError("share failed")

    with pytest.raises(RuntimeError, match="share failed"):
        imputer._map_shares(failing, list(range(100)), dense_matrix, 100)
    assert len(forks) == 1
    assert impute(dense_matrix, 5) == serially(dense_matrix, 5)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("passes", [79, 80])
def test_impute_and_benchmark_fork_at_one_boundary(forks, passes):
    # 80 passes over 110 x 4 cells, at 160 visits more each, are exactly 48000.
    m = seeded_table(110, 4, seed=8, gap_rate=0.0)
    pays = passes * (m.n_rows * m.n_cols + imputer._PASS_COST) >= imputer._FORK_MIN_CELLS
    assert pays == (passes == 80)
    gapped = m
    for i in range(passes):  # one gap in each of ``passes`` rows
        gapped = gapped.with_cell(i, i % 4, None)
    impute(gapped, 5)
    assert len(forks) == pays
    half = passes // 2 - 1  # two distinct imputations of ``passes`` masked cells in all
    evaluation.benchmark(m, [3], [half, passes - half], 1, 0)
    assert len(forks) == 2 * pays


def test_a_live_thread_keeps_selection_serial(dense_matrix, no_fork):
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert impute(dense_matrix, 5) == serially(dense_matrix, 5)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads listed on Linux only")
def test_a_thread_outside_threading_keeps_selection_serial(dense_matrix, no_fork):
    # faulthandler's watchdog is an OS thread that _thread does not count.
    # Python 3.12 and 3.13 warn that a fork beside it may deadlock the child.
    tasks = "/proc/self/task"
    before = len(os.listdir(tasks))
    faulthandler.dump_traceback_later(600)
    try:
        assert len(os.listdir(tasks)) == before + 1
        assert impute(dense_matrix, 5) == serially(dense_matrix, 5)
    finally:
        faulthandler.cancel_dump_traceback_later()
    deadline = time.monotonic() + 10
    while len(os.listdir(tasks)) > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(os.listdir(tasks)) == before


def test_one_cpu_keeps_selection_serial(dense_matrix, no_fork, monkeypatch):
    # The CPUs this process may run on, not the machine's.
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert impute(dense_matrix, 5) == serially(dense_matrix, 5)


def in_worker(parent_pid, act):
    """Wrap a kernel so that ``act()`` runs first in a worker."""

    def wrap(nearest):
        def wrapped(*args):
            if os.getpid() != parent_pid:
                act()
            return nearest(*args)

        return wrapped

    return wrap


@pytest.mark.parametrize(
    "fault",
    [
        lambda: os._exit(3),
        lambda: 1 / 0,
        lambda: setattr(marshal, "dumps", lambda obj: b"[\x02"),
    ],
    ids=["exits nonzero", "raises", "replies short"],
)
def test_a_failed_worker_gives_the_serial_result(dense_matrix, forks, monkeypatch, fault):
    expected = serially(dense_matrix, 5)
    wrap_kernels(monkeypatch, in_worker(os.getpid(), fault))
    assert impute(dense_matrix, 5) == expected
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "call, error",
    [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
    ids=["fork refused", "pipe refused"],
)
def test_a_fork_that_fails_gives_the_serial_result(dense_matrix, monkeypatch, call, error):
    def refused():
        raise OSError(error, os.strerror(error))

    expected = serially(dense_matrix, 5)
    monkeypatch.setattr(os, call, refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)
    fd_dir = "/proc/self/fd"
    before = sorted(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    assert impute(dense_matrix, 5) == expected
    if before is not None:  # both ends of the pipe are closed
        assert sorted(os.listdir(fd_dir)) == before


def test_a_reply_in_short_writes_is_sent_in_full(dense_matrix, forks, monkeypatch):
    # A pipe write may take fewer bytes than it was given. The worker writes
    # the rest, so the parent selects its own share alone.
    expected = serially(dense_matrix, 5)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:512]))
    parent, selected = os.getpid(), []

    def logged(nearest):
        def pass_(cells, i, *args):
            if os.getpid() == parent:
                selected.append(i)
            return nearest(cells, i, *args)

        return pass_

    wrap_kernels(monkeypatch, logged)
    assert impute(dense_matrix, 5) == expected
    assert len(forks) == 1
    rows = sorted({ref.row for ref in missing_cells(dense_matrix)})
    # The parent's share alone: the worker's reply, several kB, came in 512-byte writes.
    assert selected == rows[0::2]


def test_a_worker_that_replied_is_not_signalled(dense_matrix, forks, monkeypatch):
    # It has exited, so it is only reaped: with SIGCHLD ignored its pid may
    # already belong to another process.
    signalled = []
    monkeypatch.setattr(os, "kill", lambda *args: signalled.append(args))
    assert impute(dense_matrix, 5) == serially(dense_matrix, 5)
    assert len(forks) == 1
    assert signalled == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_parent_exception_kills_and_reaps_the_workers(dense_matrix, forks, monkeypatch, error):
    parent = os.getpid()

    def stuck(nearest):
        def pass_(*args):
            if os.getpid() != parent:  # a worker that would take 30 s
                time.sleep(30)
                os._exit(1)
            if forks:  # the parent's first target row, after the fork
                raise error("stop")
            return nearest(*args)

        return pass_

    wrap_kernels(monkeypatch, stuck)
    start = time.monotonic()
    with pytest.raises(error):
        impute(dense_matrix, 5)
    assert time.monotonic() - start < 10
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
