"""Acceptance suite: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in captured output).

The randomized sub-suites here are self-contained and seeded with plain
``random.Random`` so that the whole module is deterministic and independent
of the hypothesis-based unit tests that cover the same ground more broadly.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from hetimpute.cli import main
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
from hetimpute.distances import cell_distance, row_distance
from hetimpute.evaluation import benchmark, matrix_error
from hetimpute.fixtures import fixture
from hetimpute.imputer import impute
from hetimpute.typed_csv import parse, serialize

from oracle import bf_candidate_distances, bf_weights

approx = pytest.approx


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


# -- randomized helpers (plain seeded RNG, no hypothesis) ---------------------


def random_cell(rng: random.Random, kind: ColumnKind, lo=-5.0, hi=5.0):
    draw = lambda: round(rng.uniform(lo, hi), 6)
    if kind is ColumnKind.CRISP:
        return Crisp(draw())
    if kind is ColumnKind.INTERVAL:
        return Interval(*sorted(draw() for _ in range(2)))
    return FuzzyTFN(*sorted(draw() for _ in range(3)))


def random_matrix(rng: random.Random, max_rows=8, max_cols=5, missing_rate=0.25):
    n = rng.randint(2, max_rows)
    m = rng.randint(1, max_cols)
    schema = tuple(rng.choice(list(ColumnKind)) for _ in range(m))
    cells = tuple(
        tuple(
            None if rng.random() < missing_rate else random_cell(rng, kind)
            for kind in schema
        )
        for _ in range(n)
    )
    return DataMatrix(schema, cells)


def smooth_crisp_matrix(n_distinct: int, repeats: int) -> DataMatrix:
    """80-row crisp matrix whose four columns are smooth functions of one
    latent coordinate, each distinct row repeated ``repeats`` times."""
    rows = []
    for r in range(n_distinct):
        t = r / (n_distinct - 1)
        row = (
            Crisp(round(0.1 + 0.8 * t, 9)),
            Crisp(round(0.5 + 0.3 * math.sin(2 * math.pi * t), 9)),
            Crisp(round(0.2 + 0.6 * t * t, 9)),
            Crisp(round(0.9 - 0.7 * t, 9)),
        )
        rows.extend([row] * repeats)
    return DataMatrix((ColumnKind.CRISP,) * 4, tuple(rows))


# -- criteria -----------------------------------------------------------------


def test_criterion_1_worked_example_chain(case1, case1_masked):
    with criterion("criterion 1 (worked-example chain)"):
        started = time.perf_counter()
        to_first = row_distance(case1_masked, 2, 0)
        to_second = row_distance(case1_masked, 2, 1)
        assert to_first == approx(0.2661, abs=5e-4)
        assert to_second == approx(0.0945, abs=5e-4)
        result = impute(case1_masked, k=2)
        by_row = {d.row: d for d in result.trace[CellRef(2, 2)]}
        assert by_row[0].weight == approx(0.2620, abs=1e-3)
        assert by_row[1].weight == approx(0.7380, abs=1e-3)
        filled = result.matrix.cells[2][2]
        assert filled.a1 == approx(0.3935, abs=1e-3)
        assert filled.a2 == approx(0.5604, abs=1e-3)
        assert filled.a3 == approx(0.7273, abs=1e-3)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_error_arithmetic(case1, case1_masked):
    with criterion("criterion 2 (error arithmetic)"):
        completed = impute(case1_masked, k=2).matrix
        gap = cell_distance(case1.cells[2][2], completed.cells[2][2], ColumnKind.FUZZY)
        total = matrix_error(case1, completed)
        assert total == approx(gap / 9, rel=1e-12)
        assert gap == approx(0.061000, abs=1e-3)
        assert total == approx(0.006778, abs=1e-4)
        # the single-cell rule at 4-decimal rounding: a gap of 0.0718 over
        # this 9-cell grid comes out as 0.0080
        assert 0.0718 / 9 == approx(0.0080, abs=5e-5)


def test_criterion_3_case_study_sweeps():
    with criterion("criterion 3 (case-study sweeps)"):
        started = time.perf_counter()
        report2 = benchmark(
            fixture("case2"),
            k_values=range(1, 4),
            missing_counts=range(1, 5),
            trials=500,
            seed=0,
        )
        for k in (1, 2, 3):
            mean = report2.k_summaries[k].mean
            assert 0.5 * 1.0e-2 <= mean <= 2 * 1.9e-2, f"case2 k={k}: {mean}"
        report3 = benchmark(
            fixture("case3"),
            k_values=range(1, 5),
            missing_counts=range(1, 6),
            trials=500,
            seed=0,
        )
        for k in (1, 2, 3, 4):
            mean = report3.k_summaries[k].mean
            assert 0.5 * 5.1e-3 <= mean <= 2 * 5.8e-3, f"case3 k={k}: {mean}"
        assert time.perf_counter() - started < 30.0


def test_criterion_4_synthetic_redundancy_benchmark():
    with criterion("criterion 4 (synthetic crisp benchmark)"):
        means = {}
        for repeats in (1, 2, 4):
            m = smooth_crisp_matrix(80 // repeats, repeats)
            report = benchmark(
                m, k_values=[1, 2, 4], missing_counts=[4, 8], trials=40, seed=0
            )
            pooled = [rec.error for rec in report.trials if rec.error is not None]
            assert len(pooled) == 240
            means[repeats] = sum(pooled) / len(pooled)
        assert all(math.isfinite(v) for v in means.values())
        assert means[1] > 0.0
        assert means[1] >= means[2] >= means[4]
        duplicate_rows = DataMatrix(
            (ColumnKind.CRISP,) * 4,
            tuple([(Crisp(0.3), Crisp(0.6), Crisp(0.2), Crisp(0.8))] * 80),
        )
        report = benchmark(
            duplicate_rows, k_values=[1, 2, 4, 8], missing_counts=[4], trials=10, seed=0
        )
        assert len(report.trials) == 4 * 10
        assert {rec.error for rec in report.trials} == {0.0}


def test_criterion_5_property_suites(tmp_path):
    with criterion("criterion 5 (property suites)"):
        # distance symmetry / nonnegativity / identity, >= 10^4 random cases
        rng = random.Random(501)
        cases = 0
        for kind in ColumnKind:
            for _ in range(3500):
                a = random_cell(rng, kind)
                b = a if rng.random() < 0.1 else random_cell(rng, kind)
                d = cell_distance(a, b, kind)
                assert d >= 0.0
                assert d == cell_distance(b, a, kind)
                assert (d == 0.0) == (a == b)
                assert cell_distance(a, a, kind) == 0.0
                cases += 1
        assert cases >= 10_000

        # convex-combination range and ordering preservation
        rng = random.Random(502)
        for _ in range(200):
            m = random_matrix(rng)
            result = impute(m, rng.randint(1, 4))
            assert parse(serialize(result.matrix)) == result.matrix
            for ref, donors in result.trace.items():
                filled = components(result.matrix.cells[ref.row][ref.col])
                values = [components(m.cells[d.row][ref.col]) for d in donors]
                for pos, value in enumerate(filled):
                    lo = min(v[pos] for v in values)
                    hi = max(v[pos] for v in values)
                    assert lo - 1e-9 <= value <= hi + 1e-9

        # k=1 copies the nearest donor verbatim
        rng = random.Random(503)
        for _ in range(200):
            m = random_matrix(rng)
            result = impute(m, 1)
            for ref, donors in result.trace.items():
                nearest = donors[0].row
                assert result.matrix.cells[ref.row][ref.col] == m.cells[nearest][ref.col]

        # brute-force neighbor-oracle equivalence on matrices with n <= 8
        rng = random.Random(504)
        for _ in range(300):
            m = random_matrix(rng, max_rows=8)
            k = rng.randint(1, 5)
            result = impute(m, k)
            for ref in missing_cells(m):
                ranked = bf_candidate_distances(m, ref.row, ref.col)
                if ref not in result.trace:
                    assert ranked == [] and ref in result.unimputable
                    continue
                donors = result.trace[ref]
                assert len(donors) == min(k, len(ranked))
                chosen = {d.row for d in donors}
                worst = max(d for d, j in ranked if j in chosen)
                best_left = min(
                    (d for d, j in ranked if j not in chosen), default=math.inf
                )
                assert worst <= best_left + 1e-9
                for donor in donors:
                    (bf_d,) = [d for d, j in ranked if j == donor.row]
                    assert donor.distance == approx(bf_d, rel=1e-9, abs=1e-12)
                for donor, w in zip(
                    donors, bf_weights([d.distance for d in donors])
                ):
                    assert donor.weight == approx(w, rel=1e-9, abs=1e-12)

        # parse/serialize bit-exact round-trip on randomized valid matrices
        rng = random.Random(505)
        for _ in range(300):
            scale = 10.0 ** rng.randint(-200, 200)
            m = random_matrix(
                rng, missing_rate=0.2 if rng.random() < 0.8 else 0.0
            )
            scaled = DataMatrix(
                m.schema,
                tuple(
                    tuple(
                        c
                        if isinstance(c, Missing)
                        else type(c)(*(x * scale for x in components(c)))
                        for c in row
                    )
                    for row in m.cells
                ),
            )
            assert parse(serialize(scaled)) == scaled

        # seeded determinism: two identical benchmark runs, byte-equal files
        args = [
            "benchmark", "--fixture", "case1", "--k-min", "1", "--k-max", "2",
            "--nan-min", "1", "--nan-max", "3", "--trials", "25", "--seed", "99",
        ]
        first = tmp_path / "run1.csv"
        second = tmp_path / "run2.csv"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "run1.summary.csv").read_bytes() == (
            tmp_path / "run2.summary.csv"
        ).read_bytes()


def test_criterion_6_zero_distance_regularization():
    with criterion("criterion 6 (zero-distance regularization)"):
        # an exact duplicate donor: distance 0, full weight, verbatim value
        target_value = FuzzyTFN(0.1, 0.2, 0.3)
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.FUZZY),
            cells=(
                (Crisp(0.4), None),
                (Crisp(0.4), target_value),
                (Crisp(0.9), FuzzyTFN(0.5, 0.6, 0.7)),
            ),
        )
        result = impute(m, 2)
        donors = result.trace[CellRef(0, 1)]
        assert [d.weight for d in donors] == [1.0, 0.0]
        assert result.matrix.cells[0][1] == target_value

        # a sub-epsilon but nonzero distance behaves the same way
        m = DataMatrix(
            schema=(ColumnKind.CRISP, ColumnKind.INTERVAL),
            cells=(
                (Crisp(0.0), None),
                (Crisp(1e-26), Interval(0.25, 0.5)),
                (Crisp(0.75), Interval(0.6, 0.9)),
            ),
        )
        result = impute(m, 2)
        donors = result.trace[CellRef(0, 1)]
        assert 0.0 < donors[0].distance < 1e-12
        assert [d.weight for d in donors] == [1.0, 0.0]
        assert result.matrix.cells[0][1] == Interval(0.25, 0.5)
