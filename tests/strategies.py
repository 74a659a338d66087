"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import hypothesis.strategies as st

from hetimpute.core import (
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
)

# Distance/imputation properties use components on a 6-decimal grid: values
# that differ, differ by enough that squaring never underflows to zero and
# the algebraic identities under test are not blurred by last-ulp noise.
# The codec tests override this with raw full-range floats.


def grid_reals(lo: float = -10.0, hi: float = 10.0) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi, allow_nan=False).map(
        lambda x: round(x, 6)
    )


def raw_reals() -> st.SearchStrategy[float]:
    return st.floats(allow_nan=False, allow_infinity=False)


def edge_reals() -> st.SearchStrategy[float]:
    """Ties ({0, 1, 2}), extremes (±1e300, the smallest subnormal, ±the largest
    double) and any finite float, a third each."""
    return st.one_of(
        st.sampled_from([0.0, 1.0, 2.0]),
        st.sampled_from([1e300, -1e300, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
        raw_reals(),
    )


def cell_values(kind: ColumnKind, elements=None) -> st.SearchStrategy:
    elements = elements if elements is not None else grid_reals()
    if kind is ColumnKind.CRISP:
        return st.builds(Crisp, elements)
    if kind is ColumnKind.INTERVAL:
        return st.lists(elements, min_size=2, max_size=2).map(
            lambda xs: Interval(*sorted(xs))
        )
    return st.lists(elements, min_size=3, max_size=3).map(
        lambda xs: FuzzyTFN(*sorted(xs))
    )


column_kinds = st.sampled_from(list(ColumnKind))


@st.composite
def matrices(
    draw,
    min_rows: int = 1,
    max_rows: int = 8,
    min_cols: int = 1,
    max_cols: int = 5,
    missing_pct: int = 25,
    elements=None,
) -> DataMatrix:
    n = draw(st.integers(min_rows, max_rows))
    m = draw(st.integers(min_cols, max_cols))
    schema = tuple(draw(column_kinds) for _ in range(m))
    rows = []
    for _ in range(n):
        row = []
        for kind in schema:
            if missing_pct and draw(st.integers(0, 99)) < missing_pct:
                row.append(None)
            else:
                row.append(draw(cell_values(kind, elements)))
        rows.append(tuple(row))
    return DataMatrix(schema, tuple(rows))


def complete_matrices(**kwargs) -> st.SearchStrategy[DataMatrix]:
    return matrices(missing_pct=0, **kwargs)

