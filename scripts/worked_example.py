#!/usr/bin/env python3
"""Walk the built-in 3x3 example through one imputation, printing every
intermediate quantity: the row distances to the row with the gap, the
inverse-distance weights, the blended fuzzy value, and the resulting error.
"""

from hetimpute import (
    MISSING,
    CellRef,
    ColumnKind,
    cell_distance,
    fixture,
    impute,
    matrix_error,
    row_distance,
    serialize,
)


def main() -> None:
    original = fixture("case1")
    masked = original.with_cell(2, 2, MISSING)
    print("input (fuzzy cell at row 2, column 2 removed):")
    print(serialize(masked))

    for donor_row in (0, 1):
        rd = row_distance(masked, 2, donor_row)
        print(
            f"distance from row 2 to row {donor_row}: {rd.value:.4f} "
            f"(over {rd.shared_features} shared columns)"
        )

    result = impute(masked, k=2)
    for donor in result.trace[CellRef(2, 2)].donors:
        print(f"donor row {donor.row}: weight {donor.weight:.4f}")

    completed = result.matrix
    filled = completed.cell(2, 2)
    print(f"imputed fuzzy value: ({filled.a1:.4f}, {filled.a2:.4f}, {filled.a3:.4f})")

    gap = cell_distance(original.cell(2, 2), filled, ColumnKind.FUZZY)
    print(f"distance to the true value: {gap:.4f}")
    print(f"whole-matrix error: {matrix_error(original, completed):.4f}")


if __name__ == "__main__":
    main()
