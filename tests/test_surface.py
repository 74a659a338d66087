"""The package's public surface, pinned so that changing it is deliberate."""

from types import ModuleType

import hetimpute

PUBLIC_NAMES = [
    "CellRef",
    "ColumnKind",
    "Crisp",
    "DataMatrix",
    "FuzzyTFN",
    "Interval",
    "Missing",
    "ParseError",
    "__version__",
    "benchmark",
    "cell_distance",
    "components",
    "fixture",
    "impute",
    "mask_random",
    "matrix_error",
    "parse",
    "row_distance",
    "serialize",
]


def test_public_names_are_pinned():
    # Submodules are attributes of the package too, but they are no names
    # that its __init__ chose to export.
    names = sorted(
        name
        for name, value in vars(hetimpute).items()
        if (not name.startswith("_") or name == "__version__")
        and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC_NAMES
