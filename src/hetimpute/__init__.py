"""k-nearest-neighbor imputation for heterogeneous tabular data.

Matrices mix crisp reals, closed intervals, and triangular fuzzy numbers,
one kind per column. Missing cells are filled from the k most similar rows
under a missingness-aware distance, weighted by inverse distance. A masking
benchmark measures imputation error, and a typed-CSV codec moves matrices
on and off disk.
"""

from .core import (
    CellRef,
    ColumnKind,
    Crisp,
    DataMatrix,
    FuzzyTFN,
    Interval,
    Missing,
    components,
)
from .distances import cell_distance, row_distance
from .evaluation import benchmark, mask_random, matrix_error
from .fixtures import fixture
from .imputer import impute
from .typed_csv import ParseError, parse, serialize

__version__ = "0.1.0"
