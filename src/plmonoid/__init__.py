"""Permutation-like matrices: the monoid of 0/1 matrices with one 1 per column.

Structural multiplication, canonical forms, periodicity and eigenvalue
analysis, exact decomposition of left stochastic matrices into convex
combinations of PLMs, and exhaustive verification sweeps.
"""

from .core import (
    CplmParts,
    DenseBinaryMatrix,
    Permutation,
    Plm,
    PlmClass,
    canonicalize,
    classify,
    cplm_parts,
    first_row_ones,
    from_dense,
    identity,
    is_permutation,
    multiply,
    permute_columns,
    permute_rows,
    row_plm,
    structural_multiply,
    tail_column_block,
    to_dense,
)
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    MatrixParseError,
    NotCplmError,
    NotLeftStochasticError,
    NotPlmError,
    PlmError,
    RootFindingError,
    WeightSumNotOneError,
    ZeroColumnError,
)
from .spectral import (
    DEFAULT_TOL,
    CharPoly,
    EigenReport,
    PeriodicityVerdict,
    PowerCycle,
    char_poly,
    eigen_check,
    max_unity_deviation,
    one_norm,
    periodicity,
    power,
    power_cycle,
)
from .stochastic import (
    Decomposition,
    StochasticMatrix,
    check_decomposition,
    convex_combine,
    decompose,
    first_positive_plm,
    first_positive_rows,
    is_left_stochastic,
    random_left_stochastic,
    recompose,
)
from .verify import (
    SweepReport,
    enumerate_plms,
    oracle_multiply,
    plm_from_index,
    sweep_decompose,
    sweep_eigen,
    sweep_multiplication,
    sweep_period,
    sweep_prerow,
)

__version__ = "0.1.0"
