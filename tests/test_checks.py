"""Each check has one home.

The rule that operands share a dimension lives in ``core._require_same_dim``,
and the rule that a grid of entries is non-empty and square in
``core._require_square``.  Every site that states either rule is reached
here through its public name and must raise that helper's error, with the
site's own message.  The last tests reach argument checks next to them.
"""

import re
from fractions import Fraction

import pytest

from plmonoid import (
    Decomposition,
    DenseBinaryMatrix,
    DimensionMismatchError,
    InvalidArgumentError,
    MatrixParseError,
    NotLeftStochasticError,
    Permutation,
    Plm,
    StochasticMatrix,
    check_decomposition,
    convex_combine,
    decompose,
    from_dense,
    identity,
    multiply,
    oracle_multiply,
    permute_columns,
    permute_rows,
    structural_multiply,
    to_dense,
)
from plmonoid.formats import parse_stochastic_text

A2, A3 = identity(2), identity(3)
P2, P3 = Permutation.identity(2), Permutation.identity(3)
HALF = Fraction(1, 2)
M2, DEC3 = StochasticMatrix.from_plm(A2), decompose(StochasticMatrix.from_plm(A3))

DIMENSION_SITES = [
    ("Permutation.__mul__", lambda: Permutation((2, 1)) * P3, "permutation dims 2 != 3"),
    ("Plm.__mul__", lambda: Plm((2, 1)) * A3, "dims 2 != 3"),
    ("multiply", lambda: multiply(A2, A3), "dims 2 != 3"),
    ("structural_multiply", lambda: structural_multiply(A3, A2), "dims 3 != 2"),
    ("permute_rows", lambda: permute_rows(P3, A2), "dims 3 != 2"),
    ("permute_columns", lambda: permute_columns(P2, A3), "dims 2 != 3"),
    ("Decomposition", lambda: Decomposition(((HALF, A2), (HALF, A3))), "term dims 3 != 2"),
    ("check_decomposition", lambda: check_decomposition(M2, DEC3), "term dims 3 != 2"),
    ("convex_combine", lambda: convex_combine([(HALF, A2), (HALF, A3)]), "term dims 3 != 2"),
    ("oracle_multiply", lambda: oracle_multiply(to_dense(A2), to_dense(A3)), "dims 2 != 3"),
]


@pytest.mark.parametrize("call, message", [(call, message) for _, call, message in DIMENSION_SITES],
                         ids=[name for name, _, _ in DIMENSION_SITES])
def test_operands_of_different_dimensions(call, message):
    # One error type at every site, the oracle included.
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
        call()


def test_dimension_mismatch_is_a_value_error():
    # So callers that catch ValueError, as the oracle's callers did, keep working.
    assert issubclass(DimensionMismatchError, ValueError)


SQUARE_SITES = {
    "DenseBinaryMatrix": DenseBinaryMatrix,
    "from_dense": from_dense,
    "StochasticMatrix": StochasticMatrix,
}


@pytest.mark.parametrize("build", SQUARE_SITES.values(), ids=SQUARE_SITES.keys())
@pytest.mark.parametrize(
    "grid, message",
    [
        ((), "empty matrix"),
        (((1, 0), (0,)), "not square: 2 rows but row 2 has 1 entries"),
        (((1, 0),), "not square: 1 rows but row 1 has 2 entries"),
        (((1, 0, 0), (0, 1, 0)), "not square: 2 rows but row 1 has 3 entries"),
    ],
    ids=["empty", "short-row", "wide", "too-few-rows"],
)
def test_grids_that_are_empty_or_not_square(build, grid, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(grid)


def test_stochastic_shape_is_checked_before_the_entries():
    # A negative entry in a grid that is not square is a shape error.
    with pytest.raises(ValueError, match=r"^not square: 2 rows but row 2 has 1 entries$"):
        StochasticMatrix(((-1, 0), (0,)))
    with pytest.raises(NotLeftStochasticError, match="^negative entry -1 at row 1, column 1$"):
        StochasticMatrix(((-1, 0), (0, 1)))


@pytest.mark.parametrize("i, j", [(1, 4), (0, 2), (3, -1)])
def test_transposition_refuses_points_out_of_range(i, j):
    with pytest.raises(InvalidArgumentError, match=rf"^points {i}, {j} out of range 1\.\.3$"):
        Permutation.transposition(3, i, j)


def test_stochastic_reader_refuses_a_row_of_the_wrong_length():
    with pytest.raises(MatrixParseError, match=r"^m\.txt:3: expected 2 entries, found 1$") as err:
        parse_stochastic_text("2\n1/2 1\n1/2\n", "m.txt")
    assert err.value.line == 3


def test_plm_operator_is_the_product():
    for a in (Plm((2, 1, 1)), Plm((3, 3, 1)), A3):
        for b in (Plm((1, 1, 2)), Plm((2, 3, 1)), A3):
            assert a * b == multiply(a, b)
