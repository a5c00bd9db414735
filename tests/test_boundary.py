"""Validation happens once, at the boundary.

Each site below builds a value of the library's own types from values that
are already valid, and skips the class's ``__post_init__``.  With that check
patched to raise, the site must still return, and each value it returns must
equal what the validating constructor makes of the same field, so a list
stored where the constructor stores a tuple fails here.
"""

import contextlib
import dataclasses
import io
from fractions import Fraction
from unittest import mock

import pytest

from plmonoid import (
    CplmParts,
    Decomposition,
    DenseBinaryMatrix,
    Permutation,
    Plm,
    StochasticMatrix,
    canonicalize,
    classify,
    cli,
    convex_combine,
    cplm_parts,
    decompose,
    first_positive_plm,
    identity,
    oracle_multiply,
    plm_from_index,
    power,
    random_left_stochastic,
    row_plm,
    tail_column_block,
    to_dense,
)
from plmonoid.verify import _plms

A, B = Plm((2, 1, 1)), Plm((3, 3, 1))
SIGMA, TAU = Permutation((2, 3, 1)), Permutation((1, 3, 2))
M = random_left_stochastic(3, seed=5)
THIRD = Fraction(1, 3)
PARTS = CplmParts(leading=0, v=(1, 0), plc=Plm((2, 2)))


def enumerated_by_cli():
    # The PLMs `plm enumerate 2` writes, caught on their way to the writer.
    with mock.patch.object(cli, "plm_to_colmap_line", wraps=cli.plm_to_colmap_line) as spy:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["enumerate", "2"]) == 0
    assert out.getvalue() == "plm 2: 1 1\nplm 2: 1 2\nplm 2: 2 1\nplm 2: 2 2\n"
    return [call.args[0] for call in spy.call_args_list]


SITES = [
    (Permutation, "Permutation.identity", lambda: Permutation.identity(3)),
    (Permutation, "Permutation.transposition", lambda: Permutation.transposition(4, 1, 3)),
    (Permutation, "Permutation.__mul__", lambda: SIGMA * TAU),
    (Permutation, "Permutation.inverse", lambda: SIGMA.inverse()),
    (Permutation, "classify", lambda: classify(Plm((2, 1, 2))).tau),
    (Permutation, "canonicalize-transposition", lambda: canonicalize(A)[0]),
    (Permutation, "canonicalize-identity", lambda: canonicalize(Plm((1, 2, 3)))[0]),
    (DenseBinaryMatrix, "to_dense", lambda: to_dense(A)),
    (DenseBinaryMatrix, "oracle_multiply", lambda: oracle_multiply(to_dense(A), to_dense(B))),
    (DenseBinaryMatrix, "tail_column_block", lambda: tail_column_block(Plm((2, 3, 3)), 1)),
    (CplmParts, "cplm_parts", lambda: cplm_parts(Plm((2, 3, 3)))),
    (Plm, "power-identity", lambda: power(A, 0)),
    (Plm, "identity", lambda: identity(3)),
    (Plm, "row_plm", lambda: row_plm(3, 2)),
    (Plm, "plm_from_index", lambda: plm_from_index(3, 5)),
    (Plm, "CplmParts.assemble", lambda: PARTS.assemble()),
    (Plm, "first_positive_plm", lambda: first_positive_plm(M)),
    (Plm, "verify._plms", lambda: list(_plms(2))),
    (Plm, "cli.cmd_enumerate", enumerated_by_cli),
    (StochasticMatrix, "convex_combine", lambda: convex_combine([(THIRD, A), (1 - THIRD, B)])),
    (StochasticMatrix, "random_left_stochastic", lambda: random_left_stochastic(3, seed=7)),
    (StochasticMatrix, "StochasticMatrix.from_plm", lambda: StochasticMatrix.from_plm(A)),
    (Decomposition, "decompose", lambda: decompose(M)),
]


@pytest.mark.parametrize("cls, site", [(cls, site) for cls, _, site in SITES],
                         ids=[name for _, name, _ in SITES])
def test_site_builds_without_validating_again(cls, site):
    def refuse(self):
        raise AssertionError(f"{cls.__name__} validated again")

    with mock.patch.object(cls, "__post_init__", refuse):
        built = site()
    names = [field.name for field in dataclasses.fields(cls)]
    for value in built if isinstance(built, list) else [built]:
        assert type(value) is cls
        assert value == cls(**{name: getattr(value, name) for name in names})
