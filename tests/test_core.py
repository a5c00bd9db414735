"""Core PLM types, actions, classification, and structural multiplication.

Expected values in here were either worked out by hand from the dense forms
or cross-checked against the dense oracles defined at the top of the file;
nothing is asserted that a second route does not confirm.
"""

import copy
import dataclasses
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

from plmonoid import (
    CplmParts,
    DenseBinaryMatrix,
    DimensionMismatchError,
    InvalidArgumentError,
    NotCplmError,
    NotPlmError,
    Permutation,
    Plm,
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
from plmonoid.core import _plm_trusted
from plmonoid.verify import enumerate_plms, oracle_multiply, plm_from_index


def rand_plm(rng, d):
    return Plm(tuple(rng.randint(1, d) for _ in range(d)))


def dense_rows(a):
    return [list(row) for row in to_dense(a).entries]


def dense_move_rows(a, sigma):
    """Independent row-action oracle: write row r of the dense form at sigma(r)."""
    d = a.dim
    src = dense_rows(a)
    out = [[0] * d for _ in range(d)]
    for r in range(1, d + 1):
        out[sigma(r) - 1] = src[r - 1]
    return from_dense(out)


def dense_move_columns(a, tau):
    """Independent column-action oracle: write column c at position tau(c)."""
    d = a.dim
    src = dense_rows(a)
    out = [[0] * d for _ in range(d)]
    for c in range(1, d + 1):
        for i in range(d):
            out[i][tau(c) - 1] = src[i][c - 1]
    return from_dense(out)


class TestPermutation:
    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]
        assert e.is_identity()

    def test_transposition(self):
        t = Permutation.transposition(3, 1, 3)
        assert t.images == (3, 2, 1)
        assert t.inverse() == t

    def test_compose_applies_right_factor_first(self):
        s = Permutation((2, 3, 1))
        t = Permutation.transposition(3, 1, 2)
        assert (s * t)(1) == s(t(1))
        assert (s * t).images == tuple(s(t(i)) for i in (1, 2, 3))

    def test_inverse(self):
        rng = random.Random(7)
        for d in (1, 2, 5, 8):
            images = list(range(1, d + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_rejects_non_int_images(self):
        # bool and float compare equal to ints, so only the exact type check
        # catches them
        for images in ((1.0, 2.0), (True, 2), (2, "1")):
            with pytest.raises(ValueError):
                Permutation(images)

    @pytest.mark.parametrize("args, name", [
        ((3, 1.0, 2), "i"), ((3, 1, True), "j"), ((3.0, 1, 2), "d"), ((True, 1, 1), "d"),
    ])
    def test_transposition_rejects_non_int_arguments(self, args, name):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an int"):
            Permutation.transposition(*args)

    @pytest.mark.parametrize("make, d", [
        (lambda: Permutation(()), 0),
        (lambda: Permutation.identity(0), 0),
        (lambda: Permutation.identity(-3), -3),
        *[
            pytest.param(lambda make=make, d=d: make(d), d, id=f"{name}-{d}")
            for name, make in [
                ("identity", identity),
                ("row_plm", lambda d: row_plm(d, 1)),
                ("transposition", lambda d: Permutation.transposition(d, 1, 1)),
                ("plm_from_index", lambda d: plm_from_index(d, 0)),
            ]
            for d in (0, -1)
        ],
    ])
    def test_refuses_a_dimension_below_one(self, make, d):
        # the same refusal and message as the sweeps, from core._require_dim
        with pytest.raises(InvalidArgumentError, match=f"^dimension {d} must be >= 1$"):
            make()


class TestPlmConstruction:
    def test_colmap_must_be_in_range(self):
        with pytest.raises(ValueError):
            Plm((1, 4, 2))
        with pytest.raises(ValueError):
            Plm((0, 1))
        with pytest.raises(ValueError):
            Plm(())

    def test_rejects_non_int_entries(self):
        for colmap in ((True, 2), (1.0, 2), (2, "1")):
            with pytest.raises(ValueError):
                Plm(colmap)

    def test_hashable_and_equal_by_value(self):
        assert Plm((2, 1)) == Plm([2, 1])
        assert len({Plm((1, 1)), Plm((1, 1)), Plm((1, 2))}) == 2

    def test_from_dense_reads_column_positions(self):
        a = from_dense([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
        assert a.colmap == (2, 3, 3)

    def test_from_dense_round_trips_everything(self):
        for d in (1, 2, 3):
            for a in enumerate_plms(d):
                assert from_dense(to_dense(a)) == a

    def test_from_dense_rejects_doubled_column(self):
        with pytest.raises(NotPlmError) as err:
            from_dense([[1, 0], [1, 0]])
        assert err.value.column == 1
        assert err.value.count == 2

    def test_from_dense_rejects_bad_entry_and_shape(self):
        with pytest.raises(NotPlmError):
            from_dense([[2, 0], [0, 1]])
        with pytest.raises(ValueError):
            from_dense([[1, 0]])

    @pytest.mark.parametrize(
        "grid,message,column,count",
        [
            # a bad entry in column 1 at row 3 beats one in column 2 at row 1
            ([[0, 7, 1], [1, 0, 0], [5, 1, 0]], "entry 5 at row 3, column 1 is not 0 or 1", 1,
             None),
            # a bad entry beats its own column's count error
            ([[1, 0, 0], [1, 1, 0], [3, 0, 1]], "entry 3 at row 3, column 1 is not 0 or 1", 1,
             None),
            # a count error in column 1 beats a bad entry in column 2
            ([[0, 9, 1], [0, 1, 0], [0, 0, 0]], "column 1 has 0 ones", 1, 0),
            ([[1, 0], [0, 0]], "column 2 has 0 ones", 2, 0),
            ([[1, 0.5], [0, 1]], "entry 0.5 at row 1, column 2 is not 0 or 1", 2, None),
            ([[1, 0], [0, -1]], "entry -1 at row 2, column 2 is not 0 or 1", 2, None),
            ([[True, 1.0], [1, 0]], "column 1 has 2 ones", 1, 2),
        ],
    )
    def test_from_dense_reports_the_first_bad_column(self, grid, message, column, count):
        with pytest.raises(NotPlmError) as err:
            from_dense(grid)
        assert (str(err.value), err.value.column, err.value.count) == (message, column, count)

    def test_from_dense_reads_equal_values_as_zero_and_one(self):
        assert from_dense([[True, 0.0], [False, 1.0]]) == identity(2)

    def test_row_plm_range(self):
        assert row_plm(3, 2).colmap == (2, 2, 2)
        with pytest.raises(InvalidArgumentError, match=r"^row 4 out of range 1\.\.3$"):
            row_plm(3, 4)

    @pytest.mark.parametrize("args, name", [((True, 1), "d"), ((2.0, 1), "d"), ((3, 2.0), "m")])
    def test_row_plm_rejects_non_int_arguments(self, args, name):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an int"):
            row_plm(*args)

    @pytest.mark.parametrize("d", [True, 2.0, "2"])
    def test_identity_rejects_non_int_dimension(self, d):
        with pytest.raises(InvalidArgumentError, match="^d must be an int"):
            identity(d)


class TestSlottedPlm:
    # Plm keeps its one field in a slot; the library's unchecked builder
    # writes that slot directly, and must give the value Plm(cm) gives.
    @pytest.mark.parametrize("cm", [(1,), (2, 1), (3, 3, 3), (2, 3, 1, 1)])
    def test_trusted_build_equals_the_checked_one(self, cm):
        a, b = _plm_trusted(cm), Plm(cm)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert type(a) is Plm and a.colmap is cm

    def test_has_no_instance_dict(self):
        a = Plm((2, 1))
        assert Plm.__slots__ == ("colmap",)
        assert not hasattr(a, "__dict__") and not hasattr(_plm_trusted((2, 1)), "__dict__")

    def test_assignment_is_refused(self):
        a = _plm_trusted((2, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.colmap = (1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del a.colmap
        # Any other name is refused too.  On Python 3.10 and 3.11 the frozen
        # __setattr__ of a slotted dataclass reaches super() with the class
        # that slots=True replaced, which raises TypeError for such a name.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            a.other = 1
        assert a.colmap == (2, 1) and not hasattr(a, "other")

    @pytest.mark.parametrize("a", [Plm((2, 3, 1)), _plm_trusted((1, 1)), identity(1)])
    def test_pickle_and_copy_round_trip(self, a):
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(b) is Plm and b == a and hash(b) == hash(a)
            assert b.colmap == a.colmap and type(b.colmap) is tuple


class TestMultiply:
    def test_swap_matrix_squares_to_identity(self):
        p = Plm((2, 1))
        assert multiply(p, p) == identity(2)

    def test_swap_matrix_toggles_row_matrices(self):
        p = Plm((2, 1))
        assert multiply(p, row_plm(2, 1)) == row_plm(2, 2)
        assert multiply(p, row_plm(2, 2)) == row_plm(2, 1)

    def test_identity_is_neutral_exhaustive_d3(self):
        e = identity(3)
        for a in enumerate_plms(3):
            assert multiply(e, a) == a
            assert multiply(a, e) == a

    def test_row_matrices_absorb_from_the_left(self):
        for d in (2, 3):
            for m in range(1, d + 1):
                r = row_plm(d, m)
                for a in enumerate_plms(d):
                    assert multiply(r, a) == r
        rng = random.Random(11)
        for _ in range(50):
            d = rng.randint(2, 8)
            m = rng.randint(1, d)
            assert multiply(row_plm(d, m), rand_plm(rng, d)) == row_plm(d, m)

    def test_right_row_factor_replicates_one_column(self):
        rng = random.Random(12)
        for _ in range(100):
            d = rng.randint(2, 8)
            a = rand_plm(rng, d)
            m = rng.randint(1, d)
            assert multiply(a, row_plm(d, m)) == row_plm(d, a.colmap[m - 1])

    def test_matches_dense_oracle_exhaustive_d2_d3(self):
        for d in (2, 3):
            elems = enumerate_plms(d)
            denses = [to_dense(a) for a in elems]
            for i, a in enumerate(elems):
                for j, b in enumerate(elems):
                    assert multiply(a, b) == from_dense(oracle_multiply(denses[i], denses[j]))

    def test_associative(self):
        rng = random.Random(13)
        for _ in range(200):
            d = rng.randint(2, 10)
            a, b, c = (rand_plm(rng, d) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(identity(2), identity(3))


class TestActions:
    def test_row_swap_turns_r1_into_r2(self):
        sigma = Permutation.transposition(3, 1, 2)
        assert permute_rows(sigma, row_plm(3, 1)) == row_plm(3, 2)

    def test_row_action_worked_example(self):
        sigma = Permutation.transposition(3, 1, 3)
        moved = permute_rows(sigma, Plm((2, 3, 3)))
        assert moved.colmap == (2, 1, 1)
        assert moved == dense_move_rows(Plm((2, 3, 3)), sigma)

    def test_column_swap_straightens_the_swap_matrix(self):
        tau = Permutation.transposition(2, 1, 2)
        assert permute_columns(tau, Plm((2, 1))) == identity(2)

    def test_actions_match_dense_oracles(self):
        rng = random.Random(21)
        for _ in range(150):
            d = rng.randint(2, 7)
            a = rand_plm(rng, d)
            images = list(range(1, d + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            assert permute_rows(p, a) == dense_move_rows(a, p)
            assert permute_columns(p, a) == dense_move_columns(a, p)

    def test_actions_compose_as_left_actions(self):
        rng = random.Random(22)
        for _ in range(100):
            d = rng.randint(2, 7)
            a = rand_plm(rng, d)
            perms = []
            for _ in range(2):
                images = list(range(1, d + 1))
                rng.shuffle(images)
                perms.append(Permutation(tuple(images)))
            s, t = perms
            assert permute_rows(s * t, a) == permute_rows(s, permute_rows(t, a))
            assert permute_columns(s * t, a) == permute_columns(s, permute_columns(t, a))

    def test_row_action_slides_past_right_factors(self):
        rng = random.Random(23)
        for _ in range(100):
            d = rng.randint(2, 7)
            a, b = rand_plm(rng, d), rand_plm(rng, d)
            images = list(range(1, d + 1))
            rng.shuffle(images)
            p = Permutation(tuple(images))
            for mul in (multiply, structural_multiply):
                assert permute_rows(p, mul(a, b)) == mul(permute_rows(p, a), b)
                assert permute_columns(p, mul(a, b)) == mul(a, permute_columns(p, b))


def test_first_row_ones_counts_row_one_hits():
    assert first_row_ones(Plm((2, 3, 3))) == 0
    assert first_row_ones(identity(4)) == 1
    assert first_row_ones(row_plm(4, 1)) == 4
    for d in (2, 3):
        for a in enumerate_plms(d):
            assert first_row_ones(a) == sum(to_dense(a).entries[0])


def test_is_permutation():
    assert is_permutation(identity(4))
    assert is_permutation(Plm((2, 1)))
    assert not is_permutation(row_plm(3, 2))
    for a in enumerate_plms(3):
        assert is_permutation(a) == (sorted(a.colmap) == [1, 2, 3])


class TestClassify:
    def test_worked_examples(self):
        assert classify(Plm((2, 3, 3))).to_json_dict() == {"class": "cplm", "leading": False}
        assert classify(row_plm(3, 1)).to_json_dict() == {"class": "rowplm", "m": 1}
        assert classify(row_plm(3, 3)).to_json_dict() == {"class": "rowplm", "m": 3}
        assert classify(identity(3)).to_json_dict() == {"class": "cplm", "leading": True}
        verdict = classify(Plm((2, 1, 3)))
        assert verdict.kind == "pcplm"
        assert verdict.tau.images == (2, 1, 3)

    def test_iplm_needs_partial_first_row(self):
        assert classify(Plm((1, 1, 2))).kind == "iplm"
        assert classify(Plm((1, 1, 2, 3))).kind == "iplm"

    def test_dimension_one_is_a_row_matrix(self):
        assert classify(Plm((1,))).to_json_dict() == {"class": "rowplm", "m": 1}

    def _expected_kind(self, a):
        # Definitional predicates straight off the dense form, with the same
        # precedence: row > canonical > pseudo-canonical > incomplete.
        d = a.dim
        dense = dense_rows(a)
        if all(a.colmap[j] == a.colmap[0] for j in range(d)):
            return "rowplm"
        if all(dense[0][j] == 0 for j in range(1, d)):
            return "cplm"
        z = sum(dense[0])
        if z == 1:
            return "pcplm"
        assert 1 < z < d
        return "iplm"

    def test_exhaustive_against_dense_predicates(self):
        for d in (2, 3, 4):
            for a in enumerate_plms(d):
                verdict = classify(a)
                assert verdict.kind == self._expected_kind(a)
                if verdict.kind == "rowplm":
                    assert a == row_plm(d, verdict.m)
                if verdict.kind == "cplm":
                    assert verdict.leading == (a.colmap[0] == 1)
                if verdict.kind == "pcplm":
                    # the witness must actually move the matrix into canonical form
                    straightened = permute_columns(verdict.tau, a)
                    assert classify(straightened).kind == "cplm"


class TestCanonicalize:
    def test_worked_example(self):
        sigma, b = canonicalize(Plm((3, 1, 1)))
        assert sigma.images == (2, 1, 3)
        assert b == Plm((3, 2, 2))
        assert dense_rows(b) == [[0, 0, 0], [0, 1, 1], [1, 0, 0]]

    def test_r1_moves_to_r2(self):
        for d in (2, 3, 5):
            sigma, b = canonicalize(row_plm(d, 1))
            assert sigma.images == Permutation.transposition(d, 1, 2).images
            assert b == row_plm(d, 2)

    def test_postconditions_exhaustive(self):
        for d in (2, 3, 4):
            for a in enumerate_plms(d):
                sigma, b = canonicalize(a)
                assert b == permute_rows(sigma, a)
                verdict = classify(b)
                assert verdict.kind == "cplm" or (verdict.kind == "rowplm" and verdict.m > 1)
                already = classify(a)
                if already.kind == "cplm" or (already.kind == "rowplm" and already.m > 1):
                    assert sigma.is_identity()
                else:
                    assert not sigma.is_identity()


class TestCplmParts:
    def test_worked_examples(self):
        parts = cplm_parts(Plm((2, 3, 3)))
        assert parts == CplmParts(leading=0, v=(1, 0), plc=Plm((2, 2)))
        parts = cplm_parts(row_plm(3, 3))
        assert (parts.leading, parts.v, parts.plc) == (0, (0, 1), row_plm(2, 2))
        parts = cplm_parts(identity(3))
        assert (parts.leading, parts.v, parts.plc) == (1, (0, 0), identity(2))

    def test_blocks_match_the_dense_form(self):
        for d in (2, 3, 4):
            for a in enumerate_plms(d):
                verdict = classify(a)
                if not (verdict.kind == "cplm" or (verdict.kind == "rowplm" and verdict.m > 1)):
                    continue
                dense = dense_rows(a)
                parts = cplm_parts(a)
                assert parts.leading == dense[0][0]
                assert list(parts.v) == [dense[i][0] for i in range(1, d)]
                assert dense_rows(parts.plc) == [row[1:] for row in dense[1:]]
                assert parts.assemble() == a

    def test_rejects_non_canonical(self):
        for bad in (Plm((2, 1)), row_plm(3, 1), Plm((1, 1, 2))):
            with pytest.raises(NotCplmError):
                cplm_parts(bad)

    @pytest.mark.parametrize(
        "leading, v, plc, message",
        [
            (True, (0, 0), identity(2), r"^leading entry True is not the int 0 or 1$"),
            (1.0, (0, 0), identity(2), r"^leading entry 1\.0 is not the int 0 or 1$"),
            (2, (0, 0), identity(2), r"^leading entry 2 is not the int 0 or 1$"),
            # Assembled to Plm((1, 2, 3)), dropping the extra entries.
            (1, (1, 0, 0, 0), identity(2), r"^v \(1, 0, 0, 0\) is not 2 ints, each 0 or 1$"),
            (0, (1,), identity(2), r"^v \(1,\) is not 2 ints, each 0 or 1$"),
            (0, (0, 2), identity(2), r"^v \(0, 2\) is not 2 ints, each 0 or 1$"),
            (0, (True, 0), identity(2), r"^v \(True, 0\) is not 2 ints, each 0 or 1$"),
            (0, (1.0, 0), identity(2), r"^v \(1\.0, 0\) is not 2 ints, each 0 or 1$"),
            (1, (0, 1), identity(2), r"^column 1 holds 2 ones, not exactly one$"),
            # Ended in "tuple.index(x): x not in tuple" from assemble().
            (0, (0, 0), identity(2), r"^column 1 holds 0 ones, not exactly one$"),
            (0, (1, 0), (1, 2), r"^plc \(1, 2\) is not a Plm$"),
        ],
    )
    def test_refuses_parts_that_are_not_a_cplm(self, leading, v, plc, message):
        with pytest.raises(ValueError, match=message):
            CplmParts(leading=leading, v=v, plc=plc)

    def test_parts_from_the_caller_assemble(self):
        parts = CplmParts(leading=0, v=[0, 1], plc=Plm((2, 2)))
        assert parts.v == (0, 1)
        assert parts.assemble() == Plm((3, 3, 3))


class TestTailColumnBlock:
    def test_worked_example(self):
        a = CplmParts(leading=0, v=(0, 1, 0), plc=identity(3)).assemble()
        block = tail_column_block(a, 2)
        assert block.entries == ((0, 0, 0), (1, 1, 0), (0, 0, 0))

    def test_zero_columns_gives_zero_block(self):
        block = tail_column_block(Plm((2, 3, 3)), 0)
        assert all(x == 0 for row in block.entries for x in row)

    def test_range_and_class_errors(self):
        with pytest.raises(InvalidArgumentError, match=r"^column count 3 out of range 0\.\.2$"):
            tail_column_block(Plm((2, 3, 3)), 3)
        with pytest.raises(NotCplmError):
            tail_column_block(Plm((1, 1, 2)), 1)

    @pytest.mark.parametrize("n", [True, 1.5, 1.0])
    def test_rejects_non_int_column_count(self, n):
        with pytest.raises(InvalidArgumentError, match="^n must be an int"):
            tail_column_block(Plm((2, 3, 3)), n)


def regroup_iplms(bs):
    """Move the first-row ones of IPLMs ``bs``, which share their number z of
    them, into columns 1..z.  Returns the column moves, as indices for
    ``np.take_along_axis``, and the stacked dense regrouped matrices, each of
    which has the blocks [[1, u], [0, B']] with u = (1,)*(z-1) + (0,)*(d-z)."""
    d, z = bs[0].dim, first_row_ones(bs[0])
    orders = np.array([
        [j for j in range(d) if b.colmap[j] == 1] + [j for j in range(d) if b.colmap[j] != 1]
        for b in bs
    ])
    moves = np.broadcast_to(orders[:, None, :], (len(bs), d, d))
    regrouped = np.take_along_axis(np.array([dense_rows(b) for b in bs]), moves, axis=2)
    assert (regrouped[:, 0, :z] == 1).all() and (regrouped[:, 0, z:] == 0).all()
    assert (regrouped[:, 1:, 0] == 0).all()
    return moves, regrouped


def iplm_block_products(a, moves, regrouped):
    """Dense reference for the IPLM step: the column maps of ``a * b`` for a
    CPLM ``a`` and the IPLMs b regrouped by :func:`regroup_iplms`.

    With ``a`` as [[l, 0], [v, P]] the regrouped product is
    [[l, l*u], [v, C + P*B']], where C = tail_column_block(a, z-1) is the
    correction block; its columns are then moved back.
    """
    parts = cplm_parts(a)
    u = regrouped[0, 0, 1:]
    prod = np.zeros_like(regrouped)
    prod[:, 0, 0] = parts.leading
    prod[:, 0, 1:] = parts.leading * u
    prod[:, 1:, 0] = parts.v
    prod[:, 1:, 1:] = (
        np.array(tail_column_block(a, int(u.sum())).entries)
        + np.array(dense_rows(parts.plc)) @ regrouped[:, 1:, 1:]
    )
    out = np.empty_like(prod)
    np.put_along_axis(out, moves, prod, axis=2)
    assert ((out == 0) | (out == 1)).all() and (out.sum(axis=1) == 1).all()
    return [tuple(cm) for cm in (out.argmax(axis=1) + 1).tolist()]


class TestStructuralMultiply:
    def test_agrees_exhaustively_d2_d3(self):
        for d in (2, 3):
            for a in enumerate_plms(d):
                for b in enumerate_plms(d):
                    assert structural_multiply(a, b) == multiply(a, b)

    def test_agrees_on_random_larger_dims(self):
        rng = random.Random(31)
        for d in (5, 6, 7, 8):
            for _ in range(200):
                a, b = rand_plm(rng, d), rand_plm(rng, d)
                assert structural_multiply(a, b) == multiply(a, b)

    def test_canonical_products_stay_canonical(self):
        # the blockwise case: products of canonical matrices are canonical
        for d in (2, 3, 4):
            cplms = [a for a in enumerate_plms(d) if classify(a).kind == "cplm"]
            for a in cplms:
                for b in cplms:
                    prod = structural_multiply(a, b)
                    assert all(r >= 2 for r in prod.colmap[1:]) or prod.colmap[0] == 1
                    assert all(to_dense(prod).entries[0][j] == 0 for j in range(1, d))

    def test_zero_led_row_component_absorbs_to_next_row(self):
        # at d=3: zero-led canonical with row-PLM component times any
        # non-leading canonical lands on the next row matrix up
        for m in (1, 2):
            lefts = [
                a
                for a in enumerate_plms(3)
                if classify(a).kind in ("cplm", "rowplm")
                and a.colmap[0] != 1
                and cplm_parts(a).plc == row_plm(2, m)
            ]
            rights = [b for b in enumerate_plms(3) if classify(b).kind == "cplm" and not classify(b).leading]
            assert lefts and rights
            for a in lefts:
                for b in rights:
                    assert structural_multiply(a, b) == row_plm(3, m + 1)

    def test_iplm_step_matches_the_block_formula_exhaustive_d3_d5(self):
        for d in (3, 4, 5):
            plms = enumerate_plms(d)
            groups = {}
            for b in plms:
                if classify(b).kind == "iplm":
                    groups.setdefault(first_row_ones(b), []).append(b)
            assert sorted(groups) == list(range(2, d))
            regrouped = [(bs, *regroup_iplms(bs)) for bs in groups.values()]
            for a in plms:
                if classify(a).kind != "cplm":
                    continue
                for bs, moves, dense in regrouped:
                    expected = iplm_block_products(a, moves, dense)
                    assert [structural_multiply(a, b).colmap for b in bs] == expected

    def test_iplm_step_at_large_dimension_in_linear_memory(self):
        # b has 700 first-row ones, so the product takes the IPLM step at the
        # top level; a dense (d-1) x (d-1) correction block would take tens of
        # megabytes
        rng = random.Random(41)
        d = 3000
        a = rand_plm(rng, d)
        ones = set(rng.sample(range(d), 700))
        b = Plm(tuple(1 if j in ones else rng.randint(2, d) for j in range(d)))
        assert classify(b).kind == "iplm"
        tracemalloc.start()
        try:
            prod = structural_multiply(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prod == multiply(a, b)
        assert peak < 1_000_000

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            structural_multiply(identity(2), identity(3))

    def test_dimension_one(self):
        assert structural_multiply(Plm((1,)), Plm((1,))) == Plm((1,))

    def test_identity_at_large_dimension(self):
        # every step takes the CPLM case, so a recursion would go 2000 deep
        assert structural_multiply(identity(2000), identity(2000)) == identity(2000)

    def test_permutations_at_large_dimension(self):
        rng = random.Random(37)
        for _ in range(3):
            a, b = (Plm(tuple(rng.sample(range(1, 1501), 1500))) for _ in range(2))
            assert structural_multiply(a, b) == multiply(a, b)


def test_boundary_dimension_mismatch():
    # the column maps inside these are trusted, so the dimension check at the
    # boundary is the only guard
    a, b = identity(2), identity(3)
    for call in (
        lambda: multiply(a, b),
        lambda: structural_multiply(b, a),
        lambda: permute_rows(Permutation.identity(3), a),
        lambda: permute_columns(Permutation.identity(2), b),
    ):
        with pytest.raises(DimensionMismatchError):
            call()


def test_dense_binary_matrix_validation():
    with pytest.raises(ValueError):
        DenseBinaryMatrix(((0, 2), (1, 0)))
    with pytest.raises(ValueError):
        DenseBinaryMatrix(((0, 1),))
    m = DenseBinaryMatrix([[0, 1], [1, 0]])
    assert m.dim == 2 and m.entries == ((0, 1), (1, 0))


@pytest.mark.parametrize("x", [1.0, True, np.int64(1)])
def test_dense_binary_matrix_takes_exact_ints_only(x):
    # These equal 1, so a value check alone let them in.
    with pytest.raises(ValueError, match=rf"^entry {re.escape(repr(x))} is not the int 0 or 1$"):
        DenseBinaryMatrix(((x, 0), (0, 1)))
