"""Exact decomposition of left stochastic matrices into convex PLM combinations."""

import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from plmonoid import (
    Decomposition,
    DimensionMismatchError,
    NotLeftStochasticError,
    Plm,
    StochasticMatrix,
    WeightSumNotOneError,
    ZeroColumnError,
    check_decomposition,
    convex_combine,
    decompose,
    first_positive_plm,
    first_positive_rows,
    identity,
    is_left_stochastic,
    random_left_stochastic,
    recompose,
    row_plm,
)
from plmonoid.core import _trusted
from plmonoid.verify import enumerate_plms

F = Fraction

# the running 3x3 example: column sums are exactly 1, entries are mixed tenths
B = StochasticMatrix(
    (
        (F(1, 10), F(0), F(1, 5)),
        (F(9, 10), F(1, 2), F(4, 5)),
        (F(0), F(1, 2), F(0)),
    )
)


class TestStochasticMatrix:
    def test_entries_normalize_to_fractions(self):
        m = StochasticMatrix((("1/2", "1/2"), (F(1, 2), F(1, 2))))
        assert m.entries[0][0] == F(1, 2)
        assert isinstance(m.entries[0][0], Fraction)

    def test_fraction_entries_are_kept_as_they_are(self):
        # A Fraction is immutable, so the constructor stores it, not a copy.
        x, y = F(1, 3), F(2, 3)
        m = StochasticMatrix(((x, y), (y, x)))
        assert m.entries[0][0] is x and m.entries[1][0] is y

    def test_accepts_exact_entry_types(self):
        m = StochasticMatrix(((1, F(1, 2), "1/2", "0.1"),) + ((0, 0, 0, 0),) * 3)
        assert m.entries[0] == (F(1), F(1, 2), F(1, 2), F(1, 10))
        assert all(type(x) is Fraction for row in m.entries for x in row)

    @pytest.mark.parametrize("bad", [0.1, True, np.float64(0.5)])
    def test_rejects_inexact_entry_types(self, bad):
        message = r"^entry .* at row 2, column 1 is not an int, Fraction or str$"
        with pytest.raises(ValueError, match=message):
            StochasticMatrix(((F(1), F(1)), (bad, F(0))))

    @pytest.mark.parametrize("bad", ["1/0", "-3/0", "x", "", "nan", "1/2/3"])
    def test_rejects_strings_that_are_not_fractions(self, bad):
        # "1/0" escaped as ZeroDivisionError, the others as ValueError
        # without the entry's place
        message = rf"^entry {bad!r} at row 2, column 1 is not a valid fraction$"
        with pytest.raises(ValueError, match=message):
            StochasticMatrix(((F(1), F(1)), (bad, F(0))))

    @pytest.fixture
    def digit_limit(self):
        # The smallest limit Python allows, so that the edge cases stay short.
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield 640
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize(
        "entry",
        [
            "1e-639",
            "1e639",
            pytest.param("0." + "0" * 638 + "1", id="1e-639-written-out"),
            pytest.param("1" * 400 + "." + "1" * 240, id="640-digit-numerator"),
            "2.5E-637",
        ],
    )
    def test_decimal_at_the_int_digit_limit_is_read(self, digit_limit, entry):
        # numerator and denominator have at most 640 digits before reduction
        x = StochasticMatrix(((entry,),)).entries[0][0]
        assert x == Fraction(entry)
        assert len(str(x)) > 600

    @pytest.mark.parametrize(
        "entry",
        [
            "1e-640",
            "1e640",
            ".1e-639",
            pytest.param("0." + "0" * 639 + "1", id="1e-640-written-out"),
            pytest.param("1" * 400 + "." + "1" * 241, id="641-digit-numerator"),
            "1e-10000000",
        ],
    )
    def test_decimal_past_the_int_digit_limit_is_refused(self, digit_limit, entry):
        # Fraction() built these, 1e-10000000 in seconds, and str() of the
        # value then raised past the limit.
        message = r"^entry .* at row 1, column 1 is not a valid fraction$"
        with pytest.raises(ValueError, match=message):
            StochasticMatrix(((entry,),))

    def test_rejects_negative_entries(self):
        with pytest.raises(NotLeftStochasticError) as err:
            StochasticMatrix(((F(-1, 2), F(1)), (F(3, 2), F(0))))
        assert err.value.column == 1

    def test_rejects_non_square_and_empty(self):
        with pytest.raises(ValueError):
            StochasticMatrix(((F(1),), (F(0),)))
        with pytest.raises(ValueError):
            StochasticMatrix(())

    def test_from_plm_and_column_sums(self):
        m = StochasticMatrix.from_plm(Plm((2, 3, 3)))
        assert m.entries == (
            (F(0), F(0), F(0)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(1)),
        )
        assert m.column_sums() == (F(1), F(1), F(1))


def test_is_left_stochastic():
    assert is_left_stochastic(B)
    assert not is_left_stochastic(StochasticMatrix(((F(1, 2), F(0)), (F(0), F(1)))))
    for a in enumerate_plms(3):
        assert is_left_stochastic(StochasticMatrix.from_plm(a))


class TestFirstPositive:
    def test_worked_example(self):
        m = StochasticMatrix(((F(0), F(1, 3)), (F(1), F(2, 3))))
        assert first_positive_rows(m) == (2, 1)
        assert first_positive_plm(m) == Plm((2, 1))

    def test_on_the_running_example(self):
        assert first_positive_rows(B) == (1, 2, 1)

    def test_zero_column_raises(self):
        m = StochasticMatrix(((F(0), F(1)), (F(0), F(0))))
        with pytest.raises(ZeroColumnError) as err:
            first_positive_rows(m)
        assert err.value.column == 1


class TestDecompose:
    def test_running_example_full_sequence(self):
        dec = decompose(B)
        assert dec.terms == (
            (F(1, 10), Plm((1, 2, 1))),
            (F(1, 10), Plm((2, 2, 1))),
            (F(3, 10), Plm((2, 2, 2))),
            (F(1, 2), Plm((2, 3, 2))),
        )
        assert recompose(dec).entries == B.entries

    def test_first_term_is_the_first_positive_plm(self):
        dec = decompose(B)
        lam, p = dec.terms[0]
        assert p == first_positive_plm(B)
        assert lam == min(
            B.entries[p.colmap[j] - 1][j] for j in range(3)
        )

    def test_plm_input_gives_single_unit_term(self):
        for a in enumerate_plms(3):
            dec = decompose(StochasticMatrix.from_plm(a))
            assert dec.terms == ((F(1), a),)

    def test_doubly_uniform_matrix(self):
        m = StochasticMatrix(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
        dec = decompose(m)
        assert dec.terms == ((F(1, 2), row_plm(2, 1)), (F(1, 2), row_plm(2, 2)))

    def test_rejects_bad_column_sums(self):
        m = StochasticMatrix(((F(1, 2), F(0)), (F(0), F(1))))
        with pytest.raises(NotLeftStochasticError) as err:
            decompose(m)
        assert err.value.column == 1
        assert err.value.total == F(1, 2)

    def test_random_matrices_round_trip(self):
        for d in range(2, 7):
            for seed in range(20):
                m = random_left_stochastic(d, seed=seed)
                dec = decompose(m)
                assert recompose(dec).entries == m.entries
                assert sum(lam for lam, _ in dec.terms) == 1
                assert all(0 < lam <= 1 for lam, _ in dec.terms)
                assert len(dec.terms) <= d * d

    def test_zero_counts_strictly_grow_along_the_walk(self):
        # replay the remainder walk from the output alone and recheck the
        # structural facts the greedy argument promises
        m = random_left_stochastic(5, seed=99)
        dec = decompose(m)
        work = [list(row) for row in m.entries]
        zeros = sum(1 for row in work for x in row if x == 0)
        for lam, p in dec.terms:
            for j in range(5):
                work[p.colmap[j] - 1][j] -= lam
            assert all(x >= 0 for row in work for x in row)
            new_zeros = sum(1 for row in work for x in row if x == 0)
            assert new_zeros > zeros
            zeros = new_zeros
        assert all(x == 0 for row in work for x in row)

    def test_first_weight_below_one_iff_not_a_plm(self):
        for seed in range(10):
            m = random_left_stochastic(4, seed=seed)
            dec = decompose(m)
            is_plm = all(x in (0, 1) for row in m.entries for x in row)
            assert (dec.terms[0][0] == 1) == is_plm

    def test_d128_decompose_within_budget(self, traced):
        # The greedy alone on 11,977 terms at d = 128: 0.12-0.17 s measured
        # on a 2-CPU x86-64 VM (Python 3.11), so the budget is three times
        # the slowest reading.  The loop that subtracted each term from the
        # matrix took 0.35-0.41 s there.  Under a tracer only the result is
        # checked.
        m = random_left_stochastic(128, seed=0)
        t0 = time.perf_counter()
        dec = decompose(m)
        elapsed = time.perf_counter() - t0
        assert len(dec.terms) == 11977
        if not traced:
            assert elapsed < 0.5, f"d = 128 decompose took {elapsed:.2f} s (budget 0.5 s)"


def unchecked(*terms):
    """A Decomposition built without its own validation, as a faulty producer
    could hand one over."""
    return _trusted(Decomposition, terms=tuple((F(lam), p) for lam, p in terms))


I2 = StochasticMatrix.from_plm(identity(2))
HALVES = StochasticMatrix(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
SWAP = Plm((2, 1))


class TestCheckDecomposition:
    def test_clean_on_decompose_output(self):
        assert check_decomposition(B, decompose(B)) == []
        for seed in range(10):
            m = random_left_stochastic(6, seed=seed)
            assert check_decomposition(m, decompose(m)) == []

    # One hand-built faulty decomposition per problem string.  A fault in the
    # walk that leaves the round trip intact is rare: entries only decrease,
    # so a negative or leftover remainder also changes the recomposition.
    # The cases named "nonzero final remainder" and "too many terms" keep the
    # names of two problems no longer reported: each now expects the problems
    # that imply the dropped one.
    @pytest.mark.parametrize(
        "m, dec, expected",
        [
            pytest.param(
                HALVES,
                Decomposition(((F(1, 4), row_plm(2, 1)), (F(3, 4), row_plm(2, 2)))),
                ["recompose mismatch", "zero count did not grow"],
                id="recompose mismatch",
            ),
            pytest.param(
                I2,
                Decomposition(((F(1), SWAP),)),
                ["recompose mismatch", "negative remainder entry"],
                id="negative remainder entry",
            ),
            pytest.param(
                HALVES,
                Decomposition(
                    ((F(1, 4), row_plm(2, 1)), (F(1, 4), row_plm(2, 2))) * 2
                ),
                ["zero count did not grow"],
                id="zero count did not grow",
            ),
            pytest.param(
                StochasticMatrix(((F(1, 2), F(0)), (F(0), F(1)))),
                Decomposition(((F(1, 2), identity(2)), (F(1, 2), row_plm(2, 2)))),
                ["recompose mismatch", "non-uniform column sums"],
                id="non-uniform column sums",
            ),
            pytest.param(
                I2,
                unchecked(),
                ["recompose mismatch", "weights do not sum to 1"],
                id="nonzero final remainder",
            ),
            pytest.param(
                I2,
                unchecked((F(1, 2), identity(2))),
                ["recompose mismatch", "weights do not sum to 1", "zero count did not grow"],
                id="weights do not sum to 1",
            ),
            pytest.param(
                I2,
                unchecked((F(0), SWAP), (F(1), identity(2))),
                ["weight outside (0, 1]", "zero count did not grow"],
                id="weight outside (0, 1]",
            ),
            pytest.param(
                StochasticMatrix(((F(1),),)),
                unchecked((F(1, 2), identity(1)), (F(1, 2), identity(1))),
                ["zero count did not grow"],
                id="too many terms",
            ),
        ],
    )
    def test_reports_each_fault(self, m, dec, expected):
        assert check_decomposition(m, dec) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_decomposition(B, Decomposition(((F(1), identity(2)),)))

    def test_dimension_mismatch_names_the_first_odd_term(self):
        terms = ((F(1, 2), identity(3)), (F(1, 4), identity(2)), (F(1, 4), identity(4)))
        with pytest.raises(DimensionMismatchError, match=r"^term dims 2 != 3$"):
            check_decomposition(random_left_stochastic(3, 1), _trusted(Decomposition, terms=terms))

    def test_d128_check_within_budget(self, traced):
        # The verifier alone on 11,977 terms at d = 128: 0.36-0.46 s measured
        # on a 2-CPU x86-64 VM (Python 3.11), so the budget is three times
        # the slowest reading.  The walk that rescanned all d^2 entries after
        # each term took 8.1 s there.  Under a tracer only the result is
        # checked.
        m = random_left_stochastic(128, seed=0)
        dec = decompose(m)
        t0 = time.perf_counter()
        problems = check_decomposition(m, dec)
        elapsed = time.perf_counter() - t0
        assert problems == []
        if not traced:
            assert elapsed < 1.4, f"d = 128 check took {elapsed:.2f} s (budget 1.4 s)"


class TestConvexCombine:
    def test_exact_reconstruction(self):
        m = convex_combine([(F(1, 3), Plm((2, 1))), (F(2, 3), identity(2))])
        assert m.entries == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))

    def test_zero_weights_are_allowed_here(self):
        m = convex_combine([(F(0), Plm((2, 1))), (F(1), identity(2))])
        assert m.entries == StochasticMatrix.from_plm(identity(2)).entries

    def test_weight_validation(self):
        with pytest.raises(WeightSumNotOneError):
            convex_combine([(F(1, 2), identity(2))])
        with pytest.raises(WeightSumNotOneError):
            convex_combine([])
        with pytest.raises(ValueError):
            convex_combine([(F(-1, 2), identity(2)), (F(3, 2), identity(2))])
        with pytest.raises(DimensionMismatchError):
            convex_combine([(F(1, 2), identity(2)), (F(1, 2), identity(3))])

    @pytest.mark.parametrize(
        "terms",
        [
            [(True, identity(2))],
            [(0.5, identity(2)), (0.5, Plm((2, 1)))],
            [(0.1, identity(2)), (0.9, Plm((2, 1)))],
            [(1.0, identity(2))],
        ],
    )
    def test_refuses_inexact_weights_as_decomposition_does(self, terms):
        # True combined to I, [(0.5, a), (0.5, b)] passed, and 0.1 + 0.9
        # failed only as a binary weight sum
        weight = terms[0][0]
        message = rf"^weight {weight!r} of term 1 is not an int, Fraction or str$"
        with pytest.raises(ValueError, match=message):
            convex_combine(terms)
        with pytest.raises(ValueError, match=message):
            Decomposition(tuple(terms))

    @pytest.mark.parametrize("bad", ["1/0", "x"])
    def test_refuses_weight_strings_that_are_not_fractions(self, bad):
        # "1/0" escaped as ZeroDivisionError
        terms = [(F(1, 2), Plm((2, 1))), (bad, identity(2))]
        message = rf"^weight {bad!r} of term 2 is not a valid fraction$"
        with pytest.raises(ValueError, match=message):
            convex_combine(terms)
        with pytest.raises(ValueError, match=message):
            Decomposition(tuple(terms))

    def test_exact_weight_types(self):
        m = convex_combine(iter([(1, identity(2)), ("0", Plm((2, 1)))]))
        assert m == StochasticMatrix.from_plm(identity(2))
        m = convex_combine([("1/2", identity(2)), (F(1, 2), Plm((2, 1)))])
        assert m.entries == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


# A term that is not a (weight, Plm) pair is refused by its number, before a
# use of it would raise AttributeError or TypeError.
@pytest.mark.parametrize(
    "terms, n",
    [
        pytest.param(((F(1), (1,)),), 1, id="colmap-for-plm"),
        pytest.param([(1, "abc")], 1, id="str-for-plm"),
        pytest.param([F(1)], 1, id="bare-weight"),
        pytest.param([(F(1, 2), identity(2)), (F(1, 2),)], 2, id="one-item-term"),
        pytest.param([(F(1, 2), identity(2)), (F(1, 4), identity(2), 0)], 2, id="three-item-term"),
    ],
)
@pytest.mark.parametrize("build", [Decomposition, convex_combine], ids=lambda f: f.__name__)
def test_terms_must_be_weight_plm_pairs(build, terms, n):
    with pytest.raises(ValueError, match=rf"^term {n} is not a \(weight, Plm\) pair$"):
        build(terms)


class TestDecompositionType:
    def test_validation(self):
        with pytest.raises(WeightSumNotOneError):
            Decomposition(())
        with pytest.raises(WeightSumNotOneError):
            Decomposition(((F(1, 2), identity(2)),))
        with pytest.raises(ValueError):
            Decomposition(((F(0), identity(2)), (F(1), identity(2))))
        with pytest.raises(DimensionMismatchError):
            Decomposition(((F(1, 2), identity(2)), (F(1, 2), identity(3))))

    @pytest.mark.parametrize("weight", [0.5, True, 1.0])
    def test_refuses_inexact_weights(self, weight):
        # a float would be read as its binary approximation and fail later as
        # a weight sum; True would pass as weight 1
        rest = () if weight == 1 else ((F(1, 2), Plm((2, 1))),)
        with pytest.raises(ValueError, match=rf"^weight {weight!r} of term 1 is not an int, Fraction or str$"):
            Decomposition(((weight, identity(2)),) + rest)

    def test_exact_weight_types(self):
        for weights in ((1,), ("1/2", F(1, 2)), ("0.25", "3/4")):
            dec = Decomposition(tuple((w, identity(2)) for w in weights))
            assert all(type(lam) is F for lam, _ in dec.terms)
        with pytest.raises(WeightSumNotOneError):
            Decomposition((("1/2", identity(2)),))

    def test_term_count_bound_enforced(self):
        # five distinct weights cannot fit the 4-term bound at d = 2
        weights = [F(1, 5)] * 5
        plms = [identity(2), Plm((2, 1)), row_plm(2, 1), row_plm(2, 2), identity(2)]
        with pytest.raises(ValueError):
            Decomposition(tuple(zip(weights, plms)))

    def test_json_shape(self):
        d = decompose(B).to_json_dict()
        assert d["dim"] == 3
        assert d["terms"][0] == {"lambda": "1/10", "colmap": [1, 2, 1]}
        assert [t["lambda"] for t in d["terms"]] == ["1/10", "1/10", "3/10", "1/2"]


class TestRandomLeftStochastic:
    def test_always_valid(self):
        for d in range(1, 9):
            for seed in (0, 1, 17):
                m = random_left_stochastic(d, seed=seed)
                assert m.dim == d
                assert is_left_stochastic(m)

    def test_deterministic_per_seed(self):
        assert random_left_stochastic(4, seed=5).entries == random_left_stochastic(4, seed=5).entries
        assert random_left_stochastic(4, seed=5).entries != random_left_stochastic(4, seed=6).entries

    def test_denominator_bound(self):
        m = random_left_stochastic(6, seed=3, max_denominator=50)
        assert all(x.denominator <= 50 for row in m.entries for x in row)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            random_left_stochastic(0, seed=1)
        with pytest.raises(ValueError):
            random_left_stochastic(3, seed=1, max_denominator=0)
