"""Power cycles, periodicity verdicts, and exact-vs-numeric eigenvalue checks."""

import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plmonoid import (
    CharPoly,
    InvalidArgumentError,
    Plm,
    RootFindingError,
    char_poly,
    eigen_check,
    identity,
    max_unity_deviation,
    multiply,
    one_norm,
    periodicity,
    power,
    power_cycle,
    row_plm,
    to_dense,
)
from plmonoid import spectral
from plmonoid.spectral import (
    _certify,
    _graph,
    _squarefree_factors,
)
from plmonoid.verify import enumerate_plms

sympy = pytest.importorskip("sympy")


def rand_plm(rng, d):
    return Plm(tuple(rng.randint(1, d) for _ in range(d)))


def naive_power(a, k):
    p = identity(a.dim)
    for _ in range(k):
        p = multiply(p, a)
    return p


def cycle_permutation(lengths):
    """A permutation made of disjoint cycles of the given lengths."""
    cm, start = [], 1
    for n in lengths:
        cm += [start + (i + 1) % n for i in range(n)]
        start += n
    return Plm(tuple(cm))


def int_matmul(x, y):
    d = len(x)
    return [[sum(x[i][p] * y[p][j] for p in range(d)) for j in range(d)] for i in range(d)]


def eval_poly_at_matrix(cp, a):
    """p(A) by Horner's rule on the dense integer form."""
    d = a.dim
    dense = [list(r) for r in to_dense(a).entries]
    acc = [[0] * d for _ in range(d)]
    for c in cp.coefficients:
        acc = int_matmul(acc, dense)
        for i in range(d):
            acc[i][i] += c
    return acc


class TestPower:
    def test_zeroth_power_is_identity(self):
        assert power(Plm((2, 3, 3)), 0) == identity(3)

    def test_small_example(self):
        a = Plm((2, 3, 3))
        assert power(a, 2) == row_plm(3, 3)
        assert power(a, 3) == row_plm(3, 3)

    def test_swap_matrix_alternates(self):
        p = Plm((2, 1))
        assert power(p, 2) == identity(2)
        assert power(p, 7) == p

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidArgumentError, match="exponent must be >= 0$"):
            power(identity(2), -1)

    @pytest.mark.parametrize("k", [True, 2.0, "2"])
    def test_rejects_non_int_exponent(self, k):
        # power(a, True) used to return a, and power(a, 2.0) to fail in `&`
        with pytest.raises(InvalidArgumentError, match="^k must be an int"):
            power(Plm((2, 1)), k)

    def test_matches_repeated_multiplication(self):
        rng = random.Random(41)
        for _ in range(80):
            d = rng.randint(2, 7)
            a = rand_plm(rng, d)
            k = rng.randint(0, 12)
            assert power(a, k) == naive_power(a, k)


class TestPowerCycle:
    @pytest.mark.parametrize(
        "colmap,tail,period",
        [
            ((1, 2), 1, 1),
            ((2, 1), 1, 2),
            ((2, 3, 3), 2, 1),
            ((1, 1, 1), 1, 1),
            ((2, 1, 1), 1, 2),
            ((2, 1, 1, 3), 2, 2),
        ],
    )
    def test_known_cycles(self, colmap, tail, period):
        assert power_cycle(Plm(colmap)) == power_cycle(Plm(colmap))
        cyc = power_cycle(Plm(colmap))
        assert (cyc.tail, cyc.period) == (tail, period)

    def test_minimality(self):
        # A^1 .. A^(s+t-1) must all differ, with the collision landing on A^s;
        # distinctness of the prefix is exactly what makes both s and t minimal.
        rng = random.Random(42)
        samples = [rand_plm(rng, rng.randint(2, 6)) for _ in range(60)]
        samples += list(enumerate_plms(3))
        for a in samples:
            cyc = power_cycle(a)
            s, t = cyc.tail, cyc.period
            powers = [naive_power(a, k) for k in range(1, s + t + 1)]
            assert len(set(powers[: s + t - 1])) == s + t - 1
            assert powers[s + t - 1] == powers[s - 1]

    def test_large_period_walks_in_small_memory(self):
        # d = 40, period lcm(5, 7, 8, 9, 11) = 27,720: a dict of every power
        # peaked at 13.7 MB here.
        a = cycle_permutation((5, 7, 8, 9, 11))
        tracemalloc.start()
        try:
            cyc = power_cycle(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cyc.tail, cyc.period) == (1, 27_720)
        assert peak < 1_000_000


class TestPeriodicity:
    def test_identity_is_periodic_but_not_prerow(self):
        v = periodicity(identity(3))
        assert v.to_json_dict() == {"periodicity": "periodic", "k": 1, "is_prerow": False}

    def test_swap_matrix_has_period_two(self):
        v = periodicity(Plm((2, 1)))
        assert (v.kind, v.k, v.is_prerow) == ("periodic", 2, False)

    def test_row_matrix_is_periodic_and_prerow(self):
        v = periodicity(row_plm(4, 2))
        assert (v.kind, v.k, v.is_prerow) == ("periodic", 1, True)

    def test_prerow_example(self):
        v = periodicity(Plm((2, 3, 3)))
        assert v.to_json_dict() == {"periodicity": "prerow", "e": 2, "m": 3, "is_prerow": True}

    def test_eventually_periodic_needs_dimension_four(self):
        for d in (2, 3):
            assert all(periodicity(a).kind != "eventually_periodic" for a in enumerate_plms(d))
        v = periodicity(Plm((2, 1, 1, 3)))
        assert v.to_json_dict() == {
            "periodicity": "eventually_periodic",
            "s": 2,
            "t": 2,
            "is_prerow": False,
        }

    def test_verdicts_consistent_with_brute_force(self):
        for d in (2, 3, 4, 5):
            for a in enumerate_plms(d):
                v = periodicity(a)
                cyc = power_cycle(a)
                powers = [naive_power(a, k) for k in range(1, cyc.tail + cyc.period + 1)]
                row_exps = [
                    k + 1
                    for k, p in enumerate(powers)
                    if all(r == p.colmap[0] for r in p.colmap)
                ]
                assert v.is_prerow == bool(row_exps)
                if cyc.tail == 1:
                    assert (v.kind, v.k) == ("periodic", cyc.period)
                elif row_exps:
                    assert (v.kind, v.e) == ("prerow", row_exps[0])
                    assert v.m == powers[row_exps[0] - 1].colmap[0]
                else:
                    assert (v.kind, v.s, v.t) == ("eventually_periodic", cyc.tail, cyc.period)

    def test_prerow_exponent_bounded_by_cycle_length(self):
        for a in enumerate_plms(3):
            v = periodicity(a)
            if v.kind == "prerow":
                cyc = power_cycle(a)
                assert v.e <= cyc.tail + cyc.period


class TestGraphAtLargeD:
    """One pass over the functional graph, at sizes no power walk reaches:
    walking A, A^2, ... costs (tail + period) products of O(d) each."""

    def test_period_58198140_permutation(self):
        a = cycle_permutation((4, 5, 7, 9, 11, 13, 17, 19))
        t0 = time.perf_counter()
        cyc, v = power_cycle(a), periodicity(a)
        elapsed = time.perf_counter() - t0
        assert a.dim == 85
        assert (cyc.tail, cyc.period) == (1, 58_198_140)
        assert v.to_json_dict() == {"periodicity": "periodic", "k": 58_198_140, "is_prerow": False}
        assert elapsed < 0.05

    def test_chain_into_a_fixed_point(self):
        d = 100_000
        a = Plm((1, *range(1, d)))  # j -> j - 1 down to the fixed point 1
        t0 = time.perf_counter()
        cyc, v = power_cycle(a), periodicity(a)
        elapsed = time.perf_counter() - t0
        assert (cyc.tail, cyc.period) == (d - 1, 1)
        assert v.to_json_dict() == {"periodicity": "prerow", "e": 99_999, "m": 1, "is_prerow": True}
        assert elapsed < 2.0

    def test_seeded_random_map(self):
        from sympy.combinatorics import Permutation

        d = 100_000
        rng = random.Random(100_000)
        a = rand_plm(rng, d)
        t0 = time.perf_counter()
        cyc, v = power_cycle(a), periodicity(a)
        elapsed = time.perf_counter() - t0
        # Reference: the images f(V), f^2(V), ... shrink until f permutes
        # them; the tail is the first exponent at which they stop shrinking,
        # and the period is the order of that permutation.
        cm = a.colmap
        image, tail = set(cm), 1
        while len(nxt := {cm[j - 1] for j in image}) < len(image):
            image, tail = nxt, tail + 1
        on_cycles = sorted(image)
        index = {j: i for i, j in enumerate(on_cycles)}
        perm = Permutation([index[cm[j - 1]] for j in on_cycles])
        assert (cyc.tail, cyc.period) == (tail, perm.order())
        assert v.to_json_dict() == {
            "periodicity": "eventually_periodic",
            "s": tail,
            "t": perm.order(),
            "is_prerow": False,
        }
        assert power(a, cyc.tail + cyc.period) == power(a, cyc.tail)
        assert elapsed < 2.0


class TestCharPoly:
    @pytest.mark.parametrize(
        "colmap,coeffs",
        [
            ((2, 3, 3), (1, -1, 0, 0)),
            ((2, 1), (1, 0, -1)),
            ((1, 1), (1, -1, 0)),
            ((1, 2, 3), (1, -3, 3, -1)),
            ((1,), (1, -1)),
        ],
    )
    def test_known_polynomials(self, colmap, coeffs):
        cp = char_poly(Plm(colmap))
        assert len(cp.coefficients) == len(colmap) + 1
        assert cp.coefficients == coeffs

    def test_monic_with_full_coefficient_vector(self):
        rng = random.Random(43)
        for _ in range(40):
            d = rng.randint(1, 8)
            cp = char_poly(rand_plm(rng, d))
            assert cp.coefficients[0] == 1
            assert len(cp.coefficients) == d + 1

    def test_matches_sympy_exhaustive_small(self):
        x = sympy.Symbol("x")
        for d in (1, 2, 3):
            for a in enumerate_plms(d):
                expected = sympy.Matrix(to_dense(a).entries).charpoly(x).all_coeffs()
                assert list(char_poly(a).coefficients) == [int(c) for c in expected]

    def test_matches_sympy_sampled_larger(self):
        x = sympy.Symbol("x")
        rng = random.Random(44)
        for d, n in ((4, 60), (5, 30)):
            for _ in range(n):
                a = rand_plm(rng, d)
                expected = sympy.Matrix(to_dense(a).entries).charpoly(x).all_coeffs()
                assert list(char_poly(a).coefficients) == [int(c) for c in expected]

    def test_cayley_hamilton_exhaustive_d_le_4(self):
        for d in (1, 2, 3, 4):
            for a in enumerate_plms(d):
                result = eval_poly_at_matrix(char_poly(a), a)
                assert all(x == 0 for row in result for x in row)

    def test_cayley_hamilton_sampled_d5(self):
        rng = random.Random(45)
        for _ in range(300):
            a = rand_plm(rng, 5)
            result = eval_poly_at_matrix(char_poly(a), a)
            assert all(x == 0 for row in result for x in row)

    def test_zero_constant_term_iff_singular(self):
        for d in (2, 3, 4):
            for a in enumerate_plms(d):
                singular = sorted(a.colmap) != list(range(1, d + 1))
                assert (char_poly(a).coefficients[-1] == 0) == singular


def sqf_list(coeffs):
    """sympy's square-free factors of a polynomial, as (int coefficients,
    multiplicity) pairs: the reference for the factors read off the graph."""
    _, factors = sympy.sqf_list(sympy.Poly(coeffs, sympy.Symbol("x")))
    return [([int(c) for c in g.all_coeffs()], m) for g, m in factors]


class TestSquarefreeFactors:
    def test_matches_sympy_on_every_char_poly_d_le_6(self):
        seen = {
            (char_poly(a).coefficients, d, tuple(sorted(_graph(a.colmap)[1])))
            for d in range(1, 7)
            for a in enumerate_plms(d)
        }
        for coeffs, d, lengths in seen:
            factors = _squarefree_factors(d, list(lengths))
            assert factors == sqf_list(coeffs)
            assert all(type(c) is int for f, _ in factors for c in f)
            _certify(coeffs, factors)

    @pytest.mark.parametrize(
        "cycles",
        [
            (5, 7, 8, 9, 11),
            (3, 4, 5, 7, 11, 13, 17),
            (4, 5, 7, 9, 11, 13, 17, 19),
            (3, 4, 5, 7, 11, 13, 17, 19, 21),
        ],
    )
    def test_certificate_holds_on_high_lcm_permutations(self, cycles):
        # d = 40, 60, 85 and 100, conjugated by a seeded relabelling
        d = sum(cycles)
        rng = random.Random(d)
        pi = list(range(1, d + 1))
        rng.shuffle(pi)
        cm = cycle_permutation(cycles).colmap
        inv = {p: i for i, p in enumerate(pi, start=1)}
        a = Plm(tuple(pi[cm[inv[j] - 1] - 1] for j in range(1, d + 1)))
        _, lengths, _, _ = _graph(a.colmap)
        assert sorted(lengths) == sorted(cycles)
        coeffs = char_poly(a).coefficients
        factors = _squarefree_factors(d, lengths)
        _certify(coeffs, factors)
        assert factors == sqf_list(coeffs)


def test_one_norm_is_always_one():
    rng = random.Random(46)
    for a in enumerate_plms(3):
        assert one_norm(a) == 1
    for _ in range(30):
        assert one_norm(rand_plm(rng, rng.randint(1, 9))) == 1


class TestMaxUnityDeviation:
    def test_clean_roots_have_zero_deviation(self):
        assert max_unity_deviation([0j, 1 + 0j, -1 + 0j], 2, 1e-9) == 0.0

    def test_near_zero_roots_are_forgiven(self):
        assert max_unity_deviation([complex(5e-10, 0)], 3, 1e-9) == 0.0

    def test_off_circle_root_reports_its_distance(self):
        dev = max_unity_deviation([complex(1 + 2e-6, 0)], 1, 1e-9)
        assert dev == pytest.approx(2e-6, rel=1e-3)

    def test_wrong_period_detected(self):
        # i is a 4th root of unity but not a square root of unity
        dev = max_unity_deviation([1j], 2, 1e-9)
        assert dev == pytest.approx(2.0)


class TestEigenCheck:
    def test_swap_matrix(self):
        rep = eigen_check(Plm((2, 1)))
        assert rep.has_zero is False
        assert rep.roots_of_unity_ok is True
        assert rep.period == 2
        assert rep.numeric_eigenvalues[0] == pytest.approx(-1 + 0j, abs=1e-12)
        assert rep.numeric_eigenvalues[1] == pytest.approx(1 + 0j, abs=1e-12)
        assert rep.spectral_radius_numeric == pytest.approx(1.0, abs=1e-12)

    def test_row_matrix_has_zero_eigenvalue(self):
        rep = eigen_check(row_plm(2, 1))
        assert rep.has_zero is True
        assert rep.period == 1
        assert sorted(abs(z) for z in rep.numeric_eigenvalues) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_collapsing_example(self):
        rep = eigen_check(Plm((2, 3, 3)))
        assert rep.has_zero is True
        assert rep.period == 1
        moduli = sorted(abs(z) for z in rep.numeric_eigenvalues)
        assert moduli == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)

    def test_identity_with_heavily_repeated_root(self):
        # (x - 1)^5 is the case a companion-matrix root finder gets wrong by
        # about 1e-3; the square-free route must stay within 1e-9
        rep = eigen_check(identity(5), tol=1e-9)
        assert rep.spectral_radius_numeric <= 1 + 1e-9
        for z in rep.numeric_eigenvalues:
            assert z == pytest.approx(1 + 0j, abs=1e-9)

    def test_report_json_shape(self):
        d = eigen_check(Plm((2, 1))).to_json_dict()
        assert set(d) == {
            "has_zero",
            "roots_of_unity_ok",
            "period",
            "numeric_eigenvalues",
            "spectral_radius_numeric",
        }
        assert all(len(pair) == 2 for pair in d["numeric_eigenvalues"])

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InvalidArgumentError, match="^tolerance must be positive, got 0.0$"):
            eigen_check(identity(2), tol=0.0)
        with pytest.raises(InvalidArgumentError, match="^tolerance must be positive, got"):
            eigen_check(identity(2), tol=-1e-9)

    @pytest.mark.parametrize("tol", [True, "1e-9", None, 1j])
    def test_rejects_bool_and_non_real_tolerance(self, tol):
        # True ran as a tolerance of 1, and "1e-9" raised TypeError in `<=`
        message = f"^tolerance must be a real number, not {tol!r}$"
        with pytest.raises(InvalidArgumentError, match=message):
            eigen_check(identity(2), tol)

    @pytest.mark.parametrize("tol", [1e-9, np.float64(1e-9), Fraction(1, 10**9), 1])
    def test_accepts_real_tolerance(self, tol):
        assert eigen_check(Plm((2, 1)), tol).period == 2

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        # Every comparison with NaN is false, and every root is within inf of
        # the allowed spectrum, so either tolerance used to pass this
        # permutation whatever its numeric roots.
        a = cycle_permutation((5, 7, 8, 9, 11))
        with pytest.raises(InvalidArgumentError, match=f"^tolerance must be finite, got {tol}$"):
            eigen_check(a, tol)

    def test_exhaustive_d3_has_zero_iff_not_permutation(self):
        for a in enumerate_plms(3):
            rep = eigen_check(a)
            assert rep.roots_of_unity_ok
            assert rep.has_zero == (sorted(a.colmap) != [1, 2, 3])
            assert rep.spectral_radius_numeric <= 1 + 1e-9
            assert len(rep.numeric_eigenvalues) == 3


@pytest.mark.parametrize("colmap", [(2, 1), (2, 3, 1, 5, 4, 6), (2, 3, 3, 1, 4), (1, 1, 2, 5, 4)])
def test_wrong_charpoly_coefficient_fails_the_certificate(monkeypatch, colmap):
    # The numeric roots come from the factors read off the graph, so without
    # the exact division by them a wrong trace-recursion polynomial would pass.
    a = Plm(colmap)
    coeffs = char_poly(a).coefficients
    for i in range(len(coeffs)):
        wrong = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1:]
        monkeypatch.setattr(spectral, "char_poly", lambda _, w=wrong: CharPoly(w))
        with pytest.raises(RootFindingError, match="^exact certificate failed"):
            eigen_check(a)


def all_np_roots(factors):
    """The roots as found before linear factors were read off and before the
    factors came from the graph: np.roots on every square-free factor of the
    characteristic polynomial, which sympy finds from its coefficients.
    _certify has shown that those are the product of ``factors``, each to its
    multiplicity; sympy multiplies them out."""
    x = sympy.Symbol("x")
    product = sympy.Poly(1, x)
    for factor, mult in factors:
        product *= sympy.Poly(factor, x) ** mult
    roots = []
    for factor, mult in sqf_list([int(c) for c in product.all_coeffs()]):
        for z in np.roots([float(c) for c in factor]):
            roots.extend([complex(z)] * mult)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def test_linear_factor_roots_are_bit_identical_to_np_roots(monkeypatch):
    rng = random.Random(20)
    mats = [a for d in range(1, 6) for a in enumerate_plms(d)]
    mats += [rand_plm(rng, rng.randint(6, 30)) for _ in range(300)]

    def reports():
        out = []
        for a in mats:
            try:
                out.append(repr(eigen_check(a)))
            except RootFindingError as exc:
                out.append(f"RootFindingError: {exc}")
        return out

    direct = reports()
    monkeypatch.setattr(spectral, "_roots_with_multiplicity", all_np_roots)
    assert reports() == direct


# --- failure paths of eigen_check and the certificate --------------------------


def test_certificate_is_the_product_of_the_factors():
    # (x - 1)^2 (x + 1) = x^3 - x^2 - x + 1
    factors = [([1, 1], 1), ([1, -1], 2)]
    _certify((1, -1, -1, 1), factors)
    for wrong in [(1, 0, -1), (1, -1, -1, 1, 0), (1, -1, -1, 2), (1, -2, 1)]:
        with pytest.raises(RootFindingError, match="^exact certificate failed: "):
            _certify(wrong, factors)


def test_roots_off_the_allowed_spectrum_raise_with_the_deviation(monkeypatch):
    monkeypatch.setattr(spectral, "max_unity_deviation", lambda roots, period, tol: 0.25)
    message = r"^some root sits 2\.500e-01 away from the allowed spectrum$"
    with pytest.raises(RootFindingError, match=message) as err:
        eigen_check(Plm((2, 3, 1)))
    assert err.value.deviation == 0.25


def test_numeric_root_finding_failure_is_a_root_finding_error(monkeypatch):
    # A 3-cycle has the factor x^2 + x + 1, the one np.roots is called on.
    def fails(coeffs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(spectral.np, "roots", fails)
    message = "^numeric root finding failed: did not converge$"
    with pytest.raises(RootFindingError, match=message) as err:
        eigen_check(Plm((2, 3, 1)))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    assert err.value.deviation is None
