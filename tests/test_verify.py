"""The sweep engine: enumeration, the dense oracle, and report stability."""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from plmonoid import (
    Decomposition,
    DenseBinaryMatrix,
    InvalidArgumentError,
    NotPlmError,
    PeriodicityVerdict,
    Permutation,
    Plm,
    RootFindingError,
    SweepReport,
    ZeroColumnError,
    check_decomposition,
    classify,
    cplm_parts,
    identity,
    random_left_stochastic,
    to_dense,
)
from plmonoid import spectral, verify
from plmonoid.core import _plm_trusted
from plmonoid.formats import dumps_report
from plmonoid.verify import (
    _chunks,
    _mul_chunk,
    enumerate_plms,
    oracle_multiply,
    plm_from_index,
    sweep_decompose,
    sweep_eigen,
    sweep_multiplication,
    sweep_period,
    sweep_prerow,
)


def stable_bytes(report):
    return dumps_report(report.to_json_dict(stable=True)).encode()


class TestEnumeration:
    def test_counts(self):
        assert [len(enumerate_plms(d)) for d in (1, 2, 3, 4)] == [1, 4, 27, 256]

    def test_lexicographic_order_and_endpoints(self):
        elems = enumerate_plms(3)
        assert elems[0] == Plm((1, 1, 1))
        assert elems[-1] == Plm((3, 3, 3))
        assert elems == sorted(elems, key=lambda a: a.colmap)

    def test_matches_cartesian_product(self):
        for d in (1, 2, 3):
            expected = [Plm(cm) for cm in itertools.product(range(1, d + 1), repeat=d)]
            assert enumerate_plms(d) == expected

    def test_indexing(self):
        assert plm_from_index(3, 0) == Plm((1, 1, 1))
        assert plm_from_index(3, 26) == Plm((3, 3, 3))
        assert plm_from_index(2, 2) == Plm((2, 1))
        for i in (-1, 27):
            with pytest.raises(InvalidArgumentError, match=rf"^index {i} out of range 0\.\.26$"):
                plm_from_index(3, i)
        with pytest.raises(ValueError):
            enumerate_plms(0)


class TestOracleMultiply:
    def test_textbook_product(self):
        swap = DenseBinaryMatrix(((0, 1), (1, 0)))
        assert oracle_multiply(swap, swap).entries == ((1, 0), (0, 1))

    def test_collapse_example(self):
        a = to_dense(Plm((2, 3, 3)))
        assert oracle_multiply(a, a).entries == to_dense(Plm((3, 3, 3))).entries

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracle_multiply(to_dense(identity(2)), to_dense(identity(3)))

    def test_non_binary_product_names_the_first_entry(self):
        a = DenseBinaryMatrix(((1, 1), (0, 0)))
        b = DenseBinaryMatrix(((1, 0), (1, 0)))
        message = r"^product is not binary: entry 2 at row 1, column 1$"
        with pytest.raises(ValueError, match=message):
            oracle_multiply(a, b)

    def test_matches_loop_product_exhaustive_d3(self):
        # the numpy product against the plain triple loop it replaced
        denses = [to_dense(p) for p in enumerate_plms(3)]
        arrays = [np.array(m.entries) for m in denses]
        for a, arr_a in zip(denses, arrays):
            for b, arr_b in zip(denses, arrays):
                loop = tuple(
                    tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(3)) for j in range(3))
                    for i in range(3)
                )
                assert oracle_multiply(a, b).entries == loop
                assert oracle_multiply(arr_a, arr_b).tolist() == [list(r) for r in loop]


class TestSweepReport:
    def test_json_keys_and_passed(self):
        r = SweepReport(sweep="x", d=2, cases=5, elapsed_ms=17)
        assert r.passed
        d = r.to_json_dict()
        assert set(d) == {"sweep", "d", "cases", "pass", "failures", "findings", "elapsed_ms"}
        assert d["elapsed_ms"] == 17
        assert r.to_json_dict(stable=True)["elapsed_ms"] == 0

    def test_failures_flip_pass(self):
        r = SweepReport(sweep="x", d=2, cases=5, failures=[{"index": 0}])
        assert not r.passed
        assert r.to_json_dict()["pass"] is False


def test_chunks_partition_the_range():
    for total in (1, 5, 16, 729):
        for workers in (1, 2, 3, 7, 40):
            spans = _chunks(total, workers)
            flat = [k for start, stop in spans for k in range(start, stop)]
            assert flat == list(range(total))
            assert len(spans) == min(workers, total)
            sizes = [stop - start for start, stop in spans]
            assert max(sizes) - min(sizes) <= 1
    assert _chunks(0, 3) == [(0, 0)]


class InlinePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and the
    number of submitted calls, and runs each call at once, in this process."""

    created: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)
        self.submitted.append(0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted[-1] += 1
        result = fn(*args)
        return type("Done", (), {"result": lambda self: result})()


@pytest.fixture
def inline_pool(monkeypatch):
    import concurrent.futures

    InlinePool.created = []
    InlinePool.submitted = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    return InlinePool.created


def test_pool_never_exceeds_the_cpu_count(inline_pool):
    # 100,000 workers on two CPUs are cut to two before the range is split:
    # two chunks, not 16 one-pair chunks, run in two processes.
    serial = stable_bytes(sweep_multiplication(2))
    assert stable_bytes(sweep_multiplication(2, workers=100_000)) == serial
    assert inline_pool == [2]
    assert InlinePool.submitted == [2]
    sweep_period(3, workers=3)
    assert inline_pool == [2, 2]
    assert InlinePool.submitted == [2, 2]


def test_one_chunk_runs_without_a_pool(inline_pool):
    r = sweep_decompose(3, n_cases=0, workers=4)
    assert (r.cases, r.failures, r.findings["max_terms"]) == (0, [], 0)
    sweep_decompose(3, n_cases=1, workers=4)
    assert inline_pool == []


def test_one_cpu_runs_without_a_pool(inline_pool, monkeypatch):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 1)
    serial = stable_bytes(sweep_multiplication(2))
    assert stable_bytes(sweep_multiplication(2, workers=2)) == serial
    assert inline_pool == []


@pytest.mark.parametrize(
    "workers, message",
    [
        (0, "^worker count 0 must be >= 1$"),
        (-2, "^worker count -2 must be >= 1$"),
        (2.5, "^workers must be an int, not 2.5$"),
        (True, "^workers must be an int, not True$"),
        ("2", "^workers must be an int, not '2'$"),
    ],
)
@pytest.mark.parametrize(
    "sweep",
    [sweep_multiplication, sweep_period, sweep_eigen, sweep_prerow, sweep_decompose],
    ids=lambda f: f.__name__,
)
def test_bad_worker_counts_are_refused_before_any_pool(inline_pool, sweep, workers, message):
    with pytest.raises(InvalidArgumentError, match=message):
        sweep(2, workers=workers)
    assert inline_pool == []


class TestMultiplicationSweep:
    def test_d2_and_d3_pass_exhaustively(self):
        for d, cases in ((2, 16), (3, 729)):
            r = sweep_multiplication(d)
            assert r.passed
            assert (r.sweep, r.d, r.cases) == ("mul", d, cases)
            assert r.findings == {}

    def test_wrong_structural_product_is_one_failure_record(self, monkeypatch):
        real = verify.structural_multiply

        def wrong_on_one_pair(a, b):
            if (a.colmap, b.colmap) == ((1, 2), (2, 1)):
                return Plm((1, 1))
            return real(a, b)

        monkeypatch.setattr(verify, "structural_multiply", wrong_on_one_pair)
        r = sweep_multiplication(2)
        # pair (1 2) x (2 1) is left operand 1, right operand 2 of 4
        assert r.failures == [
            {
                "index": 6,
                "a": [1, 2],
                "b": [2, 1],
                "multiply": [2, 1],
                "structural": [1, 1],
                "oracle": [2, 1],
            }
        ]
        assert not r.passed

    def test_chunks_cut_inside_rows_find_the_same_failures(self, monkeypatch):
        real = verify.structural_multiply

        def wrong_on_some_pairs(a, b):
            if a.colmap[0] == b.colmap[-1] == 2:
                return Plm((3, 3, 3))
            return real(a, b)

        monkeypatch.setattr(verify, "structural_multiply", wrong_on_some_pairs)
        whole, _ = _mul_chunk(3, 0, 729)
        assert len(whole) > 1
        # 27 pairs per left operand: every cut below falls inside a row
        cuts = [0, 1, 40, 100, 364, 700, 728, 729]
        parts = [f for start, stop in zip(cuts, cuts[1:]) for f in _mul_chunk(3, start, stop)[0]]
        assert parts == whole

    @pytest.mark.parametrize(
        "route, name",
        [
            ("multiply", "multiply"),
            ("structural", "structural_multiply"),
            ("oracle", "oracle_multiply"),
        ],
    )
    def test_each_route_is_checked_on_its_own(self, monkeypatch, route, name):
        # A row's three lists are compared at once; a wrong product from any
        # one route must still come out as the one record of its pair.
        a, b, wrong = Plm((2, 1, 3)), Plm((1, 3, 3)), Plm((1, 1, 1))
        right = list(verify.multiply(a, b).colmap)
        real = getattr(verify, name)
        if route == "oracle":
            dense_a, dense_b = (np.array(to_dense(p).entries) for p in (a, b))
            bad = np.array(to_dense(wrong).entries)

            def is_bad(x, y):
                return np.array_equal(x, dense_a) and np.array_equal(y, dense_b)
        else:
            bad = wrong

            def is_bad(x, y):
                return (x, y) == (a, b)

        monkeypatch.setattr(verify, name, lambda x, y: bad if is_bad(x, y) else real(x, y))
        elems = enumerate_plms(3)
        records = {"multiply": right, "structural": right, "oracle": right, route: [1, 1, 1]}
        assert sweep_multiplication(3).failures == [
            {
                "index": elems.index(a) * 27 + elems.index(b),
                "a": [2, 1, 3],
                "b": [1, 3, 3],
                **records,
            }
        ]

    def test_a_passing_row_is_not_read_back_from_the_oracle(self, monkeypatch):
        # A row whose oracle products equal the dense forms of its
        # composition products never needs the oracle's column maps.
        def no_read(products):
            pytest.fail("a passing row was read back")

        monkeypatch.setattr(verify, "_oracle_colmaps", no_read)
        assert sweep_multiplication(3).passed

    def test_agreeing_column_map_routes_are_still_checked_against_the_oracle(
        self, monkeypatch
    ):
        # multiply and structural_multiply agree on one wrong product, so
        # only the dense check can catch it; the record holds the oracle's
        # column map.
        a, b, wrong = Plm((2, 1, 3)), Plm((1, 3, 3)), Plm((1, 1, 1))
        right = list(verify.multiply(a, b).colmap)
        for name in ("multiply", "structural_multiply"):
            real = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda x, y, real=real: wrong if (x, y) == (a, b) else real(x, y)
            )
        elems = enumerate_plms(3)
        assert sweep_multiplication(3).failures == [
            {
                "index": elems.index(a) * 27 + elems.index(b),
                "a": [2, 1, 3],
                "b": [1, 3, 3],
                "multiply": [1, 1, 1],
                "structural": [1, 1, 1],
                "oracle": right,
            }
        ]

    @pytest.mark.parametrize("wrong", [(1, 1), (1, 1, 1, 1), (0, 2, 3), (2, 4, 3)])
    def test_a_composition_product_outside_the_operands_is_a_failure(self, monkeypatch, wrong):
        # The dense check looks the composition product up among the
        # operands by its column map; a map of another length, or with a
        # row outside 1..d, has no entry there and must be a failure
        # record, not a KeyError.
        a, b = Plm((2, 1, 3)), Plm((1, 3, 3))
        real = verify.multiply
        right = list(real(a, b).colmap)
        monkeypatch.setattr(
            verify, "multiply", lambda x, y: _plm_trusted(wrong) if (x, y) == (a, b) else real(x, y)
        )
        elems = enumerate_plms(3)
        assert sweep_multiplication(3).failures == [
            {
                "index": elems.index(a) * 27 + elems.index(b),
                "a": [2, 1, 3],
                "b": [1, 3, 3],
                "multiply": list(wrong),
                "structural": right,
                "oracle": right,
            }
        ]

    def test_d5_slice_within_budget(self, traced):
        # 200,000 of the 9,765,625 pairs at d = 5, the first 64 left operands
        # and part of the 65th: 2.3-3.2 s measured on a 2-CPU x86-64 VM
        # (Python 3.11), so the budget is three times the slowest reading.
        # The budget assumes a host of that speed; under a tracer (coverage,
        # a debugger) only the failures are checked.
        t0 = time.perf_counter()
        failures, _ = _mul_chunk(5, 0, 200_000)
        elapsed = time.perf_counter() - t0
        assert failures == []
        if not traced:
            assert elapsed < 10.0, f"d = 5 slice took {elapsed:.2f} s (budget 10 s)"


class TestPeriodSweep:
    def test_d2_all_periodic(self):
        r = sweep_period(2)
        assert r.passed
        assert r.findings == {"verdicts": {"periodic": 4}, "asserted": True}

    def test_d3_splits_into_periodic_and_prerow(self):
        r = sweep_period(3)
        assert r.passed
        assert r.findings == {"verdicts": {"periodic": 21, "prerow": 6}, "asserted": True}

    def test_d4_reports_without_asserting(self):
        r = sweep_period(4)
        assert r.passed
        assert r.findings["asserted"] is False
        verdicts = r.findings["verdicts"]
        assert sum(verdicts.values()) == 256
        assert verdicts["eventually_periodic"] > 0


class TestEigenSweep:
    def test_d2(self):
        r = sweep_eigen(2)
        assert r.passed
        assert r.findings == {"period_histogram": {"1": 3, "2": 1}, "zero_eigenvalue_count": 2}

    def test_d3(self):
        r = sweep_eigen(3)
        assert r.passed
        assert r.findings == {
            "period_histogram": {"1": 16, "2": 9, "3": 2},
            "zero_eigenvalue_count": 21,
        }

    def test_histogram_counts_every_case(self):
        r = sweep_eigen(3)
        assert sum(r.findings["period_histogram"].values()) == r.cases

    def test_failed_power_identity_is_one_failure_record(self, monkeypatch):
        real = verify._eigen_check

        def identity_fails_on_one(a, tol):
            report = real(a, tol)
            if a.colmap == (2, 1):
                return dataclasses.replace(report, roots_of_unity_ok=False)
            return report

        monkeypatch.setattr(verify, "_eigen_check", identity_fails_on_one)
        r = sweep_eigen(2)
        assert r.failures == [{"index": 2, "colmap": [2, 1], "check": "power_identity"}]
        assert not r.passed

    def test_failed_numeric_roots_is_one_failure_record_with_detail(self, monkeypatch):
        real = verify._eigen_check

        def roots_fail_on_one(a, tol):
            if a.colmap == (2, 1):
                raise RootFindingError("roots strayed", deviation=0.5)
            return real(a, tol)

        monkeypatch.setattr(verify, "_eigen_check", roots_fail_on_one)
        r = sweep_eigen(2)
        assert r.failures == [
            {"index": 2, "colmap": [2, 1], "check": "numeric_roots", "detail": "roots strayed"}
        ]
        # A failed case is left out of the tallies.
        assert r.findings == {"period_histogram": {"1": 3}, "zero_eigenvalue_count": 2}

    def test_tolerance_is_checked_once_per_sweep(self, monkeypatch):
        calls = []
        real = spectral.check_tol

        def counted(tol, name="tolerance"):
            calls.append(tol)
            real(tol, name)

        monkeypatch.setattr(spectral, "check_tol", counted)
        monkeypatch.setattr(verify, "check_tol", counted)
        assert sweep_eigen(3, tol=1e-7).passed
        assert calls == [1e-7]
        # The public eigen_check still checks its own argument.
        spectral.eigen_check(Plm((2, 1)), 1e-7)
        assert calls == [1e-7, 1e-7]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_tolerance_is_refused_before_any_chunk(self, monkeypatch, tol, workers):
        def no_chunk(*args):
            pytest.fail(f"_eigen_chunk ran on {args!r}")

        monkeypatch.setattr(verify, "_eigen_chunk", no_chunk)
        with pytest.raises(InvalidArgumentError, match="^tolerance must be "):
            sweep_eigen(3, tol=tol, workers=workers)

    def test_failed_zero_eigenvalue_is_one_failure_record(self, monkeypatch):
        real = verify.is_permutation
        monkeypatch.setattr(verify, "is_permutation", lambda a: a.colmap == (1, 1) or real(a))
        r = sweep_eigen(2)
        assert r.failures == [{"index": 0, "colmap": [1, 1], "check": "zero_eigenvalue"}]
        assert r.findings == {"period_histogram": {"1": 2, "2": 1}, "zero_eigenvalue_count": 1}
        assert not r.passed


class TestPrerowSweep:
    def test_d3_survey(self):
        r = sweep_prerow(3)
        assert r.passed and r.failures == []
        f = r.findings
        assert f["row_plms"] == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
        assert [rec["colmap"] for rec in f["prerow"]] == [
            [1, 1, 2],
            [1, 3, 1],
            [2, 2, 1],
            [2, 3, 3],
            [3, 1, 3],
            [3, 2, 2],
        ]
        assert f["summary"] == {
            "prerow_count": 6,
            "literal_all": False,
            "canonical_all": False,
        }

    def test_known_prerow_matrix_is_recorded_in_literal_form(self):
        r = sweep_prerow(3)
        rec = next(rec for rec in r.findings["prerow"] if rec["colmap"] == [2, 3, 3])
        assert rec == {
            "colmap": [2, 3, 3],
            "e": 2,
            "m": 3,
            "literal_form": True,
            "canonical_form": True,
        }

    @staticmethod
    def cplm_with_row_plc_reference(a):
        # The survey's predicate as the classes state it: a CPLM with zero
        # leading entry whose PLC is a row PLM, or a row PLM R_m with m > 1.
        cls = classify(a)
        if cls.kind == "rowplm":
            return cls.m > 1
        if cls.kind != "cplm" or cls.leading:
            return False
        return classify(cplm_parts(a).plc).kind == "rowplm"

    def test_form_predicate_matches_its_reference_through_d6(self):
        for d in range(1, 7):
            for a in enumerate_plms(d):
                assert verify._cplm_with_row_plc(a.colmap) == self.cplm_with_row_plc_reference(a), a

    def test_neither_reading_holds_universally(self):
        # both readings of the structural question fail at d = 3 and d = 4,
        # which is exactly why this sweep reports instead of asserting
        for d in (3, 4):
            s = sweep_prerow(d).findings["summary"]
            assert s["literal_all"] is False
            assert s["canonical_all"] is False


class TestDecomposeSweep:
    def test_small_run_passes(self):
        r = sweep_decompose(3, n_cases=25, seed=7)
        assert r.passed
        assert r.cases == 25
        assert r.findings["seed"] == 7
        assert r.findings["term_bound"] == 9
        assert 1 <= r.findings["max_terms"] <= 9

    def test_reports_the_verifier_problems(self, monkeypatch):
        # Every case gets the same wrong decomposition: the identity.
        wrong = Decomposition(((1, identity(3)),))
        monkeypatch.setattr(verify, "decompose", lambda m: wrong)
        r = sweep_decompose(3, n_cases=2, seed=7)
        assert [f["case"] for f in r.failures] == [0, 1]
        for f in r.failures:
            m = verify.random_left_stochastic(3, f["seed"], verify.RANDOM_MAX_DENOMINATOR)
            assert f["problems"] == check_decomposition(m, wrong)
            assert f["problems"][0] == "recompose mismatch"

    def test_zero_cases(self):
        r = sweep_decompose(4, n_cases=0, seed=3)
        assert r.passed and r.failures == []
        assert r.cases == 0
        assert r.findings["max_terms"] == 0

    def test_deterministic_for_a_seed(self):
        a = sweep_decompose(3, n_cases=10, seed=1)
        b = sweep_decompose(3, n_cases=10, seed=1)
        assert stable_bytes(a) == stable_bytes(b)


class TestReportStability:
    def test_repeat_runs_are_byte_identical(self):
        for make in (lambda: sweep_period(3), lambda: sweep_eigen(3), lambda: sweep_prerow(3)):
            assert stable_bytes(make()) == stable_bytes(make())

    def test_worker_count_does_not_change_content(self):
        for sweep in (sweep_period, sweep_eigen, sweep_prerow):
            serial = stable_bytes(sweep(3, workers=1))
            for workers in (2, 3):
                assert stable_bytes(sweep(3, workers=workers)) == serial

    def test_multiplication_sweep_worker_invariance(self):
        assert stable_bytes(sweep_multiplication(2, workers=1)) == stable_bytes(
            sweep_multiplication(2, workers=3)
        )

    def test_decompose_sweep_worker_invariance(self):
        serial = stable_bytes(sweep_decompose(3, n_cases=10, seed=1))
        assert stable_bytes(sweep_decompose(3, n_cases=10, seed=1, workers=2)) == serial

    def test_multiplication_sweep_d3_worker_invariance(self):
        # two workers split the 729 pairs inside a row of 27
        serial = stable_bytes(sweep_multiplication(3, workers=1))
        for workers in (2, 3):
            assert stable_bytes(sweep_multiplication(3, workers=workers)) == serial

    def test_stable_json_has_zero_elapsed(self):
        r = sweep_period(2)
        obj = json.loads(stable_bytes(r))
        assert obj["elapsed_ms"] == 0
        assert obj["pass"] is True


SWEEPS = [sweep_multiplication, sweep_period, sweep_eigen, sweep_prerow, sweep_decompose]


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_sweeps_reject_dimension_below_one(sweep, d):
    with pytest.raises(InvalidArgumentError, match=f"^dimension {d} must be >= 1$"):
        sweep(d)


def test_decompose_sweep_rejects_negative_case_count():
    with pytest.raises(InvalidArgumentError, match="^case count -3 must be >= 0$"):
        sweep_decompose(2, n_cases=-3)


# bool and float arguments compare equal to ints, so they would pass a range
# check and return a value (``enumerate_plms(True)`` was one 1 x 1 PLM).
@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: Permutation.identity(True), "d", id="Permutation.identity"),
        pytest.param(lambda: enumerate_plms(True), "d", id="enumerate_plms"),
        pytest.param(lambda: plm_from_index(True, 0), "d", id="plm_from_index-d"),
        pytest.param(lambda: plm_from_index(2, 1.0), "index", id="plm_from_index-index"),
        *[
            pytest.param(lambda sweep=sweep: sweep(True), "d", id=sweep.__name__)
            for sweep in SWEEPS
        ],
        # refused before the case count d**d is formed, which would raise TypeError
        *[
            pytest.param(lambda sweep=sweep, d=d: sweep(d), "d", id=f"{sweep.__name__}-{d!r}")
            for sweep in SWEEPS
            for d in ("3", None, [3])
        ],
        pytest.param(lambda: sweep_period(2.0), "d", id="sweep_period-float"),
        pytest.param(lambda: sweep_decompose(2, n_cases=True), "n_cases", id="n_cases-bool"),
        pytest.param(lambda: sweep_decompose(2, n_cases=5.0), "n_cases", id="n_cases-float"),
        pytest.param(lambda: random_left_stochastic(True, 0), "d", id="random_left_stochastic"),
        # the report carries the seed: 0.5 was written as "seed": 0.5, True as true
        pytest.param(lambda: sweep_decompose(3, 2, seed=0.5), "seed", id="seed-float"),
        pytest.param(lambda: sweep_decompose(3, 2, seed=True), "seed", id="seed-bool"),
        pytest.param(lambda: random_left_stochastic(3, 0.5), "seed", id="random-seed-float"),
        pytest.param(lambda: random_left_stochastic(3, True), "seed", id="random-seed-bool"),
        pytest.param(
            lambda: random_left_stochastic(2, 0, max_denominator=10.0),
            "max_denominator",
            id="max_denominator",
        ),
    ],
)
def test_rejects_non_int_arguments(call, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an int, not "):
        call()


# --- failure paths of the sweeps, reached by patching ---------------------------


def test_period_law_failure_is_one_record_per_case(monkeypatch):
    # Every verdict reads eventually periodic; only the PLMs whose square is
    # not a row PLM, (1, 2) and (2, 1), break the d <= 3 law.
    wrong = PeriodicityVerdict.eventually_periodic(s=2, t=1)
    monkeypatch.setattr(verify, "periodicity", lambda a: wrong)
    r = sweep_period(2)
    assert r.failures == [
        {"index": k, "colmap": colmap, "verdict": wrong.to_json_dict()}
        for k, colmap in ((1, [1, 2]), (2, [2, 1]))
    ]
    assert wrong.to_json_dict() == {
        "periodicity": "eventually_periodic",
        "s": 2,
        "t": 1,
        "is_prerow": False,
    }
    assert r.findings == {"verdicts": {"eventually_periodic": 4}, "asserted": True}
    assert not r.passed


def test_decompose_error_is_one_record_per_case(monkeypatch):
    def fails(m):
        raise ZeroColumnError(2)

    monkeypatch.setattr(verify, "decompose", fails)
    r = sweep_decompose(3, n_cases=2, seed=7)
    problems = ["decompose: column 2 has no positive entry"]
    assert r.failures == [
        {"case": case, "seed": verify._case_seed(7, case), "problems": problems} for case in (0, 1)
    ]
    assert r.findings == {"max_terms": 0, "term_bound": 9, "seed": 7}


def test_oracle_colmaps_reads_a_stack_of_plms():
    stack = np.array([to_dense(Plm(cm)).entries for cm in ((2, 1, 1), (3, 3, 3))])
    assert verify._oracle_colmaps(stack) == [(2, 1, 1), (3, 3, 3)]


@pytest.mark.parametrize(
    "bad, message",
    [
        (((1, 1), (1, 0)), "column 1 has 2 ones"),
        (((2, 0), (0, 1)), "entry 2 at row 1, column 1 is not 0 or 1"),
        (((1, 0), (0, 0)), "column 2 has 0 ones"),
    ],
)
def test_oracle_colmaps_refuses_a_product_that_is_not_a_plm(bad, message):
    # The fallback reads the stack one matrix at a time, so the first bad
    # product raises from_dense's own error.
    stack = np.array([((1, 0), (0, 1)), bad, ((0, 0), (1, 1))])
    with pytest.raises(NotPlmError, match=f"^{message}$"):
        verify._oracle_colmaps(stack)


def test_mul_sweep_raises_when_the_oracle_product_is_not_a_plm(monkeypatch):
    monkeypatch.setattr(verify, "oracle_multiply", lambda a, b: a + b)
    with pytest.raises(NotPlmError):
        sweep_multiplication(2)
