"""The sweep engine: enumeration, the dense oracle, and report stability."""

import itertools
import json

import numpy as np
import pytest

from plmonoid import DenseBinaryMatrix, Plm, SweepReport, identity, to_dense
from plmonoid import verify
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
            with pytest.raises(ValueError):
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
        whole = _mul_chunk(3, 0, 729)
        assert len(whole) > 1
        # 27 pairs per left operand: every cut below falls inside a row
        cuts = [0, 1, 40, 100, 364, 700, 728, 729]
        parts = [f for start, stop in zip(cuts, cuts[1:]) for f in _mul_chunk(3, start, stop)]
        assert parts == whole


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
