"""End-to-end CLI runs, in process, with frozen output and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plmonoid
from plmonoid import Decomposition, Plm, RootFindingError, cli, multiply
from plmonoid.cli import main
from plmonoid.formats import dumps_report, plm_to_colmap_line, plm_to_text

A_DENSE = "3\n0 0 0\n1 0 0\n0 1 1\n"
IDENTITY_COLMAP = "plm 3: 1 2 3\n"
B_STOCHASTIC = "3\n1/10 0 1/5\n9/10 1/2 4/5\n0 1/2 0\n"
BAD_SUMS = "2\n1/2 0\n0 1\n"
NOT_A_PLM = "2\n1 0\n1 0\n"

B_DECOMPOSITION = {
    "dim": 3,
    "terms": [
        {"lambda": "1/10", "colmap": [1, 2, 1]},
        {"lambda": "1/10", "colmap": [2, 2, 1]},
        {"lambda": "3/10", "colmap": [2, 2, 2]},
        {"lambda": "1/2", "colmap": [2, 3, 2]},
    ],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "a.txt": A_DENSE,
        "i.txt": IDENTITY_COLMAP,
        "b.txt": B_STOCHASTIC,
        "bad.txt": BAD_SUMS,
        "notplm.txt": NOT_A_PLM,
        "small.txt": "2\n1 0\n0 1\n",
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestMul:
    def test_default_output_is_text_plus_json(self, run, files):
        code, out, err = run("mul", files["a.txt"], files["a.txt"])
        assert code == 0
        assert out == (
            "3\n0 0 0\n0 0 0\n1 1 1\n"
            '{"classification": {"class": "rowplm", "m": 3}, "colmap": [3, 3, 3], "dim": 3}\n'
        )

    def test_json_only(self, run, files):
        code, out, _ = run("mul", files["a.txt"], files["i.txt"], "--json")
        assert code == 0
        assert json.loads(out) == {
            "dim": 3,
            "colmap": [2, 3, 3],
            "classification": {"class": "cplm", "leading": False},
        }

    def test_text_only(self, run, files):
        code, out, _ = run("mul", files["i.txt"], files["a.txt"], "--text")
        assert code == 0
        assert out == A_DENSE

    def test_json_and_text_conflict(self, run, files):
        code, _, _ = run("mul", files["a.txt"], files["a.txt"], "--json", "--text")
        assert code == 2

    def test_dimension_mismatch_exit_3(self, run, files):
        code, _, err = run("mul", files["a.txt"], files["small.txt"])
        assert code == 3
        assert "dimension mismatch" in err

    def test_missing_file_exit_2(self, run, tmp_path):
        code, _, err = run("mul", str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt"))
        assert code == 2
        assert "nope.txt" in err

    def test_non_plm_input_exit_2(self, run, files):
        code, _, err = run("mul", files["notplm.txt"], files["notplm.txt"])
        assert code == 2
        assert "column 1" in err

    def test_text_at_d_2000(self, run, tmp_path):
        # two 8 MB dense files and an 8 MB product; about 0.05 s, 0.2 s when
        # the reader and writer went row by row
        rng = random.Random(2000)
        a, b = (Plm(tuple(rng.randint(1, 2000) for _ in range(2000))) for _ in range(2))
        (tmp_path / "a.txt").write_text(plm_to_text(a))
        (tmp_path / "b.txt").write_text(plm_to_text(b))
        t0 = time.perf_counter()
        code, out, err = run("mul", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--text")
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        assert out == plm_to_text(multiply(a, b))
        assert elapsed < 2.0


class TestClassifyPeriodEigen:
    def test_classify(self, run, files):
        code, out, _ = run("classify", files["a.txt"])
        assert code == 0
        assert out == '{"class": "cplm", "leading": false}\n'

    @pytest.mark.parametrize(
        "text,message",
        [
            ("plmx 2: 1 2\n", "malformed column-map line 'plmx 2: 1 2'"),
            ("plm 0: 1\n", "dimension must be >= 1, got 0"),
        ],
    )
    def test_bad_column_map_line_exit_2(self, run, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        code, out, err = run("classify", str(path))
        assert (code, out, err) == (2, "", f"error: {path}:1: {message}\n")

    def test_classify_identity_from_colmap_file(self, run, files):
        code, out, _ = run("classify", files["i.txt"])
        assert code == 0
        assert out == '{"class": "cplm", "leading": true}\n'

    def test_period(self, run, files):
        code, out, _ = run("period", files["a.txt"])
        assert code == 0
        assert out == '{"e": 2, "is_prerow": true, "m": 3, "periodicity": "prerow"}\n'

    def test_period_of_an_85_x_85_permutation(self, run, tmp_path):
        # cycles (4, 5, 7, 9, 11, 13, 17, 19): period 58,198,140, which a walk
        # over the powers would take that many products to find
        cm, start = [], 1
        for n in (4, 5, 7, 9, 11, 13, 17, 19):
            cm += [start + (i + 1) % n for i in range(n)]
            start += n
        path = tmp_path / "p85.txt"
        path.write_text(plm_to_colmap_line(Plm(tuple(cm))) + "\n")
        t0 = time.perf_counter()
        code, out, err = run("period", str(path))
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        assert out == '{"is_prerow": false, "k": 58198140, "periodicity": "periodic"}\n'
        assert elapsed < 1.0

    def test_eigen(self, run, files):
        code, out, _ = run("eigen", files["i.txt"])
        assert code == 0
        report = json.loads(out)
        assert report["has_zero"] is False
        assert report["roots_of_unity_ok"] is True
        assert report["period"] == 1
        assert report["spectral_radius_numeric"] == pytest.approx(1.0, abs=1e-9)
        assert len(report["numeric_eigenvalues"]) == 3

    def test_eigen_rejects_nonpositive_tol(self, run, files):
        code, _, err = run("eigen", files["i.txt"], "--tol", "-1e-9")
        assert code == 2
        assert "--tol" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_eigen_rejects_non_finite_tol(self, run, files, tol):
        code, out, err = run("eigen", files["i.txt"], "--tol", tol)
        assert (code, out, err) == (2, "", f"error: --tol must be finite, got {tol}\n")

    def test_root_finding_error_exit_1(self, run, files, monkeypatch):
        def fail(a, tol):
            raise RootFindingError("some root sits 1e-3 away from the allowed spectrum")

        monkeypatch.setattr(cli, "eigen_check", fail)
        code, out, err = run("eigen", files["i.txt"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


class TestDecompose:
    def test_golden_output(self, run, files):
        code, out, _ = run("decompose", files["b.txt"])
        assert code == 0
        assert out == dumps_report(B_DECOMPOSITION)

    def test_check_flag_passes(self, run, files):
        code, out, _ = run("decompose", files["b.txt"], "--check")
        assert code == 0
        assert json.loads(out) == B_DECOMPOSITION

    def test_check_flag_reports_a_wrong_decomposition(self, run, files, monkeypatch):
        # A valid Decomposition, but not of the input matrix.
        wrong = Decomposition(((Fraction(1), Plm((1, 2, 1))),))
        monkeypatch.setattr(cli, "decompose", lambda m: wrong)
        code, out, err = run("decompose", files["b.txt"], "--check")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: decomposition check failed: recompose mismatch",
            "error: decomposition check failed: negative remainder entry",
        ]

    def test_bad_column_sums_exit_4(self, run, files):
        code, _, err = run("decompose", files["bad.txt"])
        assert code == 4
        assert "not left stochastic" in err
        assert "1/2" in err

    def test_negative_entry_exit_4(self, run, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("2\n-1/2 0\n3/2 1\n")
        code, _, err = run("decompose", str(p))
        assert code == 4

    def test_exponent_past_the_int_digit_limit_exit_2(self, run, tmp_path):
        # Fraction("1e-5000") parsed, and printing the column sum in the
        # exit-4 message then raised ValueError past sys's int-digit limit.
        p = tmp_path / "m.txt"
        p.write_text("2\n1e-5000 0\n1 1\n")
        code, out, err = run("decompose", str(p))
        assert (code, out, err) == (2, "", f"error: {p}:2: cannot parse entry '1e-5000'\n")

    # Each entry over P or Q fits sys.get_int_max_str_digits(), but a sum or
    # difference of two such entries has a denominator near P * Q that does
    # not.  Printing one ended in a ValueError traceback with exit 1.
    P, Q = 10**3000 + 1, 10**3000 + 3

    def assert_one_error_line(self, run, tmp_path, text, code):
        path = tmp_path / "m.txt"
        path.write_text(text)
        limit = sys.get_int_max_str_digits()
        result = run("decompose", str(path))
        assert sys.get_int_max_str_digits() == limit
        assert result[:2] == (code, "")
        assert result[2].count("\n") == 1 and result[2].startswith("error: ")
        assert "Traceback" not in result[2]
        return result[2], limit

    def test_weight_past_the_int_digit_limit_exit_2(self, run, tmp_path):
        P, Q = self.P, self.Q
        text = f"2\n1/{P} 1/{Q}\n{P - 1}/{P} {Q - 1}/{Q}\n"
        err, limit = self.assert_one_error_line(run, tmp_path, text, 2)
        assert err == (
            f"error: cannot write the weight of term 2: it has more than {limit} digits,"
            " the limit sys.get_int_max_str_digits() sets\n"
        )

    def test_column_sum_past_the_int_digit_limit_exit_4(self, run, tmp_path):
        text = f"2\n1/{self.P} 0\n1/{self.Q} 1\n"
        err, limit = self.assert_one_error_line(run, tmp_path, text, 4)
        assert err == (
            "error: not left stochastic: column 1 sums to a value too long to print"
            f" (more than {limit} digits), not 1\n"
        )

    def test_decimal_entries_parse_exactly(self, run, tmp_path):
        p = tmp_path / "dec.txt"
        p.write_text("2\n0.3 0.7\n0.7 0.3\n")
        code, out, _ = run("decompose", str(p))
        assert code == 0
        terms = json.loads(out)["terms"]
        assert terms == [
            {"lambda": "3/10", "colmap": [1, 1]},
            {"lambda": "2/5", "colmap": [2, 1]},
            {"lambda": "3/10", "colmap": [2, 2]},
        ]


class TestEnumerate:
    def test_d2_golden(self, run):
        code, out, _ = run("enumerate", "2")
        assert code == 0
        assert out == "plm 2: 1 1\nplm 2: 1 2\nplm 2: 2 1\nplm 2: 2 2\n"

    def test_force_flag_is_accepted(self, run):
        code, out, _ = run("enumerate", "2", "--force")
        assert code == 0
        assert out.count("\n") == 4

    def test_large_d_refused_without_force(self, run):
        code, _, err = run("enumerate", "9")
        assert code == 2
        assert "--force" in err

    def test_nonpositive_d_refused(self, run):
        code, _, _ = run("enumerate", "0")
        assert code == 2

    def test_streams_to_out(self, run, tmp_path):
        # 46,656 lines, about 0.9 MB: written as produced, never held whole
        target = tmp_path / "plms.txt"
        tracemalloc.start()
        try:
            code, out, _ = run("enumerate", "6", "--out", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == ""
        assert peak < 1_000_000
        lines = target.read_text().splitlines()
        assert len(lines) == 6**6
        assert (lines[0], lines[-1]) == ("plm 6: 1 1 1 1 1 1", "plm 6: 6 6 6 6 6 6")

    def test_closed_pipe_exits_1_quietly(self):
        # 7**7 lines are far more than a pipe holds, so the writer is still
        # busy when the reader goes away.
        env = {**os.environ, "PYTHONPATH": str(Path(plmonoid.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "plmonoid", "enumerate", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"plm 7: 1 1 1 1 1 1 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestVerify:
    def test_period_sweep_golden_report(self, run):
        code, out, err = run("verify", "period", "3")
        assert code == 0
        assert out == dumps_report(
            {
                "sweep": "period",
                "d": 3,
                "cases": 27,
                "pass": True,
                "failures": [],
                "findings": {"verdicts": {"periodic": 21, "prerow": 6}, "asserted": True},
                "elapsed_ms": 0,
            }
        )
        assert "period:" in err and "ms" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("mul 2", "604c2badafd4cac6151c97c65f9ae9a4d27258603584159adb108fe4b269a9bf"),
            ("mul 3", "7adede5d99b5b5714303d49c7ab4f9b4ff0e26b55b4a47fc14909417b33191eb"),
            ("mul 4", "0aaf84d3bdf9206b67d7b310fb253d74b4b874e56813a5a8bd4ea981175a5f1f"),
            ("period 4", "824fe379bf3aee93705bac8fa730f92e1a24898bc59033d04d33a75cbc1f7ab2"),
            ("eigen 3", "a0d1e5f0813e4812d7cd74fd743980872e8a5256c7728100b3d7837246f640b9"),
            ("eigen 4", "47843462e67d20a05064b223b04d67d58dcf7b694474e67ee5195d0b963f4859"),
            ("prerow 4", "564c1674ea4fd55c06984f44a4b5cce5dae800ee5e74ebef71fde03ba4ada62d"),
            (
                "decompose 5 --cases 20 --seed 5",
                "9e12a814bf07c90cf5b212091360b54d58f27b8e9c63852f351adfe041798115",
            ),
            ("all 2", "ec96bc1a89e4ecd7dbb938267b14975fb964ab1bd6a81c6fa84c4c33b319dd62"),
        ],
    )
    def test_report_bytes_are_pinned(self, run, argv, digest):
        code, out, _ = run("verify", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", ["mul 3", "decompose 4 --cases 20", "all 3"])
    def test_worker_count_does_not_change_the_report(self, run, argv):
        code, serial, _ = run("verify", *argv.split(), "--workers", "1")
        assert code == 0
        assert run("verify", *argv.split(), "--workers", "2")[:2] == (0, serial)

    def test_report_bytes_stable_across_runs(self, run):
        _, first, _ = run("verify", "eigen", "3")
        _, second, _ = run("verify", "eigen", "3")
        assert first == second

    def test_all_bundles_five_reports(self, run):
        code, out, err = run("verify", "all", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 2
        assert set(payload["reports"]) == {"mul", "period", "eigen", "prerow", "decompose"}
        assert all(r["pass"] for r in payload["reports"].values())
        assert all(r["elapsed_ms"] == 0 for r in payload["reports"].values())

    def test_decompose_sweep_options(self, run):
        code, out, _ = run("verify", "decompose", "3", "--cases", "5", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["cases"] == 5
        assert payload["findings"]["seed"] == 11

    def test_unknown_sweep_exit_2(self, run):
        code, _, _ = run("verify", "bogus", "3")
        assert code == 2

    def test_rejects_nonpositive_tol(self, run):
        code, _, _ = run("verify", "eigen", "2", "--tol", "0")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_rejects_non_finite_tol(self, run, tol):
        code, out, err = run("verify", "eigen", "2", "--tol", tol)
        assert (code, out, err) == (2, "", f"error: --tol must be finite, got {tol}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            *[
                (("verify", name, "0"), "dimension 0 must be >= 1")
                for name in (*cli.SWEEPS, "all")
            ],
            (("verify", "mul", "-1"), "dimension -1 must be >= 1"),
            (("verify", "decompose", "2", "--cases", "-1"), "case count -1 must be >= 0"),
            (("verify", "mul", "3", "--workers", "0"), "worker count 0 must be >= 1"),
            (("verify", "all", "2", "--workers", "-1"), "worker count -1 must be >= 1"),
            (("enumerate", "0"), "dimension 0 must be >= 1"),
            (("enumerate", "9"), "d=9 means 9**9 lines; pass --force to insist"),
            (("eigen", "i.txt", "--tol", "nan"), "--tol must be finite, got nan"),
        ],
        # the verify cases keep the ids they had before other commands joined
        ids=lambda v: " ".join(v).removeprefix("verify ") if isinstance(v, tuple) else None,
    )
    def test_rejects_bad_dimension_or_case_count(self, run, files, argv, message):
        # Every flag error takes one path: the library's check raises, and
        # main prints it as one error line with exit 2.
        code, out, err = run(*[files.get(arg, arg) for arg in argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestOutFlag:
    def test_writes_file_and_keeps_stdout_quiet(self, run, files, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run("classify", files["a.txt"], "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == '{"class": "cplm", "leading": false}\n'

    def test_verify_out(self, run, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run("verify", "period", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["pass"] is True

    @pytest.mark.parametrize(
        "argv", [("classify", "a.txt"), ("enumerate", "2"), ("verify", "mul", "2")]
    )
    def test_unwritable_out_exit_2(self, run, files, tmp_path, argv):
        target = tmp_path / "missing_dir" / "x"
        argv = [files.get(arg, arg) for arg in argv]
        code, out, err = run(*argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: cannot write {target}: No such file or directory\n")
        assert "Traceback" not in err


class TestInputEncoding:
    @pytest.mark.parametrize("command", ["classify", "decompose"])
    def test_input_that_is_not_utf8_exit_2(self, run, tmp_path, command):
        # A UTF-16 byte-order mark: this ended in a UnicodeDecodeError traceback.
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xff\xfe2\n1 0\n0 1\n")
        code, out, err = run(command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8: invalid start byte at byte 0\n"

    def test_reads_utf8_whatever_the_locale(self, tmp_path):
        # The formats docstring lets int() read any Unicode digit; the file
        # used to be decoded with the locale's encoding, ASCII under LC_ALL=C.
        path = tmp_path / "m.txt"
        path.write_text("plm 2: \u0661 \u0662\n", encoding="utf-8")
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(plmonoid.__file__).parents[1]),
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "plmonoid", "classify", str(path)],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0,
            b'{"class": "cplm", "leading": true}\n',
            b"",
        )


def test_unknown_command_exit_2(run):
    code, _, _ = run("frobnicate", "x")
    assert code == 2


def test_missing_arguments_exit_2(run):
    code, _, _ = run("mul")
    assert code == 2


class TestSharedParser:
    """``main`` builds its parser on its first call and reuses it."""

    def test_calls_match_a_fresh_parser(self, run, files, monkeypatch):
        sequence = [
            ("mul", files["a.txt"], "--nope"),
            ("--help",),
            ("mul", files["a.txt"], files["a.txt"]),
            ("eigen", files["a.txt"], "--tol", "nan"),
            ("verify", "mul", "2"),
        ]

        def outcomes():
            # The sweep's elapsed time goes to stderr and is not repeatable.
            return [
                (code, out, re.sub(r"\d+ ms", "N ms", err))
                for code, out, err in (run(*argv) for argv in sequence)
            ]

        shared = outcomes()
        assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == outcomes()

    def test_help_is_the_parser_help(self, run):
        code, out, err = run("--help")
        assert (code, err) == (0, "")
        assert out == cli.build_parser().format_help()

    def test_built_once_and_not_at_import(self, run):
        env = {**os.environ, "PYTHONPATH": str(Path(plmonoid.__file__).parents[1])}
        check = "from plmonoid import cli; print(cli._parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", check], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.stdout == "0\n"
        with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
            cli._parser.cache_clear()
            for _ in range(3):
                run("verify", "nope", "2")
        assert build.call_count == 1


class TestExitCodes:
    """Each error class gives its documented exit code, no stdout and an
    ``error:`` line as the last line of stderr, on drawn inputs.  The commands
    run in process with their output captured by hand, since pytest's capture
    fixtures are per test, not per example."""

    SETTINGS = settings(max_examples=25, deadline=None, database=None)

    @staticmethod
    def plm_cli(files: dict, *argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            # An argument naming a file, or a path inside one, points into tmp.
            argv = [str(Path(tmp, arg)) if arg.split("/")[0] in files else arg for arg in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def assert_error(self, result, code, fragment):
        assert result[0] == code
        assert result[1] == ""
        last = result[2].splitlines()[-1]
        assert last.startswith("error: ")
        assert fragment in last

    @SETTINGS
    @given(st.integers(1, 8), st.data())
    def test_parse_error_exit_2(self, d, data):
        rows = [["0"] * d for _ in range(d)]
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        rows[i][j] = data.draw(st.sampled_from(["x", "1.0", "1/2", "--1"]))
        text = f"{d}\n" + "".join(" ".join(row) + "\n" for row in rows)
        result = self.plm_cli({"a.txt": text}, "classify", "a.txt")
        self.assert_error(result, 2, f"a.txt:{i + 2}: non-integer entry")

    @SETTINGS
    @given(st.integers(1, 8), st.integers(1, 8), st.randoms())
    def test_dimension_mismatch_exit_3(self, d, e, rng):
        assume(d != e)
        files = {
            "a.txt": plm_to_text(Plm(tuple(rng.randint(1, d) for _ in range(d)))),
            "b.txt": plm_to_colmap_line(Plm(tuple(rng.randint(1, e) for _ in range(e)))),
        }
        self.assert_error(self.plm_cli(files, "mul", "a.txt", "b.txt"), 3, "dimension mismatch")

    @SETTINGS
    @given(st.integers(1, 6), st.data())
    def test_not_left_stochastic_exit_4(self, d, data):
        entry = st.fractions(min_value=0, max_value=1, max_denominator=6)
        row = st.lists(entry, min_size=d, max_size=d)
        grid = data.draw(st.lists(row, min_size=d, max_size=d))
        assume(any(sum(col) != 1 for col in zip(*grid)))
        text = f"{d}\n" + "".join(" ".join(map(str, row)) + "\n" for row in grid)
        result = self.plm_cli({"m.txt": text}, "decompose", "m.txt")
        self.assert_error(result, 4, "not left stochastic: column ")

    @SETTINGS
    @given(st.text(st.characters(categories=["L", "N"]), min_size=1, max_size=20))
    def test_root_finding_error_exit_1(self, message):
        def fail(a, tol):
            raise RootFindingError(message)

        with mock.patch.object(cli, "eigen_check", fail):
            result = self.plm_cli({"i.txt": IDENTITY_COLMAP}, "eigen", "i.txt")
        self.assert_error(result, 1, message)

    @SETTINGS
    @given(st.sampled_from([("classify", "a.txt"), ("period", "a.txt"), ("enumerate", "2"),
                            ("mul", "a.txt", "a.txt", "--json"), ("verify", "period", "2")]))
    def test_unwritable_out_exit_2(self, argv):
        result = self.plm_cli({"a.txt": A_DENSE, "plain": "a file, not a directory"},
                              *argv, "--out", "plain/x")
        self.assert_error(result, 2, "plain/x: Not a directory")
        assert "error: cannot write /" in result[2]
