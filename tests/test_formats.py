"""Text and JSON round trips, plus parse-error reporting with line numbers,
and the dense reader and writer at large d."""

import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest

from plmonoid import (
    MatrixParseError,
    NotLeftStochasticError,
    Plm,
    PlmError,
    classify,
    identity,
    periodicity,
    row_plm,
)
from plmonoid.formats import (
    decomposition_from_json_dict,
    dumps_compact,
    dumps_report,
    parse_plm_text,
    parse_stochastic_text,
    plm_to_colmap_line,
    plm_to_text,
    stochastic_to_text,
)
from plmonoid.stochastic import StochasticMatrix, convex_combine, decompose
from plmonoid.verify import enumerate_plms

F = Fraction
B = StochasticMatrix(
    (
        (F(1, 10), F(0), F(1, 5)),
        (F(9, 10), F(1, 2), F(4, 5)),
        (F(0), F(1, 2), F(0)),
    )
)


class TestParsePlm:
    def test_dense_form(self):
        text = "3\n0 0 0\n1 0 0\n0 1 1\n"
        assert parse_plm_text(text) == Plm((2, 3, 3))

    def test_colmap_form(self):
        assert parse_plm_text("plm 3: 2 3 3") == Plm((2, 3, 3))
        assert parse_plm_text("  plm 2: 1 2  \n") == identity(2)

    def test_blank_lines_are_ignored(self):
        assert parse_plm_text("\n2\n\n1 0\n0 1\n\n") == identity(2)

    def test_round_trip_dense(self):
        for a in enumerate_plms(3):
            assert parse_plm_text(plm_to_text(a)) == a

    def test_round_trip_colmap(self):
        for a in enumerate_plms(3):
            assert parse_plm_text(plm_to_colmap_line(a)) == a

    def test_dense_writer_format(self):
        assert plm_to_text(row_plm(2, 1)) == "2\n1 1\n0 0\n"
        assert plm_to_colmap_line(row_plm(2, 1)) == "plm 2: 1 1"

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("", None, "empty"),
            ("x\n1 0\n0 1\n", 1, "dimension"),
            ("0\n", 1, "dimension"),
            ("2\n1 0\n", 1, "expected 2 matrix rows"),
            ("2\n1 0\n0 1\n1 0\n", 1, "expected 2 matrix rows"),
            ("2\n1 0 0\n0 1\n", 2, "expected 2 entries"),
            ("2\n1 a\n0 1\n", 2, "non-integer"),
            ("plm 2: 1\n", 1, "expected 2 entries"),
            ("plm 2: 1 x\n", 1, "malformed"),
            ("plm: 1 2\n", 1, "malformed"),
            ("plm 2: 1 3\n", 1, "outside"),
            ("plm 2: 1 2\nextra\n", 2, "extra content"),
            ("plmx 3: 1 2 3\n", 1, "malformed"),
            ("plm3 3: 1 2 3\n", 1, "malformed"),
            ("plm 0: 1\n", 1, "dimension must be >= 1, got 0"),
            ("plm -2: 1\n", 1, "dimension must be >= 1, got -2"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text(text, path="f.txt")
        assert err.value.line == line
        assert fragment in str(err.value)
        assert str(err.value).startswith("f.txt")

    @pytest.mark.parametrize("line", ["plmx 3: 1 2 3", "plm3 3: 1 2 3"])
    def test_column_map_prefix_must_be_the_token_plm(self, line):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text(f"\n{line}\n", path="f.txt")
        assert str(err.value) == f"f.txt:2: malformed column-map line {line!r}"

    @pytest.mark.parametrize("d", [0, -2])
    def test_column_map_dimension_below_one(self, d):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text(f"\n\nplm {d}: 1\n", path="f.txt")
        assert str(err.value) == f"f.txt:3: dimension must be >= 1, got {d}"

    def test_dense_with_doubled_column_names_the_column(self):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text("2\n1 0\n1 0\n")
        assert "column 1" in str(err.value)


class TestDenseReaderErrorOrder:
    """Which error the dense reader reports when a grid has several: per line,
    a non-integer token, then the entry count; then the first bad column in
    column-major order, where a bad entry beats its column's count."""

    @pytest.mark.parametrize(
        "text,line,message",
        [
            # a non-integer token beats a wrong count on the same line
            ("2\n1 x 0\n0 1\n", 2, "non-integer entry in '1 x 0'"),
            # an earlier line's count error beats a later non-integer line
            ("2\n1 0 0\n0 x\n", 2, "expected 2 entries, found 3"),
            ("2\n1 0\n0\n", 3, "expected 2 entries, found 1"),
            # a bad entry in column 1 at row 3 beats one in column 2 at row 1
            ("3\n0 7 1\n1 0 0\n5 1 0\n", None, "entry 5 at row 3, column 1 is not 0 or 1"),
            # a bad entry beats its own column's count error, wherever it sits
            ("3\n1 0 0\n1 1 0\n3 0 1\n", None, "entry 3 at row 3, column 1 is not 0 or 1"),
            ("3\n-1 0 0\n1 1 0\n1 0 1\n", None, "entry -1 at row 1, column 1 is not 0 or 1"),
            # a count error in column 1 beats a bad entry in column 2
            ("3\n0 9 1\n0 1 0\n0 0 0\n", None, "column 1 has 0 ones"),
            ("2\n1 1\n1 2\n", None, "column 1 has 2 ones"),
            # the topmost bad entry of a column is the one reported
            ("2\n2 1\n3 0\n", None, "entry 2 at row 1, column 1 is not 0 or 1"),
        ],
    )
    def test_first_error_wins(self, text, line, message):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text(text, path="f.txt")
        assert err.value.line == line
        where = "f.txt" if line is None else f"f.txt:{line}"
        assert str(err.value) == f"{where}: {message}"

    @pytest.mark.parametrize("zero", ["00", "+0", "-0", "٠"])
    def test_tokens_that_int_reads_as_zero_are_zeros(self, zero):
        assert parse_plm_text(f"2\n{zero} 0\n1 1\n") == row_plm(2, 2)

    @pytest.mark.parametrize("one", ["01", "+1", "١"])
    def test_tokens_that_int_reads_as_one_are_ones(self, one):
        assert parse_plm_text(f"2\n{one} 0\n0 1\n") == identity(2)

    def test_underscore_token_reads_as_ten(self):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text("2\n1_0 0\n0 1\n", path="f.txt")
        assert err.value.line is None
        assert str(err.value) == "f.txt: entry 10 at row 1, column 1 is not 0 or 1"

    def test_tokens_int_refuses_are_non_integer(self):
        with pytest.raises(MatrixParseError) as err:
            parse_plm_text("2\n1.0 0\n0 1\n", path="f.txt")
        assert str(err.value) == "f.txt:2: non-integer entry in '1.0 0'"


class TestLargeDense:
    """At d = 2000 the dense text is 8 MB.  The writer holds one buffer and
    the text it decodes; the reader copies the cells once, not the rows."""

    D = 2000

    @pytest.fixture(scope="class")
    def plm(self):
        rng = random.Random(2000)
        return Plm(tuple(rng.randint(1, self.D) for _ in range(self.D)))

    @staticmethod
    def peak_bytes(f, *args):
        tracemalloc.start()
        try:
            value = f(*args)
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_writer_peak_and_round_trip(self, plm):
        text, peak = self.peak_bytes(plm_to_text, plm)
        assert len(text) == len(f"{self.D}\n") + 2 * self.D * self.D
        assert peak < 20_000_000
        assert parse_plm_text(text) == plm

    def test_reader_peak(self, plm):
        text = plm_to_text(plm)
        read, peak = self.peak_bytes(parse_plm_text, text)
        assert read == plm
        assert peak < 10_000_000


class TestParseStochastic:
    def test_fractions_ints_and_exact_decimals(self):
        m = parse_stochastic_text("2\n0.3 1/4\n0.7 3/4\n")
        assert m.entries == (
            (Fraction(3, 10), Fraction(1, 4)),
            (Fraction(7, 10), Fraction(3, 4)),
        )
        m = parse_stochastic_text("2\n1 0\n0 1\n")
        assert m.entries[0][0] == 1

    def test_round_trip(self):
        assert parse_stochastic_text(stochastic_to_text(B)).entries == B.entries

    def test_entry_past_the_int_digit_limit_is_a_plm_error(self):
        # A legal matrix: entry (1, 1) is 1/p + 1/q, whose denominator pq has
        # 6,001 digits, past the 4,300 str() allows by default.
        p, q = 10**3000 + 1, 10**3000 + 3
        m = convex_combine(
            (
                (F(1, p), Plm((1, 1))),
                (F(1, q), Plm((1, 1))),
                (1 - F(1, p) - F(1, q), Plm((2, 2))),
            )
        )
        with pytest.raises(PlmError, match="^cannot write the entry at row 1, column 1: "):
            stochastic_to_text(m)

    def test_bad_token(self):
        with pytest.raises(MatrixParseError) as err:
            parse_stochastic_text("2\n1/0 1\n0 0\n", path="m.txt")
        assert err.value.line == 2
        with pytest.raises(MatrixParseError):
            parse_stochastic_text("2\nq 1\n1 0\n")

    def test_negative_entry_is_a_stochastic_error_not_a_parse_error(self):
        with pytest.raises(NotLeftStochasticError):
            parse_stochastic_text("2\n-1/2 0\n3/2 1\n")

    def test_a_parse_error_comes_before_a_negative_entry(self):
        # Every token is parsed before the matrix checks any sign.
        with pytest.raises(MatrixParseError) as err:
            parse_stochastic_text("2\n-1/2 0\n3/2 q\n")
        assert err.value.line == 3


class TestDecompositionJson:
    def test_round_trip(self):
        dec = decompose(B)
        again = decomposition_from_json_dict(json.loads(dumps_compact(dec.to_json_dict())))
        assert again.terms == dec.terms

    @pytest.mark.parametrize("lam", [1.0, 0.5, True])
    def test_refuses_an_inexact_weight(self, lam):
        obj = {"dim": 2, "terms": [{"lambda": lam, "colmap": [1, 2]}]}
        with pytest.raises(ValueError, match=f"^weight {lam!r} of term 1 is not"):
            decomposition_from_json_dict(obj)

    @pytest.mark.parametrize("dim", [True, 1.0, "1"])
    def test_refuses_an_inexact_dim(self, dim):
        obj = {"dim": dim, "terms": [{"lambda": "1", "colmap": [1]}]}
        with pytest.raises(ValueError, match=f"^dim must be an int, not {dim!r}$"):
            decomposition_from_json_dict(obj)

    def test_exact_weights_are_read(self):
        obj = {"dim": 2, "terms": [{"lambda": 1, "colmap": [2, 1]}]}
        assert decomposition_from_json_dict(obj).terms == ((Fraction(1), Plm((2, 1))),)

    def test_declared_dim_must_match(self):
        obj = decompose(B).to_json_dict()
        obj["dim"] = 4
        with pytest.raises(ValueError):
            decomposition_from_json_dict(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"dim": 1}, "decomposition: no 'terms' field"),
            ({"terms": []}, "decomposition: no 'dim' field"),
            ({"dim": 1, "terms": "x"}, "decomposition: field 'terms' is not a list (type str)"),
            ([], "decomposition: not a JSON object (type list)"),
            ({"dim": 1, "terms": [5]}, "term 1: not a JSON object (type int)"),
            ({"dim": 1, "terms": [{"colmap": [1]}]}, "term 1: no 'lambda' field"),
            (
                {"dim": 1, "terms": [{"lambda": "1/2", "colmap": [1]}, {"lambda": "1/2"}]},
                "term 2: no 'colmap' field",
            ),
            (
                {"dim": 1, "terms": [{"lambda": 1, "colmap": 5}]},
                "term 1: field 'colmap' is not a list (type int)",
            ),
            (
                {"dim": 1, "terms": [{"lambda": 1, "colmap": [2]}]},
                "term 1: column 1 maps to row 2, outside 1..1",
            ),
        ],
        ids=[
            "no-terms", "no-dim", "terms-str", "not-object", "term-int", "no-lambda",
            "no-colmap", "colmap-int", "colmap-range",
        ],
    )
    def test_refuses_a_malformed_object_naming_the_field(self, obj, message):
        # A bad value inside a decomposition is a ValueError (see errors.py),
        # named by its field and, inside a term, the term's number.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decomposition_from_json_dict(obj)


def test_json_writers_are_stable():
    assert dumps_compact({"b": 1, "a": 2}) == '{"a": 2, "b": 1}\n'
    report = dumps_report({"b": 1, "a": [1, 2]})
    assert report.endswith("\n")
    assert report.index('"a"') < report.index('"b"')
    assert json.loads(report) == {"a": [1, 2], "b": 1}


@pytest.mark.parametrize("dumps", [dumps_compact, dumps_report])
def test_json_writers_name_the_int_digit_limit(dumps):
    # json.dumps raised a bare ValueError for an int past the limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int-digit limit in force")
    message = (
        f"^cannot write an int in the report: it has more than {limit} digits,"
        r" the limit sys\.get_int_max_str_digits\(\) sets$"
    )
    with pytest.raises(PlmError, match=message):
        dumps({"period": 10**limit})


def test_json_writers_let_other_errors_out_as_raised():
    # Only the int-digit error is named as one; json's own check for a
    # value that contains itself keeps its ValueError and message.
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(ValueError, match="^Circular reference detected$") as info:
        dumps_compact(cyclic)
    # The report writer has no such check: it recurses until Python stops it.
    with pytest.raises(RecursionError):
        dumps_report(cyclic)
    with pytest.raises(RecursionError):
        dumps_report({"a": cyclic})


def test_verdict_json_of_every_kind():
    # The literal JSON object of one matrix of each classification and each
    # periodicity kind, as `plm classify` and `plm period` write them.
    cases = [
        (Plm((2, 2, 2)), {"class": "rowplm", "m": 2},
         {"periodicity": "periodic", "k": 1, "is_prerow": True}),
        (Plm((1, 3, 2)), {"class": "cplm", "leading": True},
         {"periodicity": "periodic", "k": 2, "is_prerow": False}),
        (Plm((2, 3, 3)), {"class": "cplm", "leading": False},
         {"periodicity": "prerow", "e": 2, "m": 3, "is_prerow": True}),
        (Plm((2, 1, 2)), {"class": "pcplm", "tau": [2, 1, 3]},
         {"periodicity": "periodic", "k": 2, "is_prerow": False}),
        (Plm((1, 1, 2)), {"class": "iplm"},
         {"periodicity": "prerow", "e": 2, "m": 1, "is_prerow": True}),
        (Plm((2, 1, 1, 3)), {"class": "iplm"},
         {"periodicity": "eventually_periodic", "s": 2, "t": 2, "is_prerow": False}),
    ]
    for a, shape, verdict in cases:
        assert classify(a).to_json_dict() == shape
        assert periodicity(a).to_json_dict() == verdict
    kinds = {(classify(a).kind, periodicity(a).kind) for a, _, _ in cases}
    assert {c for c, _ in kinds} == {"rowplm", "cplm", "pcplm", "iplm"}
    assert {p for _, p in kinds} == {"periodic", "prerow", "eventually_periodic"}
