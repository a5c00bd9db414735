"""Property tests on random PLMs: the three multiplication routes, associativity,
the documented contracts of classify and canonicalize, the periodicity verdict
against a scan of the powers, the power cycle against a dict of every power,
the characteristic polynomial against sympy, and the square-free factors read
off the cycle lengths against sympy's factors of the characteristic
polynomial, also on maps drawn by cycle type, and the one-term unity
deviation against the two-term one it replaced on cycle types up to d = 90;
on hostile left stochastic matrices: the integer greedy decomposition
against a Fraction reference and against its closed form as a merge of the
columns' prefix sums, and the verifier on its output; on those, seeded
and convex-combined matrices: the integer form against the entries and
against the form a matrix derives from them; on corrupted
decompositions of seeded matrices: the one-pass verifier against the full
walk it replaced; on drawn JSON values: the report writer against
``json.dumps``;
and on token grids: the dense text reader and ``from_dense`` against the
int-grid path they replaced, its block scan of writer-form text against the
comprehension it bypasses and, on edited writer-form texts, against the
split path, plus the text and JSON round trips.

They complement the exhaustive sweeps (every pair up to d = 4) with random
operands up to d = 12, operands up to d = 40 built to peel the structural
product many levels deep, and the seeded decomposition sweep (denominators up to
1000, d <= 8) with prime denominators up to 2**61 - 1 and d up to 16.
"""

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmonoid import (
    Decomposition,
    DimensionMismatchError,
    MatrixParseError,
    NotLeftStochasticError,
    NotPlmError,
    Plm,
    StochasticMatrix,
    canonicalize,
    char_poly,
    check_decomposition,
    classify,
    convex_combine,
    decompose,
    from_dense,
    identity,
    multiply,
    periodicity,
    permute_columns,
    permute_rows,
    power_cycle,
    random_left_stochastic,
    row_plm,
    structural_multiply,
    to_dense,
)
from plmonoid import core
from plmonoid.core import _trusted
from plmonoid.formats import (
    _numbered_lines,
    _parse_dim,
    _writer_form_nonzeros,
    decomposition_from_json_dict,
    dumps_compact,
    dumps_report,
    parse_plm_text,
    parse_stochastic_text,
    plm_to_colmap_line,
    plm_to_text,
    stochastic_to_text,
)
from plmonoid.spectral import (
    DEFAULT_TOL,
    _graph,
    _roots_with_multiplicity,
    _squarefree_factors,
    max_unity_deviation,
)
from plmonoid.stochastic import _accumulate, _scaled
from plmonoid.verify import oracle_multiply

MAX_D = 12

# No deadline: per-example timings vary on a loaded host.  No example database,
# so a failure reproduces from the printed example, not from saved state.
SETTINGS = settings(max_examples=300, deadline=None, database=None)


def colmaps(d):
    return st.lists(st.integers(1, d), min_size=d, max_size=d).map(lambda cm: Plm(tuple(cm)))


def plms():
    return st.integers(1, MAX_D).flatmap(colmaps)


def same_dim(n):
    return st.integers(1, MAX_D).flatmap(lambda d: st.tuples(*[colmaps(d)] * n))


@SETTINGS
@given(same_dim(2))
def test_three_routes_agree(pair):
    a, b = pair
    via_oracle = from_dense(oracle_multiply(to_dense(a), to_dense(b)))
    assert multiply(a, b) == structural_multiply(a, b) == via_oracle


@SETTINGS
@given(same_dim(3))
def test_structural_multiply_is_associative(triple):
    a, b, c = triple
    left = structural_multiply(structural_multiply(a, b), c)
    assert left == structural_multiply(a, structural_multiply(b, c))


# --- deep peels ----------------------------------------------------------------
# Random column maps mostly end the structural peel at level 0 or 1.  These
# operands keep it going: a permutation right factor has one first-row 1 at
# every level, CPLMs and PCPLMs take the peeling cases at the top, and a left
# factor with a 1 in row 1 past column 1 needs the row swap there.

DEEP_D = 40


def permutations(d):
    return st.permutations(range(1, d + 1)).map(lambda p: Plm(tuple(p)))


def cplms(d):
    # Column 1 anywhere, columns 2..d below row 1.
    rest = st.lists(st.integers(2, d), min_size=d - 1, max_size=d - 1)
    return st.tuples(st.integers(1, d), rest).map(lambda t: Plm((t[0], *t[1])))


def row_swapping(d):
    # Any map with row 1 hit by some column after the first.
    cm = st.lists(st.integers(1, d), min_size=d, max_size=d)
    return st.tuples(cm, st.integers(1, d - 1)).map(
        lambda t: Plm(tuple(t[0][: t[1]] + [1] + t[0][t[1] + 1:]))
    )


def pcplms(d):
    # A leading CPLM with column 1 swapped into column c >= 2.
    rest = st.lists(st.integers(2, d), min_size=d - 1, max_size=d - 1)
    return st.tuples(rest, st.integers(1, d - 1)).map(
        lambda t: Plm(tuple(t[0][: t[1] - 1] + [1] + t[0][t[1] - 1:]))
    )


def deep_operands(n):
    def draw(d):
        left = st.one_of(permutations(d), cplms(d), row_swapping(d))
        right = st.one_of(permutations(d), cplms(d), pcplms(d))
        return st.tuples(left, *[right] * (n - 1))

    return st.integers(2, DEEP_D).flatmap(draw)


@SETTINGS
@given(deep_operands(2))
def test_three_routes_agree_on_deep_peels(pair):
    a, b = pair
    via_oracle = from_dense(oracle_multiply(to_dense(a), to_dense(b)))
    assert multiply(a, b) == structural_multiply(a, b) == via_oracle


@SETTINGS
@given(deep_operands(3))
def test_structural_multiply_is_associative_on_deep_peels(triple):
    a, b, c = triple
    left = structural_multiply(structural_multiply(a, b), c)
    assert left == structural_multiply(a, structural_multiply(b, c))


@SETTINGS
@given(st.integers(2, DEEP_D).flatmap(lambda d: st.tuples(permutations(d), permutations(d))))
def test_permutation_products_peel_every_level(pair):
    # Neither slice is a row PLM before the last column, so the product
    # classifies the right slice at every level k = 0..d-2, with first row
    # one = k + 1, and ends on a row PLM of dimension 1.
    a, b = pair
    with mock.patch.object(core, "_classify", wraps=core._classify) as spy:
        prod = structural_multiply(a, b)
    assert [call.args[1] for call in spy.call_args_list] == list(range(1, a.dim))
    assert prod == multiply(a, b)


SUFFIX_D = 64


def suffixed(d):
    # A column map whose constant suffix has a drawn length 0..d: a free
    # prefix, then that many copies of one row.  For a suffix of length
    # 1..d-1 the entry before it differs from the row, so the suffix is
    # exactly that long; length 0 leaves the whole map free.
    def build(t):
        n, m, prefix = t
        cm = prefix[: d - n] + [m] * n
        if 0 < n < d and cm[d - n - 1] == m:
            cm[d - n - 1] = m % d + 1
        return Plm(tuple(cm))

    draw = st.tuples(
        st.integers(0, d),
        st.integers(1, d),
        st.lists(st.integers(1, d), min_size=d, max_size=d),
    )
    return draw.map(build)


def suffix_operands(d):
    special = st.sampled_from([identity(d), row_plm(d, 1), row_plm(d, d)])
    left = st.one_of(suffixed(d), permutations(d), special)
    right = st.one_of(colmaps(d), permutations(d), special, *[cplms(d)] * (d > 1))
    return st.tuples(left, right)


@SETTINGS
@given(st.integers(1, SUFFIX_D).flatmap(suffix_operands))
def test_three_routes_agree_for_every_left_suffix(pair):
    # The peel stops on the left factor at the first level k with k at
    # least the start of its constant suffix; every suffix length, R_1,
    # the identity and permutations (suffix of length 1) meet it there.
    a, b = pair
    via_oracle = from_dense(oracle_multiply(to_dense(a), to_dense(b)))
    assert structural_multiply(a, b) == multiply(a, b) == via_oracle


@SETTINGS
@given(plms())
def test_canonicalize_contract(a):
    sigma, canonical = canonicalize(a)
    assert canonical == permute_rows(sigma, a)
    assert 1 not in canonical.colmap[1:]
    if 1 not in a.colmap[1:]:
        assert sigma.is_identity()
    else:
        assert sum(v != i for i, v in enumerate(sigma.images, start=1)) == 2


@SETTINGS
@given(plms())
def test_classify_contract(a):
    cm, d = a.colmap, a.dim
    cls = classify(a)
    if cls.kind == "rowplm":
        assert cm == (cls.m,) * d
        return
    assert len(set(cm)) > 1
    if cls.kind == "cplm":
        assert 1 not in cm[1:]
        assert cls.leading == (cm[0] == 1)
    elif cls.kind == "pcplm":
        assert cm.count(1) == 1 and cm[0] != 1
        assert classify(permute_columns(cls.tau, a)).kind == "cplm"
    else:
        assert cls.kind == "iplm"
        assert 1 < cm.count(1) < d


# --- spectra -----------------------------------------------------------------

SPECTRAL_SETTINGS = settings(max_examples=100, deadline=None, database=None)


def brute_force_periodicity(a):
    """The verdict from the definitions: walk A, A^2, ... to the first repeat
    for tail and period, and scan those powers for the first row PLM."""
    powers = []
    p = a
    while p not in powers:
        powers.append(p)
        p = multiply(p, a)
    s = powers.index(p) + 1
    t = len(powers) + 1 - s
    rows = [k for k, q in enumerate(powers, start=1) if len(set(q.colmap)) == 1]
    if s == 1:
        return {"periodicity": "periodic", "k": t, "is_prerow": bool(rows)}
    if rows:
        e = rows[0]
        return {"periodicity": "prerow", "e": e, "m": powers[e - 1].colmap[0], "is_prerow": True}
    return {"periodicity": "eventually_periodic", "s": s, "t": t, "is_prerow": False}


@SPECTRAL_SETTINGS
@given(plms())
def test_periodicity_matches_brute_force(a):
    assert periodicity(a).to_json_dict() == brute_force_periodicity(a)


@SPECTRAL_SETTINGS
@given(plms())
def test_char_poly_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expected = sympy.Matrix(to_dense(a).entries).charpoly(x).all_coeffs()
    assert list(char_poly(a).coefficients) == [int(c) for c in expected]


def dict_walk(a):
    """Tail and period from a dict of every power A^k to its exponent k:
    O(period * d) memory, kept as the reference for the functional-graph pass."""
    seen = {}
    p, k = a, 1
    while p not in seen:
        seen[p] = k
        p = multiply(p, a)
        k += 1
    return seen[p], k - seen[p]


@SPECTRAL_SETTINGS
@given(plms())
def test_power_cycle_matches_dict_walk(a):
    cyc = power_cycle(a)
    assert (cyc.tail, cyc.period) == dict_walk(a)


@st.composite
def cycle_typed(draw):
    """A map of dimension <= MAX_D with drawn cycle lengths: disjoint cycles
    first, then nodes that each point to an earlier node, so off the cycles."""
    d = draw(st.integers(1, MAX_D))
    cm = []
    while len(cm) < d and (not cm or draw(st.booleans())):
        n, start = draw(st.integers(1, d - len(cm))), len(cm) + 1
        cm += [start + (i + 1) % n for i in range(n)]
    while len(cm) < d:
        cm.append(draw(st.integers(1, len(cm))))
    return Plm(tuple(cm))


@SPECTRAL_SETTINGS
@given(st.one_of(plms(), cycle_typed()))
def test_squarefree_factors_match_sympy(a):
    sympy = pytest.importorskip("sympy")
    _, expected = sympy.sqf_list(sympy.Poly(char_poly(a).coefficients, sympy.Symbol("x")))
    factors = _squarefree_factors(a.dim, _graph(a.colmap)[1])
    assert factors == [([int(c) for c in g.all_coeffs()], m) for g, m in expected]


MAX_CYCLE_TYPE_D = 90
# Prime powers, the cycle lengths of the permutations of high lcm: 4, 5, 7,
# 9, 11, 13, 17 and 19 (d = 85) have an lcm of 58,198,140.
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29)


@st.composite
def cycle_types(draw):
    """A dimension d <= 90 and the cycle lengths of a map on it: distinct prime
    powers (a permutation when they fill d) or lengths drawn one by one.  The
    d - sum(lengths) nodes left over lie off the cycles."""
    if draw(st.booleans()):
        lengths = draw(
            st.lists(st.sampled_from(PRIME_POWERS), min_size=1, max_size=10, unique=True)
            .filter(lambda ls: sum(ls) <= MAX_CYCLE_TYPE_D)
        )
    else:
        lengths = [draw(st.integers(1, MAX_CYCLE_TYPE_D))]
        while sum(lengths) < MAX_CYCLE_TYPE_D and draw(st.booleans()):
            lengths.append(draw(st.integers(1, MAX_CYCLE_TYPE_D - sum(lengths))))
    return draw(st.integers(sum(lengths), MAX_CYCLE_TYPE_D)), lengths


def two_term_deviation(roots, period, tol):
    # max_unity_deviation as it was, with its own test of the modulus.
    worst = 0.0
    for z in roots:
        if abs(z) <= tol:
            continue
        dev = max(abs(abs(z) - 1.0), abs(z**period - 1.0))
        worst = max(worst, dev)
    return worst


@SPECTRAL_SETTINGS
@given(cycle_types())
def test_unity_deviation_needs_no_modulus_test(case):
    # |z^t - 1| >= ||z|^t - 1| >= ||z| - 1| for t >= 1, so the distance from
    # the unit circle never decides the deviation, in floats too.
    d, lengths = case
    roots = _roots_with_multiplicity(_squarefree_factors(d, lengths))
    period = lcm(*lengths)
    dev = max_unity_deviation(roots, period, DEFAULT_TOL)
    assert dev == two_term_deviation(roots, period, DEFAULT_TOL)


# --- decomposition -----------------------------------------------------------

MAX_STOCHASTIC_D = 16
# Sixteen distinct primes, the largest 2**61 - 1 and the five primes just below
# it, so that a matrix whose columns use different ones has a common
# denominator of several hundred bits.
PRIMES = (
    3, 7, 127, 8191, 65_537, 131_071, 524_287, 998_244_353, 1_000_000_007, 2**31 - 1,
    2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229, 2**61 - 259, 2**61 - 283,
)


def fraction_greedy(m):
    """The greedy decomposition as it ran on ``Fraction`` entries, kept as the
    reference: each step picks every column's first positive row and
    subtracts the smallest picked entry.  Its per-step invariant re-checks
    are left out; ``check_decomposition`` covers them."""
    d = m.dim
    work = [list(row) for row in m.entries]
    remaining = Fraction(1)
    terms = []
    while remaining > 0:
        picks = [next(i for i in range(d) if work[i][j] > 0) for j in range(d)]
        lam = min(work[picks[j]][j] for j in range(d))
        for j in range(d):
            work[picks[j]][j] -= lam
        terms.append((lam, tuple(i + 1 for i in picks)))
        remaining -= lam
    return terms


def from_columns(cols):
    return StochasticMatrix(tuple(zip(*cols)))


def split_column(d, q):
    # q split into d nonnegative parts by sorted cut points, over q.
    def parts(cuts):
        bounds = [0, *sorted(cuts), q]
        return [Fraction(hi - lo, q) for lo, hi in zip(bounds, bounds[1:])]

    return st.lists(st.integers(0, q), min_size=d - 1, max_size=d - 1).map(parts)


def prime_columns(d):
    # Each column over its own prime denominator.
    return st.permutations(PRIMES).flatmap(
        lambda qs: st.tuples(*[split_column(d, q) for q in qs[:d]]).map(list)
    )


def unit_column(d):
    return st.integers(0, d - 1).map(lambda r: [Fraction(int(i == r)) for i in range(d)])


def dense_column(d):
    # Every entry positive, with a huge common denominator.
    def normalize(xs):
        return [Fraction(x, sum(xs)) for x in xs]

    return st.lists(st.integers(1, 2**61 - 1), min_size=d, max_size=d).map(normalize)


def hostile_stochastic(d):
    """Left stochastic matrices of three kinds: every column split over a
    prime denominator, a PLM (all columns 0/1), or a PLM with one dense column."""
    prime = prime_columns(d)
    plm = st.lists(unit_column(d), min_size=d, max_size=d)
    one_dense = st.tuples(plm, dense_column(d), st.integers(0, d - 1)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] + 1:]
    )
    return st.one_of(prime, plm, one_dense).map(from_columns)


def stochastic():
    return st.integers(1, MAX_STOCHASTIC_D).flatmap(hostile_stochastic)


DECOMPOSE_SETTINGS = settings(max_examples=150, deadline=None, database=None)


@DECOMPOSE_SETTINGS
@given(stochastic())
def test_decompose_matches_fraction_greedy(m):
    dec = decompose(m)
    assert [(lam, p.colmap) for lam, p in dec.terms] == fraction_greedy(m)
    assert check_decomposition(m, dec) == []


@DECOMPOSE_SETTINGS
@given(stochastic())
def test_decompose_is_the_merge_of_column_prefix_sums(m):
    # The greedy is the northwest-corner rule.  With W_1 < W_2 < ... the
    # distinct positive prefix sums over all columns, term k has weight
    # W_k - W_(k-1), and in each column it picks the row whose prefix sum
    # first reaches W_k.  Every column ends on 1, so there are at most
    # nnz - d + 1 of them.
    prefixes = [list(accumulate(col)) for col in zip(*m.entries)]
    ends = sorted({s for prefix in prefixes for s in prefix if s > 0})
    terms = decompose(m).terms
    assert len(terms) == len(ends)
    assert len(ends) <= sum(x > 0 for row in m.entries for x in row) - m.dim + 1
    for (lam, p), lo, hi in zip(terms, [0, *ends], ends):
        assert lam == hi - lo
        assert p.colmap == tuple(bisect_left(prefix, hi) + 1 for prefix in prefixes)


@DECOMPOSE_SETTINGS
@given(stochastic())
def test_decompose_does_not_validate_its_result_again(m):
    # The result is built from validated values, so it skips
    # Decomposition's own checks; check_decomposition is the verifier.
    refuse = AssertionError("Decomposition validated again")
    with mock.patch.object(Decomposition, "__post_init__", side_effect=refuse):
        dec = decompose(m)
    assert dec == Decomposition(dec.terms)
    assert check_decomposition(m, dec) == []


def column_sum_error(m):
    """``(column, total)`` of the first column not summing to 1, as the
    ``Fraction`` check reported it, or None."""
    for j, col in enumerate(zip(*m.entries), start=1):
        total = sum(col)
        if total != 1:
            return j, total
    return None


def nonnegative_matrix(d):
    entry = st.fractions(min_value=0, max_value=1, max_denominator=12)
    row = st.tuples(*[entry] * d)
    return st.tuples(*[row] * d).map(StochasticMatrix)


@DECOMPOSE_SETTINGS
@given(st.integers(1, 6).flatmap(nonnegative_matrix))
def test_column_sum_error_is_unchanged(m):
    expected = column_sum_error(m)
    if expected is None:
        assert check_decomposition(m, decompose(m)) == []
        return
    with pytest.raises(NotLeftStochasticError) as err:
        decompose(m)
    column, total = expected
    assert (err.value.column, err.value.total) == (column, total)
    assert type(err.value.total) is Fraction
    assert str(err.value) == f"column {column} sums to {total}, not 1"


@DECOMPOSE_SETTINGS
@given(stochastic())
def test_stochastic_text_round_trip(m):
    assert parse_stochastic_text(stochastic_to_text(m)).entries == m.entries


@DECOMPOSE_SETTINGS
@given(stochastic())
def test_decomposition_json_round_trip(m):
    dec = decompose(m)
    again = decomposition_from_json_dict(json.loads(dumps_compact(dec.to_json_dict())))
    assert again.terms == dec.terms


# --- the integer form ----------------------------------------------------------


def seeded_stochastic():
    return st.builds(
        random_left_stochastic,
        st.integers(1, MAX_STOCHASTIC_D),
        st.integers(0, 2**32),
        st.sampled_from((1, 2, 5, 1000)),
    )


@st.composite
def combined_stochastic(draw):
    """``convex_combine`` of up to six drawn PLMs, each weighted by a drawn
    share of the total, zero weights included."""
    d = draw(st.integers(1, MAX_STOCHASTIC_D))
    parts = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=6))
    parts[0] += 1
    terms = [(Fraction(n, sum(parts)), draw(colmaps(d))) for n in parts]
    return convex_combine(terms)


@DECOMPOSE_SETTINGS
@given(st.one_of(stochastic(), seeded_stochastic(), combined_stochastic()))
def test_integer_form_is_the_entries_over_a_common_denominator(m):
    d = m.dim
    scale, cols = m._ints
    assert all(scale % x.denominator == 0 for row in m.entries for x in row)
    assert len(cols) == d and all(len(col) == d for col in cols)
    assert all(
        type(cols[j][i]) is int and Fraction(cols[j][i], scale) == m.entries[i][j]
        for i in range(d)
        for j in range(d)
    )
    # A matrix built from the same entries has no stored form, so it derives
    # one: over the least common denominator, and the builder's up to scale.
    plain = StochasticMatrix(m.entries)
    base, base_cols = plain._ints
    assert base == lcm(*[x.denominator for row in m.entries for x in row])
    assert scale % base == 0
    assert cols == [[x * (scale // base) for x in col] for col in base_cols]
    dec = decompose(m)
    assert dec.terms == decompose(plain).terms
    assert check_decomposition(m, dec) == check_decomposition(plain, dec) == []


# --- the verifier against its full walk -----------------------------------------


def full_walk_check(m: StochasticMatrix, dec: Decomposition) -> list[str]:
    """Re-verify ``dec`` as a decomposition of ``m`` from its terms alone.

    Returns the problems found, in this order, or an empty list:
    ``recompose mismatch``, ``weights do not sum to 1``, ``weight outside
    (0, 1]``, ``too many terms``, then the first fault of the remainder walk,
    which subtracts the terms from ``m`` one by one and recounts every entry
    after each: ``negative remainder entry``, ``zero count did not grow`` or
    ``non-uniform column sums``, else ``nonzero final remainder`` if the walk
    ends on a nonzero remainder.  Everything runs on ints scaled by the least
    common multiple of all denominators.  The terms are not trusted to satisfy
    :class:`Decomposition`'s own validation.  Raises
    :class:`DimensionMismatchError` when a term's dimension differs from
    ``m``'s.
    """
    # check_decomposition as it was before its walk became one pass, kept
    # as the reference: it recomposes up front, keeps a running weight total
    # and recounts every entry and every column sum after each term.  It
    # still reports the two problems that check_decomposition leaves out as
    # implied by others, IMPLIED below.
    d = m.dim
    for _, p in dec.terms:
        if p.dim != d:
            raise DimensionMismatchError(f"term dims {p.dim} != {d}")
    scale = lcm(
        *[x.denominator for row in m.entries for x in row],
        *[lam.denominator for lam, _ in dec.terms],
    )
    cols = [_scaled(col, scale) for col in zip(*m.entries)]
    weights = _scaled([lam for lam, _ in dec.terms], scale)
    colmaps = [p.colmap for _, p in dec.terms]
    problems = []
    if _accumulate(weights, colmaps, d) != cols:
        problems.append("recompose mismatch")
    if sum(weights) != scale:
        problems.append("weights do not sum to 1")
    if not all(0 < w <= scale for w in weights):
        problems.append("weight outside (0, 1]")
    if len(weights) > d * d:
        problems.append("too many terms")
    zeros = sum(col.count(0) for col in cols)
    running = sum(weights)
    for w, cm in zip(weights, colmaps):
        for col, r in zip(cols, cm):
            col[r - 1] -= w
        running -= w
        if min(map(min, cols)) < 0:
            problems.append("negative remainder entry")
            break
        new_zeros = sum(col.count(0) for col in cols)
        if new_zeros <= zeros:
            problems.append("zero count did not grow")
            break
        zeros = new_zeros
        if list(map(sum, cols)).count(running) != d:
            problems.append("non-uniform column sums")
            break
    else:
        if any(map(any, cols)):
            problems.append("nonzero final remainder")
    return problems


# Each corruption takes ``draw``, the terms as a list of (weight, Plm) pairs
# and the matrix's entries as a list of row lists, and edits one of them.
def drop_term(draw, terms, rows):
    if terms:
        del terms[draw(st.integers(0, len(terms) - 1))]


def duplicate_term(draw, terms, rows):
    if terms:
        i = draw(st.integers(0, len(terms) - 1))
        terms.insert(draw(st.integers(0, len(terms))), terms[i])


def reorder_terms(draw, terms, rows):
    terms[:] = draw(st.permutations(terms))


def move_a_one(draw, terms, rows):
    # One column of one term gets its 1 in another row (or the same one).
    if terms:
        i = draw(st.integers(0, len(terms) - 1))
        lam, p = terms[i]
        cm = list(p.colmap)
        cm[draw(st.integers(0, p.dim - 1))] = draw(st.integers(1, p.dim))
        terms[i] = (lam, Plm(tuple(cm)))


def small_fraction():
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 1000))


def nudge_weight(draw, terms, rows):
    if terms:
        i = draw(st.integers(0, len(terms) - 1))
        terms[i] = (terms[i][0] + draw(small_fraction()), terms[i][1])


def zero_weight(draw, terms, rows):
    if terms:
        i = draw(st.integers(0, len(terms) - 1))
        terms[i] = (Fraction(0), terms[i][1])


def negate_weight(draw, terms, rows):
    # One term is followed by a copy of itself with its weight negated.  The
    # copy adds back what the term took, so the entries the term zeroed
    # leave zero, and the zero count must lose them.
    if terms:
        i = draw(st.integers(0, len(terms) - 1))
        terms.insert(i + 1, (-terms[i][0], terms[i][1]))


def empty_terms(draw, terms, rows):
    terms.clear()


def nudge_entry(draw, terms, rows):
    # One entry of the matrix moves, so its column's sum leaves the others'.
    d = len(rows)
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    rows[i][j] = max(rows[i][j] + draw(small_fraction()), Fraction(0))


def foreign_term(draw, terms, rows):
    # A term of another dimension: both verifiers raise.
    if terms:
        terms[draw(st.integers(0, len(terms) - 1))] = (Fraction(1), identity(len(rows) + 1))


CORRUPTIONS = (
    drop_term, duplicate_term, reorder_terms, move_a_one, nudge_weight, zero_weight,
    negate_weight, empty_terms, nudge_entry, foreign_term,
)


@st.composite
def corrupted_decompositions(draw):
    """A seeded random left stochastic matrix with d <= 8 and its greedy
    decomposition, after up to three corruptions drawn from CORRUPTIONS, with
    the decomposition built without its own validation."""
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32))
    m = random_left_stochastic(d, seed, draw(st.sampled_from((1, 2, 10, 1000))))
    terms = list(decompose(m).terms)
    rows = [list(row) for row in m.entries]
    for corruption in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
        corruption(draw, terms, rows)
    return StochasticMatrix(tuple(map(tuple, rows))), _trusted(Decomposition, terms=tuple(terms))


def verdict(check, m, dec):
    try:
        return check(m, dec)
    except DimensionMismatchError as exc:
        return type(exc), str(exc)


# The problems full_walk_check reports that check_decomposition leaves out,
# each with the problems of which one must then be reported as well.
IMPLIED = {
    "too many terms": {
        "negative remainder entry", "zero count did not grow", "non-uniform column sums",
    },
    "nonzero final remainder": {"recompose mismatch"},
}


@settings(max_examples=1000, deadline=None, database=None)
@given(corrupted_decompositions())
def test_verifier_matches_its_full_walk(case):
    m, dec = case
    reference = verdict(full_walk_check, m, dec)
    if isinstance(reference, list):
        for dropped, implying in IMPLIED.items():
            if dropped in reference:
                assert implying & set(reference)
        reference = [p for p in reference if p not in IMPLIED]
    assert verdict(check_decomposition, m, dec) == reference


# --- matrix text ---------------------------------------------------------------

TEXT_SETTINGS = settings(max_examples=500, deadline=None, database=None)


def reference_scan(rows):
    """The column-major scan ``from_dense`` ran before it shared the column
    validator: the topmost entry that is neither 0 nor 1 in the first bad
    column, else that column's count of ones."""
    d = len(rows)
    colmap = []
    for j in range(d):
        hit = where = 0
        for i in range(d):
            x = rows[i][j]
            if x == 1:
                hit += 1
                where = i + 1
            elif x != 0:
                raise NotPlmError(
                    f"entry {x!r} at row {i + 1}, column {j + 1} is not 0 or 1", column=j + 1
                )
        if hit != 1:
            raise NotPlmError(f"column {j + 1} has {hit} ones", column=j + 1, count=hit)
        colmap.append(where)
    return Plm(tuple(colmap))


def reference_read_dense(d, rows, path):
    """The dense reader's old path over ``(line, text)`` rows: every token to
    an int, then the reference scan of the int grid."""
    grid = []
    for n, line in rows:
        try:
            entries = [int(tok) for tok in line.split()]
        except ValueError:
            raise MatrixParseError(path, n, f"non-integer entry in {line!r}") from None
        if len(entries) != d:
            raise MatrixParseError(path, n, f"expected {d} entries, found {len(entries)}")
        grid.append(entries)
    try:
        return reference_scan(grid)
    except NotPlmError as exc:
        raise MatrixParseError(path, None, str(exc)) from None


def outcome(f, *args):
    try:
        return f(*args)
    except (MatrixParseError, NotPlmError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), vars(exc)


# Tokens that ``int`` reads as 0, as 1, as something else, or refuses.
ZERO_TOKENS = ("00", "+0", "-0", "٠")
ONE_TOKENS = ("01", "+1", "١")
OTHER_TOKENS = ("2", "-1", "1_0", "10", "x", "1.0", "")


def token_grids():
    """(d, rows): a PLM's dense grid with up to three cells replaced by
    tokens from the pools above, and sometimes a row made ragged."""

    def build(d):
        cell = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
        token = st.sampled_from(("0", "1") + ZERO_TOKENS + ONE_TOKENS + OTHER_TOKENS)
        ragged = st.one_of(st.none(), st.tuples(st.integers(0, d - 1), st.sampled_from((-1, 1))))
        return st.tuples(
            st.just(d),
            st.lists(st.integers(1, d), min_size=d, max_size=d),
            st.lists(st.tuples(cell, token), max_size=3),
            ragged,
        )

    def grid(args):
        d, colmap, edits, ragged = args
        rows = [["1" if colmap[j] == i + 1 else "0" for j in range(d)] for i in range(d)]
        for (i, j), tok in edits:
            rows[i][j] = tok
        if ragged:
            i, step = ragged
            rows[i] = rows[i][:-1] if step < 0 else rows[i] + ["0"]
        return d, [" ".join(t for t in row if t) for row in rows]

    return st.integers(1, 6).flatmap(build).map(grid)


@TEXT_SETTINGS
@given(token_grids())
def test_dense_reader_matches_the_int_grid_path(grid):
    d, rows = grid
    text = f"{d}\n" + "".join(f"{row}\n" for row in rows)
    numbered = [(n, row.strip()) for n, row in enumerate(rows, start=2) if row.strip()]
    if len(numbered) != d:  # an emptied row is a row-count error, read before any entry
        return
    assert outcome(parse_plm_text, text, "f.txt") == outcome(
        reference_read_dense, d, numbered, "f.txt"
    )


# Tokens and separators of a drawn row: text whose rows are all d single "0"
# and "1" tokens between single spaces takes the reader's block scan, any
# other text the token-by-token comprehension.
ROW_TOKENS = ("0", "1", "00", "01", "+1", "2", "-1", "٠", "1_0", "x")
ROW_SEPARATORS = (" ", " ", " ", "  ", "\t")


def token_rows(d):
    """d rows of about d tokens each, joined by separators from
    ``ROW_SEPARATORS``: some of only "0" and "1", some of those with one
    token from ``ROW_TOKENS`` (so a row can be as long as a plain one, as
    ``0 1_0`` is at d = 3), and some from ``ROW_TOKENS`` alone; or d plain
    rows, as the writer writes them."""
    length = {"min_size": max(1, d - 1), "max_size": d + 1}
    plain = st.lists(st.sampled_from(("0", "1")), **length)

    def one_replaced(args):
        toks, i, tok = args
        toks[i % len(toks)] = tok
        return toks

    toks = st.one_of(
        plain,
        st.tuples(plain, st.integers(0, d), st.sampled_from(ROW_TOKENS)).map(one_replaced),
        st.lists(st.sampled_from(ROW_TOKENS), **length),
    )
    writer_row = st.lists(st.sampled_from(("0", "1")), min_size=d, max_size=d)
    return st.one_of(
        st.lists(st.tuples(st.sampled_from(ROW_SEPARATORS), toks), min_size=d, max_size=d),
        st.lists(st.tuples(st.just(" "), writer_row), min_size=d, max_size=d),
    )


def comprehension_scan(toks):
    """The split path's row reader, which the block scan bypasses: every
    token other than "0" through ``int``."""
    return [(j, int(t)) for j, t in enumerate(toks) if t != "0"]


@TEXT_SETTINGS
@given(st.integers(1, 8).flatmap(token_rows))
def test_block_scan_matches_the_comprehension(rows):
    d = len(rows)
    lines = [sep.join(toks) for sep, toks in rows]
    text = f"{d}\n" + "".join(f"{line}\n" for line in lines)
    writer_form = all(
        len(toks) == d and set(toks) <= {"0", "1"} and line == " ".join(toks)
        for (_, toks), line in zip(rows, lines)
    )
    block = _writer_form_nonzeros(text)
    if writer_form:
        assert block == (d, [comprehension_scan(line.split()) for line in lines])
    else:
        assert block is None
    numbered = list(enumerate(lines, start=2))
    assert outcome(parse_plm_text, text, "f.txt") == outcome(
        reference_read_dense, d, numbered, "f.txt"
    )


def reference_read_text(text, path):
    """The split path over the whole text: stripped non-blank lines, the
    dimension line, then ``reference_read_dense`` over the rows."""
    d, rows = _parse_dim(path, _numbered_lines(text))
    return reference_read_dense(d, rows, path)


EDIT_CHARS = "01 \n\r\t\x0b+2"


def edited_writer_texts():
    """A PLM's text as the writer writes it (d <= 12), then up to three
    single-character edits (replace, insert or delete, with characters from
    ``EDIT_CHARS``), perhaps a blank line or a CRLF, and perhaps a variant
    of the dimension line."""

    def build(d):
        edit = st.tuples(st.sampled_from(("replace", "insert", "delete")),
                         st.integers(0, 2 * d * d + 3), st.sampled_from(EDIT_CHARS))
        return st.tuples(
            st.just(d),
            st.lists(st.integers(1, d), min_size=d, max_size=d),
            st.lists(edit, max_size=3),
            st.sampled_from((None, "\n", "\r")),
            st.integers(1, d),
            st.sampled_from((None, " {}", "+{}", "{}\r", "arabic")),
        )

    def text(args):
        d, colmap, edits, newline, row, head = args
        rows = [" ".join("1" if r == i else "0" for r in colmap) for i in range(1, d + 1)]
        body = "".join(f"{line}\n" for line in rows)
        for op, k, c in edits:
            k %= len(body) + 1
            body = (body[:k] + c + body[k + 1 :] if op == "replace"
                    else body[:k] + c + body[k:] if op == "insert"
                    else body[:k] + body[k + 1 :])
        if newline:
            # before the row-th line break, or at the end when fewer are left:
            # "\n" makes a blank line, "\r" a CRLF
            k = -1
            for _ in range(row):
                k = body.find("\n", k + 1)
                if k < 0:
                    break
            body = body[:k] + newline + body[k:] if k >= 0 else body + newline
        if head == "arabic":
            dim = "".join(chr(0x660 + int(c)) for c in str(d))
        else:
            dim = (head or "{}").format(d)
        return not edits and not newline and not head, f"{dim}\n" + body

    return st.integers(1, MAX_D).flatmap(build).map(text)


@TEXT_SETTINGS
@given(edited_writer_texts())
def test_block_reader_matches_the_split_path(case):
    unedited, text = case
    if unedited:
        assert _writer_form_nonzeros(text) is not None
    assert outcome(parse_plm_text, text, "f.txt") == outcome(reference_read_text, text, "f.txt")


def value_grids():
    values = st.sampled_from((0, 1, 0, 1, 2, -1, True, False, 1.0, 0.0, 0.5))
    return st.integers(1, 6).flatmap(
        lambda d: st.lists(st.lists(values, min_size=d, max_size=d), min_size=d, max_size=d)
    )


@TEXT_SETTINGS
@given(value_grids())
def test_from_dense_matches_the_reference_scan(grid):
    assert outcome(from_dense, grid) == outcome(reference_scan, grid)


def reference_plm_to_text(a):
    """The writer as it ran through ``to_dense``."""
    lines = [str(a.dim)] + [" ".join(str(x) for x in row) for row in to_dense(a).entries]
    return "\n".join(lines) + "\n"


def text_plms():
    return st.integers(1, 64).flatmap(colmaps)


@SETTINGS
@given(text_plms())
def test_plm_text_round_trips(a):
    text = plm_to_text(a)
    # A bool, so that a failing example does not make pytest diff two long texts.
    same_text = text == reference_plm_to_text(a)
    assert same_text
    assert parse_plm_text(text) == a
    assert parse_plm_text(plm_to_colmap_line(a)) == a


# --- report JSON ---------------------------------------------------------------

# Characters json escapes or spells out: quotes, backslashes, control
# characters, non-ASCII ones (two of them past the BMP) and a lone surrogate.
AWKWARD_CHARS = '"\\/\x00\x08\t\n\x1f\x7f \xe9\u2603\U0001f600\U0010ffff\ud800a'


def json_scalars():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**80), 10**80),
        st.floats(),
        st.sampled_from((float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324)),
        st.text(),
        st.text(AWKWARD_CHARS),
    )


def json_keys():
    # One key type per dict: json sorts the keys, and mixed types may not
    # compare.
    return st.sampled_from(
        (st.text(AWKWARD_CHARS), st.integers(), st.floats(), st.booleans(), st.none())
    )


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=8),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=8),
        json_keys().flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)),
    )


def json_values():
    return st.recursive(json_scalars(), json_containers, max_leaves=40)


@settings(max_examples=1000, deadline=None, database=None)
@given(json_values())
def test_report_writer_matches_json_dumps(value):
    # A bool, so that a failing example does not make pytest diff two long texts.
    same_bytes = dumps_report(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert same_bytes
