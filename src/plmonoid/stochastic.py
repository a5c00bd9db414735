"""Left stochastic matrices over exact rationals and their PLM decomposition.

A left stochastic matrix has nonnegative entries and every column summing to
exactly 1.  Each one is a finite convex combination of permutation-like
matrices, and the combination here is found greedily: repeatedly locate the
first positive entry of every column, peel off the PLM those positions form,
scaled by the smallest entry involved, and continue on the remainder.  That
is the northwest-corner rule, which needs no remainder: entry i of column j
spans the interval of (0, 1] between the column's prefix sums to rows i - 1
and i.  With W_1 < W_2 < ... the distinct positive prefix sums over all
columns, term k picks in every column the entry whose interval holds
(W_(k-1), W_k], with W_0 = 0, and has weight W_k - W_(k-1).  Every column's
last prefix sum is the same 1, so a matrix with nnz positive entries has at
most nnz - d + 1 <= d^2 - d + 1 terms (also Carathéodory's bound), and the
weights sum to 1 exactly.  Those invariants hold by construction and are not
re-checked; :func:`check_decomposition` verifies a decomposition from its
terms alone, in one pass that subtracts them from the matrix and tests each
step on the d entries it touched, so in O(terms * d) time, no more than the
subtraction.

Validation happens where caller data enters: the ``StochasticMatrix`` and
``Decomposition`` constructors.  The matrices and decompositions this module
builds from values already validated (``decompose``, ``convex_combine``,
``random_left_stochastic``, ``StochasticMatrix.from_plm``) skip it.

Nothing here rounds.  Matrices and weights are held as ``fractions.Fraction``
at the interface; the decomposition, recomposition and verification loops
run on exact Python ints (the integer form below), converting back to
``Fraction`` only for the results.  Those can outgrow what ``str()``
writes: the denominators of legal entries multiply, and
``sys.get_int_max_str_digits()`` (4300 digits by default) caps int-to-text
conversion.  One helper turns exact values into text.  For a
value past the limit, an error message says it is too long to print, and
``Decomposition.to_json_dict`` raises :class:`PlmError` naming the limit.
The limit itself is left as it is.

Each matrix has one integer form, ``StochasticMatrix._ints``: a common
multiple L of its entries' denominators and the columns of L * m as ints.
``random_left_stochastic`` and ``convex_combine`` hold those ints already
and store the form as they build the matrix, with L the lcm of the column
denominators q or of the weight denominators; any other matrix derives it
from its entries on first use, with L their least common multiple.
``decompose``, ``check_decomposition`` and ``is_left_stochastic`` read it,
so a matrix that is built, decomposed and verified is scaled to ints once.
The form never changes after it is made; the verifier walks a copy.
``entries`` stays the public ``Fraction`` grid, built eagerly.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import (
    Plm,
    _plm_trusted,
    _require_dim,
    _require_ints,
    _require_same_dim,
    _require_square,
    _trusted,
    to_dense,
)
from .errors import (
    InvalidArgumentError,
    NotLeftStochasticError,
    PlmError,
    WeightSumNotOneError,
    ZeroColumnError,
)


# Python 3.10 before 3.10.7 has no limit on int-string conversion.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _fraction(s: str) -> Fraction:
    # Fraction(s), refusing with ValueError a decimal string whose numerator
    # or denominator, before reduction, would have more digits than
    # sys.get_int_max_str_digits() allows (0: no limit).  Fraction builds the
    # powers of ten of a decimal's point and exponent before any check, so
    # "1e-5000" parsed and then failed where its value was printed, and
    # "1e-10000000" took seconds.  Without an exponent, neither part can
    # have more digits than s has characters, and in a "p/q" string int()
    # refuses a part past the limit itself.
    limit = _int_max_str_digits()
    if limit and ("e" in s or "E" in s or len(s) > limit) and "/" not in s:
        mantissa, _, exp = s.lower().partition("e")
        whole, _, frac = mantissa.partition(".")
        k = int(exp or 0)
        n_frac = sum(map(str.isdigit, frac))
        n_all = sum(map(str.isdigit, whole)) + n_frac
        if max(n_all + max(k, 0), 1 + n_frac + max(-k, 0)) > limit:
            raise ValueError(f"{s!r} would have more than {limit} digits")
    return Fraction(s)


def _exact(x, name: str, *where) -> Fraction:
    # x as a Fraction, for an entry or a weight: a Fraction as it is (it is
    # immutable), an int or a string converted.  Float and bool are refused.
    # Raises ValueError, naming x by ``name.format(x, *where)``, unless x is
    # of those types and, for a string, _fraction() parses it to a finite
    # value ("1/0" does not).
    t = type(x)
    if t is Fraction:
        return x
    if t is int or t is str:
        try:
            return _fraction(x) if t is str else Fraction(x)
        except (ValueError, ZeroDivisionError):
            problem = "is not a valid fraction"
    else:
        problem = "is not an int, Fraction or str"
    raise ValueError(f"{name.format(x, *where)} {problem}")


def _text(x: Fraction, name: str | None = None) -> str:
    # str(x), unless its numerator or denominator has more digits than
    # sys.get_int_max_str_digits() allows and str() raises ValueError.  Then
    # a message gets a phrase saying so in place of the value, and output,
    # which must hold the value (``name`` says what it is), gets PlmError.
    try:
        return str(x)
    except ValueError:
        if name is None:
            return f"a value too long to print (more than {_int_max_str_digits()} digits)"
        raise _too_long(name) from None


def _too_long(name: str) -> PlmError:
    # The error for output that must hold a value, which ``name`` says, past
    # the int-digit limit.
    return PlmError(
        f"cannot write {name}: it has more than {_int_max_str_digits()} digits,"
        " the limit sys.get_int_max_str_digits() sets"
    )


@dataclass(frozen=True)
class StochasticMatrix:
    """Square matrix of nonnegative exact rationals (rows of columns of them).

    Entries must be exact: an ``int`` (not a ``bool``), a ``Fraction``, or a
    string ``Fraction()`` parses (``"1/2"``, or an exact decimal such as
    ``"0.1"``); a float would be stored as its binary approximation.
    Construction rejects other types and negative entries; column sums are
    checked by :func:`is_left_stochastic` and by the operations that need
    them, not here.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _require_square(self.entries)
        rows = []
        for i, row in enumerate(self.entries, start=1):
            entries = []
            for j, x in enumerate(row, start=1):
                x = _exact(x, "entry {!r} at row {}, column {}", i, j)
                if x < 0:
                    raise NotLeftStochasticError(
                        f"negative entry {_text(x)} at row {i}, column {j}", column=j
                    )
                entries.append(x)
            rows.append(tuple(entries))
        object.__setattr__(self, "entries", tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @cached_property
    def _ints(self) -> tuple[int, list[list[int]]]:
        # The integer form (L, columns of L * self as ints); see the module
        # docstring.  A builder that holds the ints stores it in the instance
        # dict, under this name, and then this never runs.  Read-only.
        scale = lcm(*[x.denominator for row in self.entries for x in row])
        return scale, [_scaled(col, scale) for col in zip(*self.entries)]

    @classmethod
    def from_plm(cls, a: Plm) -> "StochasticMatrix":
        rows = tuple(tuple(map(Fraction, row)) for row in to_dense(a).entries)
        return _trusted(cls, entries=rows)

    def column_sums(self) -> tuple[Fraction, ...]:
        d = self.dim
        return tuple(sum(self.entries[i][j] for i in range(d)) for j in range(d))


@dataclass(frozen=True)
class Decomposition:
    """Convex combination of PLMs: positive weights summing to exactly 1.

    Each term is a ``(weight, Plm)`` pair; any other term raises
    ``ValueError`` naming its number.  Weights must be exact, of the types
    ``StochasticMatrix`` takes for its entries: an ``int`` (not a ``bool``),
    a ``Fraction`` or a string.
    """

    terms: tuple[tuple[Fraction, Plm], ...]

    def __post_init__(self):
        terms = _exact_terms(self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise WeightSumNotOneError("a decomposition needs at least one term")
        d = terms[0][1].dim
        for lam, p in terms:
            _require_same_dim(p.dim, d, "term dims")
            if not 0 < lam <= 1:
                raise ValueError(f"weight {_text(lam)} outside (0, 1]")
        if len(terms) > d * d:
            raise ValueError(f"{len(terms)} terms exceed the {d * d} bound")
        _scaled_weights([lam for lam, _ in terms])

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"lambda": _text(lam, f"the weight of term {n}"), "colmap": list(p.colmap)}
                for n, (lam, p) in enumerate(self.terms, start=1)
            ],
        }


def _exact_terms(terms) -> tuple[tuple[Fraction, Plm], ...]:
    # The (weight, PLM) pairs with each weight a Fraction.  Each term must be
    # a pair whose second item is a Plm, and weights must be of the exact
    # types StochasticMatrix takes for its entries.
    out = []
    for n, term in enumerate(terms, start=1):
        try:
            lam, p = term
        except (TypeError, ValueError):
            p = None
        if not isinstance(p, Plm):
            raise ValueError(f"term {n} is not a (weight, Plm) pair")
        out.append((_exact(lam, "weight {!r} of term {}", n), p))
    return tuple(out)


def is_left_stochastic(m: StochasticMatrix) -> bool:
    scale, cols = m._ints
    return all(sum(col) == scale for col in cols)


def first_positive_rows(m: StochasticMatrix) -> tuple[int, ...]:
    """For each column, the smallest row index with a positive entry.

    Raises :class:`ZeroColumnError` when a column has no positive entry.
    """
    d = m.dim
    out = []
    for j in range(d):
        row = next((i for i in range(d) if m.entries[i][j] > 0), None)
        if row is None:
            raise ZeroColumnError(j + 1)
        out.append(row + 1)
    return tuple(out)


def first_positive_plm(m: StochasticMatrix) -> Plm:
    """The PLM supported on each column's first positive entry."""
    return _plm_trusted(first_positive_rows(m))


def _scaled(xs, scale: int) -> list[int]:
    # scale * x for each exact rational x, as ints; scale is a multiple of
    # every denominator.
    return [x.numerator * (scale // x.denominator) for x in xs]


def _scaled_weights(lams: list[Fraction]) -> tuple[int, list[int]]:
    # The least common multiple of the weight denominators and the weights
    # scaled by it.  Raises unless they sum to exactly 1.
    scale = lcm(*[lam.denominator for lam in lams])
    weights = _scaled(lams, scale)
    if sum(weights) != scale:
        raise WeightSumNotOneError(f"weights sum to {_text(Fraction(sum(weights), scale))}, not 1")
    return scale, weights


def _accumulate(weights: list[int], colmaps, d: int) -> list[list[int]]:
    # The columns of sum(weight * PLM), for int weights and raw column maps.
    cols = [[0] * d for _ in range(d)]
    for w, cm in zip(weights, colmaps):
        for col, r in zip(cols, cm):
            col[r - 1] += w
    return cols


def decompose(m: StochasticMatrix) -> Decomposition:
    """Greedy exact decomposition into a convex combination of PLMs.

    Raises :class:`NotLeftStochasticError` unless every column sums to 1.

    The greedy loop runs on ``m``'s integer form, the ints ``L * m`` for
    ``L`` a common multiple of the entry denominators, so every column sums
    to ``L``; a matrix from ``random_left_stochastic`` or ``convex_combine``
    comes with it, and any other gets it here, once, for
    :func:`check_decomposition` to read as well.  After emitting weight
    ``taken``, each column has used up exactly ``taken`` from its top, so
    its picked entry, at row ``rows[j]``, ends at ``ends[j]``, the column's
    prefix sum down to that row, and has ``ends[j] - taken`` of it left.  A
    term's int weight is therefore ``min(ends) - taken``; it is emitted as
    ``Fraction(min(ends) - taken, L)`` and ``taken`` moves to ``min(ends)``.
    Only the columns whose picked entry is then used up (``ends[j] ==
    taken``) move their pointer, and only down, past any zero entries, so
    the run makes at most d^2 pointer steps; nothing is subtracted from the
    matrix.  While ``taken < L`` every column has weight left at or below
    its pointer, so no pointer passes row d.  This holds by construction and
    is not checked again: :func:`check_decomposition` is the one verifier of
    the result.
    """
    d = m.dim
    scale, cols = m._ints
    for j, col in enumerate(cols, start=1):
        if sum(col) != scale:
            total = Fraction(sum(col), scale)
            raise NotLeftStochasticError(
                f"column {j} sums to {_text(total)}, not 1", column=j, total=total
            )

    rows = [0] * d
    ends = [0] * d
    taken = 0
    terms: list[tuple[Fraction, Plm]] = []
    while taken < scale:
        while taken in ends:
            j = ends.index(taken)
            ends[j] += cols[j][rows[j]]
            rows[j] += 1
        end = min(ends)
        terms.append((Fraction(end - taken, scale), _plm_trusted(tuple(rows))))
        taken = end
    return _trusted(Decomposition, terms=tuple(terms))


def check_decomposition(m: StochasticMatrix, dec: Decomposition) -> list[str]:
    """Re-verify ``dec`` as a decomposition of ``m`` from its terms alone.

    Returns the problems found, in this order, or an empty list:
    ``recompose mismatch``, ``weights do not sum to 1``, ``weight outside
    (0, 1]``, then the first fault of the remainder walk, which subtracts the
    terms from ``m`` one by one and checks the remainder after each:
    ``negative remainder entry``, ``zero count did not grow`` or
    ``non-uniform column sums``.  The walk is one pass: after the first fault
    it keeps subtracting without checking, so the remainder it ends on is
    ``m`` minus the recomposition, and ``recompose mismatch`` reads it.
    Every term takes its weight from each column exactly once, so the column
    sums stay uniform through the walk exactly when every column of ``m``
    sums to the weight total; that is decided before the walk and reported
    at step 1 unless one of the other two tests fails there.  Everything
    runs on ints: ``m``'s integer form ``(L, L * m)``, the one
    :func:`decompose` read, rescaled to ``lcm(L, weight denominators)``
    only when that differs from ``L`` (never for ``decompose``'s own
    weights), and copied for the walk.  The terms are not trusted to
    satisfy :class:`Decomposition`'s own validation.  Raises
    :class:`DimensionMismatchError`, naming the first term whose dimension
    differs from ``m``'s, when there is one.

    The walk costs O(terms * d): each term's two tests are read off the d
    entries it touches, in the loop that subtracts it, with no rescan of
    the d x d remainder.  Two facts make those entries enough.  ``m`` has
    no negative entry and, before the first fault, neither has the
    remainder, so only a touched entry can turn negative.  A term touches
    each column exactly once, so d distinct entries, and the zero count
    changes by the sum of ``(new == 0) - (old == 0)`` over them.

    No problem is reported for a fault-free walk that ends on a nonzero
    remainder, or for more than d^2 terms, because the list above already
    holds one for each.  The first is exactly ``recompose mismatch``.  For
    the second, while the walk finds no fault each term adds at least one
    zero to the d x d remainder, so a fault comes by term d^2 + 1.
    """
    d = m.dim
    lams = [lam for lam, _ in dec.terms]
    colmaps = [p.colmap for _, p in dec.terms]
    dims = list(map(len, colmaps))
    if dims.count(d) != len(dims):
        _require_same_dim(next(n for n in dims if n != d), d, "term dims")
    base, cols = m._ints
    scale = lcm(base, *[lam.denominator for lam in lams])
    k = scale // base
    cols = [[x * k for x in col] for col in cols] if k != 1 else list(map(list, cols))
    weights = _scaled(lams, scale)
    total = sum(weights)
    uniform = all(sum(col) == total for col in cols)
    fault = None
    for w, cm in zip(weights, colmaps):
        negative, grown = False, 0
        for col, r in zip(cols, cm):
            old = col[r - 1]
            col[r - 1] = new = old - w
            if new < 0:
                negative = True
            grown += (new == 0) - (old == 0)
        if fault:
            continue
        if negative:
            fault = "negative remainder entry"
        elif grown <= 0:
            fault = "zero count did not grow"
        elif not uniform:
            fault = "non-uniform column sums"
    problems = ["recompose mismatch"] if any(map(any, cols)) else []
    if total != scale:
        problems.append("weights do not sum to 1")
    if not all(0 < w <= scale for w in weights):
        problems.append("weight outside (0, 1]")
    if fault:
        problems.append(fault)
    return problems


def convex_combine(terms) -> StochasticMatrix:
    """Sum weight * PLM over the given (weight, Plm) pairs, exactly.

    Weights must be exact, of the types :class:`Decomposition` takes, lie in
    [0, 1] and sum to exactly 1; zero weights are allowed here even though
    :class:`Decomposition` excludes them.  The sum runs on ints scaled by the
    least common multiple of the weight denominators, and those ints are the
    result's integer form.
    """
    terms = _exact_terms(terms)
    if not terms:
        raise WeightSumNotOneError("no terms to combine")
    d = terms[0][1].dim
    for lam, p in terms:
        _require_same_dim(p.dim, d, "term dims")
        if not 0 <= lam <= 1:
            raise ValueError(f"weight {_text(lam)} outside [0, 1]")
    scale, weights = _scaled_weights([lam for lam, _ in terms])
    cols = _accumulate(weights, [p.colmap for _, p in terms], d)
    rows = tuple([tuple([Fraction(x, scale) for x in row]) for row in zip(*cols)])
    return _trusted(StochasticMatrix, entries=rows, _ints=(scale, cols))


def recompose(dec: Decomposition) -> StochasticMatrix:
    return convex_combine(dec.terms)


def random_left_stochastic(d: int, seed: int, max_denominator: int = 1000) -> StochasticMatrix:
    """Deterministic random left stochastic matrix with exact rational entries.

    Each column picks a denominator q <= max_denominator and splits q into d
    nonnegative integer parts uniformly via sorted cut points.  The result
    carries its integer form: L is the lcm of the columns' q, and column j's
    parts are scaled by L / q_j.
    """
    _require_dim(d)
    _require_ints(seed=seed, max_denominator=max_denominator)
    if max_denominator < 1:
        raise InvalidArgumentError(f"max denominator {max_denominator} must be >= 1")
    rng = random.Random(seed)
    qs, parts = [], []
    for _ in range(d):
        q = rng.randint(1, max_denominator)
        cuts = sorted([rng.randint(0, q) for _ in range(d - 1)])
        bounds = [0] + cuts + [q]
        qs.append(q)
        parts.append([bounds[k + 1] - bounds[k] for k in range(d)])
    rows = tuple(zip(*[[Fraction(x, q) for x in col] for q, col in zip(qs, parts)]))
    scale = lcm(*qs)
    cols = [col if q == scale else [x * (scale // q) for x in col] for q, col in zip(qs, parts)]
    return _trusted(StochasticMatrix, entries=rows, _ints=(scale, cols))
