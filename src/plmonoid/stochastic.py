"""Left stochastic matrices over exact rationals and their PLM decomposition.

A left stochastic matrix has nonnegative entries and every column summing to
exactly 1.  Each one is a finite convex combination of permutation-like
matrices, and the combination here is found greedily: repeatedly locate the
first positive entry of every column, peel off the PLM those positions form,
scaled by the smallest entry involved, and continue on the remainder.  Every
step zeroes at least one more entry while keeping the remainder nonnegative
with uniform column sums, and the last step zeroes d entries, one per column.
So a matrix with nnz positive entries takes at most nnz - d + 1 <= d^2 - d + 1
terms (also Carathéodory's bound), and the weights sum to 1 exactly.  Those
invariants hold by construction and are not re-checked;
:func:`check_decomposition` verifies a decomposition from its terms alone, in
one pass that subtracts them from the matrix and tests each step on the d
entries it touched, so in O(terms * d) time, no more than the subtraction.

Validation happens where caller data enters: the ``StochasticMatrix`` and
``Decomposition`` constructors.  The matrices and decompositions this module
builds from values already validated (``decompose``, ``convex_combine``,
``random_left_stochastic``, ``StochasticMatrix.from_plm``) skip it.

Nothing here rounds.  Matrices and weights are held as ``fractions.Fraction``
at the interface; the decomposition, recomposition and verification loops
scale them by the least common multiple of their denominators and run on
exact Python ints, converting back to ``Fraction`` only for the results.
Those can outgrow what ``str()`` writes: the denominators of legal entries
multiply, and ``sys.get_int_max_str_digits()`` (4300 digits by default) caps
int-to-text conversion.  One helper turns exact values into text.  For a
value past the limit, an error message says it is too long to print, and
``Decomposition.to_json_dict`` raises :class:`PlmError` naming the limit.
The limit itself is left as it is.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
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


# Entry types that convert to Fraction exactly; float and bool are refused.
_EXACT_TYPES = (int, Fraction, str)

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
    # x as a Fraction, for an entry or a weight.  Raises ValueError, naming x
    # by ``name.format(x, *where)``, unless x is of the exact types and, for a
    # string, _fraction() parses it to a finite value ("1/0" does not).
    if type(x) in _EXACT_TYPES:
        try:
            return _fraction(x) if type(x) is str else Fraction(x)
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
    return all(s == 1 for s in m.column_sums())


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


def _int_columns(m: StochasticMatrix, scale: int) -> list[list[int]]:
    # The columns of scale * m as ints.
    return [_scaled(col, scale) for col in zip(*m.entries)]


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

    The greedy loop runs on the ints ``L * m``, where ``L`` is the least
    common multiple of the entry denominators, so the remainder starts with
    every column summing to ``L``.  Entries only decrease, so each column
    keeps a pointer to its first positive row that only moves down.  A step
    subtracts the int weight ``lam`` (the smallest picked entry) from the d
    picked entries and emits ``Fraction(lam, L)``.  The invariants hold by
    construction and are not checked again: as ``lam`` is the minimum, no
    entry goes negative and at least one reaches zero, and as every column
    loses ``lam``, each column's total equals the remaining weight, so while
    that is positive every column has a positive entry at or below its
    pointer.  :func:`check_decomposition` is the one verifier of the result.
    """
    d = m.dim
    scale = lcm(*[x.denominator for row in m.entries for x in row])
    cols = _int_columns(m, scale)
    for j, col in enumerate(cols, start=1):
        if sum(col) != scale:
            total = Fraction(sum(col), scale)
            raise NotLeftStochasticError(
                f"column {j} sums to {_text(total)}, not 1", column=j, total=total
            )

    first = [0] * d
    remaining = scale
    terms: list[tuple[Fraction, Plm]] = []
    while remaining > 0:
        for j, col in enumerate(cols):
            i = first[j]
            while col[i] == 0:
                i += 1
            first[j] = i
        lam = min([col[i] for col, i in zip(cols, first)])
        for col, i in zip(cols, first):
            col[i] -= lam
        remaining -= lam
        terms.append((Fraction(lam, scale), _plm_trusted(tuple([i + 1 for i in first]))))
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
    runs on ints scaled by the least common multiple of all denominators.
    The terms are not trusted to satisfy :class:`Decomposition`'s own
    validation.  Raises :class:`DimensionMismatchError` when a term's
    dimension differs from ``m``'s.

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
    for _, p in dec.terms:
        _require_same_dim(p.dim, m.dim, "term dims")
    scale = lcm(
        *[x.denominator for row in m.entries for x in row],
        *[lam.denominator for lam, _ in dec.terms],
    )
    cols = _int_columns(m, scale)
    weights = _scaled([lam for lam, _ in dec.terms], scale)
    total = sum(weights)
    uniform = all(sum(col) == total for col in cols)
    fault = None
    for w, (_, p) in zip(weights, dec.terms):
        negative, grown = False, 0
        for col, r in zip(cols, p.colmap):
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
    least common multiple of the weight denominators.
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
    return _trusted(StochasticMatrix, entries=rows)


def recompose(dec: Decomposition) -> StochasticMatrix:
    return convex_combine(dec.terms)


def random_left_stochastic(d: int, seed: int, max_denominator: int = 1000) -> StochasticMatrix:
    """Deterministic random left stochastic matrix with exact rational entries.

    Each column picks a denominator q <= max_denominator and splits q into d
    nonnegative integer parts uniformly via sorted cut points.
    """
    _require_dim(d)
    _require_ints(seed=seed, max_denominator=max_denominator)
    if max_denominator < 1:
        raise InvalidArgumentError(f"max denominator {max_denominator} must be >= 1")
    rng = random.Random(seed)
    cols = []
    for _ in range(d):
        q = rng.randint(1, max_denominator)
        cuts = sorted([rng.randint(0, q) for _ in range(d - 1)])
        bounds = [0] + cuts + [q]
        cols.append([Fraction(bounds[k + 1] - bounds[k], q) for k in range(d)])
    rows = tuple([tuple([cols[j][i] for j in range(d)]) for i in range(d)])
    return _trusted(StochasticMatrix, entries=rows)
