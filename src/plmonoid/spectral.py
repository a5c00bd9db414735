"""Powers, periodicity, and eigenvalue structure of permutation-like matrices.

Every PLM lives in a finite multiplicative monoid, so its powers eventually
cycle: there are minimal s >= 1 and t >= 1 with ``A^(s+t) == A^s``.  That one
identity drives everything here.  It gives the periodicity verdict (a row-PLM
power stays constant, so A is pre-row exactly when ``A^s`` is one), and it
forces the minimal polynomial to divide ``x^s (x^t - 1)``, so every eigenvalue
is zero or a t-th root of unity.  s and t, and the verdict, are read off one
O(d) pass over A's functional graph j -> ``colmap[j - 1]``: s is the longest
path into a cycle (at least 1) and t the lcm of the cycle lengths, although t
can grow like Landau's function of d.  The characteristic polynomial is computed
exactly over the integers by the Faddeev-LeVerrier trace recursion, O(d^3) on
the column map, and its roots are cross-checked numerically.

Repeated eigenvalues (any PLM with two disjoint cycles in its column-map graph
has eigenvalue 1 at least twice; the identity has it d times) defeat a naive
companion-matrix root finder: a multiplicity-m root is only found to within
roughly machine-epsilon^(1/m), which for (x-1)^5 is about 1e-3.  To honor a
1e-9 tolerance the characteristic polynomial is split into square-free factors,
whose simple roots are found to near machine precision.  The graph pass gives
them: cycles of lengths l on c nodes make it x^(d-c) times each x^l - 1, so
the cyclotomic Phi_n has multiplicity #{l : n | l} and x has d - c.  Before
any root is found, the trace-recursion polynomial must equal the product of
these factors, each raised to its multiplicity, multiplied out in Z[x].  That
proves, without floats, that the spectrum is 0 and roots of unity, and keeps
the numeric roots those of the trace recursion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Plm, _json_fields, _plm_trusted, _require_ints, multiply
from .errors import InvalidArgumentError, RootFindingError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class PowerCycle:
    """Minimal pair with ``A^(tail+period) == A^tail``, tail >= 1."""

    tail: int
    period: int


@dataclass(frozen=True)
class PeriodicityVerdict:
    """One of three shapes: periodic, pre-row, or merely eventually periodic.

    * periodic: ``A^(k+1) == A`` with k minimal (tail 1).  Field ``k``.
    * prerow: some power of A is a row PLM; ``e`` is the least such exponent
      and ``m`` the constant row.  Row PLMs themselves are reported periodic
      (k = 1) instead, with ``is_prerow`` still true.
    * eventually_periodic: neither; fields ``s`` and ``t`` from the power
      cycle.  Does not occur below dimension 4.
    """

    kind: str
    k: int | None = None
    e: int | None = None
    m: int | None = None
    s: int | None = None
    t: int | None = None
    is_prerow: bool = False

    @classmethod
    def periodic(cls, k: int, is_prerow: bool) -> "PeriodicityVerdict":
        return cls(kind="periodic", k=k, is_prerow=is_prerow)

    @classmethod
    def prerow(cls, e: int, m: int) -> "PeriodicityVerdict":
        return cls(kind="prerow", e=e, m=m, is_prerow=True)

    @classmethod
    def eventually_periodic(cls, s: int, t: int) -> "PeriodicityVerdict":
        return cls(kind="eventually_periodic", s=s, t=t, is_prerow=False)

    def to_json_dict(self) -> dict:
        return {"periodicity": self.kind, **_json_fields(self)}


@dataclass(frozen=True)
class CharPoly:
    """det(xI - A) with exact integer coefficients, leading first, monic.

    The degree is ``len(coefficients) - 1``, the dimension of A.
    """

    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class EigenReport:
    has_zero: bool
    roots_of_unity_ok: bool
    period: int
    numeric_eigenvalues: tuple[complex, ...]
    spectral_radius_numeric: float

    def to_json_dict(self) -> dict:
        return {
            **vars(self),
            "numeric_eigenvalues": [[z.real, z.imag] for z in self.numeric_eigenvalues],
        }


def power(a: Plm, k: int) -> Plm:
    """A^k by repeated squaring; A^0 is the identity."""
    _require_ints(k=k)
    if k < 0:
        raise InvalidArgumentError("PLMs are not invertible in general; exponent must be >= 0")
    result = _plm_trusted(tuple(range(1, a.dim + 1)))
    base = a
    while k:
        if k & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        k >>= 1
    return result


class _Graph(NamedTuple):
    # One pass over A's functional graph j -> cm[j - 1]: see _graph.
    tail: int
    lengths: list[int]
    fixed: int | None
    period: int


def _graph(cm) -> _Graph:
    # A's functional graph, peeled of its in-degree-0 nodes round by round
    # (Kahn's order).  The number of rounds is the longest path from a node
    # into a cycle.  Returns that, at least 1, as the tail; the lengths of
    # the cycles left; the node of the one cycle when it is a lone fixed
    # point, else None; and the period, the lcm of the lengths.  O(d).
    indeg = [0] * (len(cm) + 1)
    for r in cm:
        indeg[r] += 1
    layer = [j for j in range(1, len(cm) + 1) if not indeg[j]]
    height = 0
    while layer:
        height += 1
        for j in layer:
            indeg[cm[j - 1]] -= 1
        layer = [r for r in {cm[j - 1] for j in layer} if not indeg[r]]
    lengths, m = [], None
    for j in range(1, len(cm) + 1):
        n, r = 0, j
        while indeg[r]:  # 1 on a cycle not yet walked, else 0
            indeg[r] = 0
            r, n = cm[r - 1], n + 1
        if n:
            lengths.append(n)
            m = j
    return _Graph(max(1, height), lengths, m if lengths == [1] else None, math.lcm(*lengths))


def power_cycle(a: Plm) -> PowerCycle:
    """Minimal tail and period of A, A^2, ... read off A's functional graph.

    A^k has column map f^k, so ``A^(k+t) == A^k`` exactly when k is at least
    every node's distance to its cycle and t a multiple of every cycle length:
    the tail is the longest path into a cycle, at least 1, and the period the
    lcm of the cycle lengths.  One O(d) pass, whatever the period.
    """
    g = _graph(a.colmap)
    return PowerCycle(g.tail, g.period)


def periodicity(a: Plm) -> PeriodicityVerdict:
    """Classify the power behavior of A from its functional graph.

    A^k is a row PLM exactly when f^k is constant.  f permutes its cycles'
    nodes, so that needs one cycle, a fixed point m, and k at least every
    node's distance to m.  Then A is pre-row with e = s and that m, and with
    s = 1 the same test gives ``is_prerow``.
    """
    g = _graph(a.colmap)
    if g.tail == 1:
        return PeriodicityVerdict.periodic(k=g.period, is_prerow=g.fixed is not None)
    if g.fixed is not None:
        return PeriodicityVerdict.prerow(e=g.tail, m=g.fixed)
    return PeriodicityVerdict.eventually_periodic(s=g.tail, t=g.period)


def char_poly(a: Plm) -> CharPoly:
    """Characteristic polynomial via the Faddeev-LeVerrier trace recursion, exactly.

    M_1 = A, c_k = -trace(M_k)/k, M_{k+1} = A(M_k + c_k I).  Each c_k is a
    coefficient of det(xI - A), an integer for an integer matrix, so the
    division by k is exact and floor division computes it.  A acts on
    rows: row i of ``A M`` is the sum of the rows p of M whose column p of A has
    its 1 in row i, so the recursion costs O(d^3).  It starts from I, so its
    first product is M_1.
    """
    cm = a.colmap
    d = len(cm)
    coeffs = [1]
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        rows = [[0] * d for _ in range(d)]
        for row, r in zip(m, cm):
            rows[r - 1] = [x + y for x, y in zip(rows[r - 1], row)]
        m = rows
        c = -sum(m[i][i] for i in range(d)) // k
        coeffs.append(c)
        for i in range(d):
            m[i][i] += c
    return CharPoly(coefficients=tuple(coeffs))


def one_norm(a: Plm) -> int:
    """Maximum column sum of the matrix.  Always 1 for a PLM.

    Column j holds one nonzero entry, the 1 in row ``colmap[j - 1]``, so
    its sum is read off the column map in O(d), with no dense form.
    """
    d = a.dim
    return max(int(1 <= r <= d) for r in a.colmap)


# --- polynomial helpers over Z, coefficients leading-first ---

def _mul(p: list[int], q: list[int]) -> list[int]:
    # p times q as a sum over the nonzero terms of q, so a factor's zero terms
    # (x is [1, 0]) cost nothing.  Callers pass the growing product as p.
    r = [0] * (len(p) + len(q) - 1)
    for j, y in enumerate(q):
        if y:
            for i, x in enumerate(p, j):
                r[i] += x * y
    return r


def _div_monic(p: list[int], q: list[int]) -> list[int]:
    """The quotient of p by a monic q, with the remainder dropped.

    Its one caller divides x^n - 1 by Phi_k only for k dividing n, and Phi_k
    divides x^k - 1, which divides x^n - 1, so the remainder is zero.
    """
    r = list(p)
    k = max(len(p) - len(q) + 1, 0)
    for i in range(k):
        f = r[i]
        if f:
            for j in range(1, len(q)):
                r[i + j] -= f * q[j]
    return r[:k]


def _squarefree_factors(d: int, lengths: list[int]) -> list[tuple[list[int], int]]:
    """Square-free factors of x^(d-c) (x^l_1 - 1) ... (x^l_k - 1), c = sum of l.

    Phi_n, built as (x^n - 1) over Phi_k for each proper divisor k of n, has
    multiplicity #{l : n | l}, and x has d - c.  Returns (product of the
    factors of one multiplicity, that multiplicity) pairs in increasing
    multiplicity, the order sympy's ``sqf_list`` gives them in.
    """
    phi: dict[int, list[int]] = {}
    for n in range(1, max(lengths) + 1):
        if any(l % n == 0 for l in lengths):
            # Every divisor of n divides that l too, so it is built already.
            p = [1] + [0] * (n - 1) + [-1]
            for k, q in phi.items():
                if n % k == 0:
                    p = _div_monic(p, q)
            phi[n] = p
    groups = {d - sum(lengths): [1, 0]} if d > sum(lengths) else {}
    for n, p in phi.items():
        mult = sum(l % n == 0 for l in lengths)
        groups[mult] = _mul(groups.get(mult, [1]), p)
    return [(groups[m], m) for m in sorted(groups)]


def _certify(coeffs: tuple[int, ...], factors: list[tuple[list[int], int]]) -> None:
    """Raise :class:`RootFindingError` unless coeffs is exactly the product of
    factor^multiplicity over the factors, multiplied out in Z[x]."""
    product = [1]
    for factor, mult in factors:
        for _ in range(mult):
            product = _mul(product, factor)
    if product != list(coeffs):
        raise RootFindingError(
            "exact certificate failed: the characteristic polynomial is not the "
            "product of the cycle lengths' square-free factors"
        )


def _roots_with_multiplicity(factors: list[tuple[list[int], int]]) -> list[complex]:
    # Each factor's roots, each repeated to its multiplicity, sorted.  Once
    # _certify passes, the degrees so weighted sum to d, and np.roots returns
    # n roots for a monic factor of degree n, so there are d roots.
    roots: list[complex] = []
    for factor, mult in factors:
        if len(factor) == 2:
            # x + c has the root -c exactly, the float np.roots returns for it.
            found = [float(-factor[1])]
        else:
            found = np.roots([float(c) for c in factor])
        for z in found:
            roots.extend([complex(z)] * mult)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def max_unity_deviation(roots, period: int, tol: float) -> float:
    """Worst distance of any root from {0} union the period-th roots of unity.

    A root counts as zero when its modulus is within tol; otherwise its
    deviation is ``|z^period - 1|``.  For ``period >= 1`` that is at least
    ``||z| - 1|``, so the root's distance from the unit circle needs no test
    of its own.
    """
    worst = 0.0
    for z in roots:
        if abs(z) <= tol:
            continue
        worst = max(worst, abs(z**period - 1.0))
    return worst


def check_tol(tol: float, name: str = "tolerance") -> None:
    """Raise :class:`InvalidArgumentError` unless ``tol`` is a finite real
    number above 0.

    A bool would be a tolerance of 0 or 1.  NaN fails every comparison, so
    it would pass ``tol <= 0`` and every ``dev > tol`` test, and an infinite
    tolerance accepts any root: either turns the numeric cross-check off.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise InvalidArgumentError(f"{name} must be a real number, not {tol!r}")
    if tol <= 0:
        raise InvalidArgumentError(f"{name} must be positive, got {tol}")
    if not math.isfinite(tol):
        raise InvalidArgumentError(f"{name} must be finite, got {tol}")


def eigen_check(a: Plm, tol: float = DEFAULT_TOL) -> EigenReport:
    """Exact eigenvalue verdicts with a numeric cross-check.

    One graph pass gives s, t and the cycle lengths; ``roots_of_unity_ok``
    re-verifies A^(s+t) == A^s by repeated squaring.  The factors read off
    the lengths, each raised to its multiplicity, must multiply out to the
    trace-recursion polynomial exactly, and the numeric side then confirms
    every root is within ``tol`` of zero or of a t-th root of unity.
    :class:`RootFindingError` is raised if the exact certificate fails or the
    computed roots disagree with it, and :class:`InvalidArgumentError` for a
    bad ``tol`` (see :func:`check_tol`).
    """
    check_tol(tol)
    return _eigen_check(a, tol)


def _eigen_check(a: Plm, tol: float) -> EigenReport:
    # eigen_check for a tolerance already checked: sweep_eigen checks it once
    # for all its matrices.
    g = _graph(a.colmap)
    exact_ok = power(a, g.tail + g.period) == power(a, g.tail)
    cp = char_poly(a)
    factors = _squarefree_factors(a.dim, g.lengths)
    _certify(cp.coefficients, factors)
    has_zero = cp.coefficients[-1] == 0
    try:
        roots = _roots_with_multiplicity(factors)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"numeric root finding failed: {exc}") from exc
    dev = max_unity_deviation(roots, g.period, tol)
    if dev > tol:
        raise RootFindingError(
            f"some root sits {dev:.3e} away from the allowed spectrum", deviation=dev
        )
    radius = max(abs(z) for z in roots)
    return EigenReport(
        has_zero=has_zero,
        roots_of_unity_ok=exact_ok,
        period=g.period,
        numeric_eigenvalues=tuple(roots),
        spectral_radius_numeric=radius,
    )
