"""Exhaustive and randomized verification sweeps.

Each sweep walks a deterministic index space (all PLMs of a dimension, all
ordered pairs, or seeded random stochastic matrices), records failures and
findings, and returns a :class:`SweepReport`.  One driver, :func:`_sweep`,
runs them all: it checks the arguments before it forms the case count, times
the sweep, splits the index space into chunks (one per worker, with no more
workers than CPUs, as contiguous spans whose sizes differ by at most one),
and calls the sweep's chunk function on each.  A chunk returns ``(failures,
part)``; the driver concatenates the failures and hands the parts to the
sweep's merge step, both in ascending chunk order.  A part that tallies (the
period verdicts, the eigen period histogram) is a ``collections.Counter``;
the merge step sums them and reports a plain ``dict``.  Reports are
therefore reproducible: for a fixed dimension, tolerance, and seed the
content is identical across runs and across worker counts.  Only the
measured elapsed time varies, so the stable serialization normalizes it to
zero.

The multiplication sweep is the heart: it checks composition multiply,
structural multiply, and a textbook dense integer product against each other
over every ordered pair.  The oracle shares no product formula with the
column-map routes; it uses only ``core``'s check that the operands share a
dimension, which states a precondition, not a product.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .core import (
    DenseBinaryMatrix,
    Plm,
    _plm_trusted,
    _require_dim,
    _require_ints,
    _require_same_dim,
    _trusted,
    canonicalize,
    from_dense,
    is_permutation,
    multiply,
    structural_multiply,
    to_dense,
)
from .errors import InvalidArgumentError, RootFindingError
from .spectral import DEFAULT_TOL, _eigen_check, check_tol, periodicity
from .stochastic import check_decomposition, decompose, random_left_stochastic

RANDOM_MAX_DENOMINATOR = 1000

_colmap = attrgetter("colmap")


def plm_from_index(d: int, index: int) -> Plm:
    """The index-th PLM of dimension d in lexicographic column-map order."""
    _require_dim(d)
    _require_ints(index=index)
    if not 0 <= index < d**d:
        raise InvalidArgumentError(f"index {index} out of range 0..{d**d - 1}")
    cm = []
    for pos in range(d - 1, -1, -1):
        cm.append(index // d**pos % d + 1)
    return _plm_trusted(tuple(cm))


def _plms(d: int, start: int = 0, stop: int | None = None):
    """PLMs start..stop-1 of dimension d, lexicographic by column map."""
    walk = itertools.product(range(1, d + 1), repeat=d)
    return (_plm_trusted(cm) for cm in itertools.islice(walk, start, stop))


def check_sweep_args(d: int, n_cases: int = 0, workers: int = 1) -> None:
    """Raise :class:`InvalidArgumentError` unless ``d`` is an int >= 1,
    ``n_cases`` an int >= 0 and ``workers`` an int >= 1."""
    _require_dim(d)
    _require_ints(n_cases=n_cases, workers=workers)
    if n_cases < 0:
        raise InvalidArgumentError(f"case count {n_cases} must be >= 0")
    if workers < 1:
        raise InvalidArgumentError(f"worker count {workers} must be >= 1")


def enumerate_plms(d: int) -> list[Plm]:
    """All d^d PLMs of dimension d, lexicographic by column map."""
    _require_dim(d)
    return list(_plms(d))


def oracle_multiply(a, b):
    """Textbook integer matrix product; independent of column-map composition.

    Takes two :class:`DenseBinaryMatrix` operands and returns their product as
    one, computed by ``np.matmul`` on int64 arrays; raises
    :class:`DimensionMismatchError`, as the column-map routes do, when the
    dimensions differ, and ``ValueError`` naming the first entry above 1
    (row-major, 1-based) when the product is not a 0/1 matrix.  Any other
    ``a`` must be an ``np.ndarray``: the multiplication sweep passes square
    int64 arrays (its dense forms) and gets their product back unchecked, as
    ``a.dot(b)``: the same integer sum of row-by-column products, with less
    call overhead than ``np.matmul`` or ``np.dot`` on small arrays.  Nested
    lists are not accepted there.
    """
    if not isinstance(a, DenseBinaryMatrix):
        return a.dot(b)
    _require_same_dim(a.dim, b.dim)
    rows_a = np.array(a.entries, dtype=np.int64)
    rows_b = np.array(b.entries, dtype=np.int64)
    product = np.matmul(rows_a, rows_b)
    above_one = np.argwhere(product > 1)
    if len(above_one):
        i, j = above_one[0].tolist()
        raise ValueError(
            f"product is not binary: entry {product[i, j]} at row {i + 1}, column {j + 1}"
        )
    return _trusted(DenseBinaryMatrix, entries=tuple(map(tuple, product.tolist())))


@dataclass
class SweepReport:
    sweep: str
    d: int
    cases: int
    failures: list = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self, stable: bool = False) -> dict:
        return {**vars(self), "pass": self.passed, "elapsed_ms": 0 if stable else self.elapsed_ms}


def _chunks(total: int, workers: int):
    # min(workers, total) spans that cover 0..total in order, span k being
    # total*k//n..total*(k+1)//n, so sizes differ by at most one; one empty
    # span when total is 0.
    n = max(1, min(workers, total))
    return [(total * k // n, total * (k + 1) // n) for k in range(n)]


def _sweep(name: str, d: int, total, chunk, args, findings, workers: int = 1) -> SweepReport:
    """Run ``chunk(*args, start, stop)`` over a partition of 0..total(d) and report.

    ``total`` maps ``d`` to the case count, and is called only once ``d`` is
    known to be an int >= 1.  Each chunk returns ``(failures, part)``.
    Failures concatenate, and the parts go to ``findings(parts)``, in
    ascending chunk order, so the report does not depend on the worker count.
    A worker count above ``os.cpu_count()`` is cut to it before the range is
    split, so there is one chunk, and one process, per worker that runs.
    Raises :class:`InvalidArgumentError` through :func:`check_sweep_args` for
    a bad ``d``, case count or ``workers``, before any process starts.
    """
    _require_dim(d)
    total = total(d)
    check_sweep_args(d, total, workers)
    t0 = time.perf_counter()
    # Each chunk rebuilds its sweep's operands, so a chunk per process, not
    # per requested worker, keeps that set-up from multiplying.  One worker
    # skips os.cpu_count(), which reads the system's CPU list: a few
    # microseconds that a caller running many one-case sweeps pays each time.
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    spans = _chunks(total, workers)
    if len(spans) == 1:
        results = [chunk(*args, 0, total)]
    else:
        # Imported here: it loads multiprocessing, about 1.4 MB of resident
        # memory that every single-worker caller, the CLI included, would pay.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(chunk, *args, start, stop) for start, stop in spans]
            results = [f.result() for f in futures]
    return SweepReport(
        sweep=name,
        d=d,
        cases=total,
        failures=[f for failures, _ in results for f in failures],
        findings=findings([part for _, part in results]),
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _oracle_colmaps(products) -> list[tuple[int, ...]]:
    """Column maps of a stack of dense products, checked and read in numpy.

    When some product is not a PLM, :func:`from_dense` reads the stack one
    matrix at a time and raises its usual :class:`NotPlmError`.
    """
    if not (((products == 0) | (products == 1)).all() and (products.sum(axis=1) == 1).all()):
        for p in products:
            from_dense(p.tolist())
    return list(map(tuple, (products.argmax(axis=1) + 1).tolist()))


def _mul_chunk(d: int, start: int, stop: int):
    n = d**d
    elems = list(_plms(d))
    stack = np.array([to_dense(p).entries for p in elems], dtype=np.int64)
    denses = list(stack)
    index = {a.colmap: k for k, a in enumerate(elems)}
    failures = []
    # One left operand at a time; the chunk may start or end inside a row.
    # Each route is still called once per pair, through its public name, as
    # the benchmark's trace counts it, but a row is checked at once: the
    # oracle's stacked products against the dense forms of the composition
    # products, which the stack holds at their lexicographic indices, and
    # the two column-map lists against each other.  The oracle's column
    # maps are read, and the row walked pair by pair, only when a check
    # fails or a composition product is no PLM of dimension d, so the
    # failure records, and a NotPlmError, come out as a pairwise walk gives
    # them.  The operands are built here, per chunk, and every row shares
    # them as right operands: structural_multiply keeps each one's peel
    # plan on it, so the chunk's first row builds the plans and later rows
    # only apply them, and nothing carries over to another chunk or sweep.
    for i in range(start // n, -(-stop // n)):
        j0, j1 = max(start - i * n, 0), min(stop - i * n, n)
        a, dense_a = elems[i], denses[i]
        row = elems[j0:j1]
        products = np.array(list(map(oracle_multiply, itertools.repeat(dense_a), denses[j0:j1])))
        via_compose = list(map(_colmap, map(multiply, itertools.repeat(a), row)))
        via_structure = list(map(_colmap, map(structural_multiply, itertools.repeat(a), row)))
        idx = list(map(index.get, via_compose))
        if (
            via_compose == via_structure
            and None not in idx
            and np.array_equal(products, stack[idx])
        ):
            continue
        via_oracle = _oracle_colmaps(products)
        for j, b, c, s, o in zip(range(j0, j1), row, via_compose, via_structure, via_oracle):
            if not (c == s == o):
                failures.append(
                    {
                        "index": i * n + j,
                        "a": list(a.colmap),
                        "b": list(b.colmap),
                        "multiply": list(c),
                        "structural": list(s),
                        "oracle": list(o),
                    }
                )
    return failures, None


def sweep_multiplication(d: int, workers: int = 1) -> SweepReport:
    """Check multiply == structural_multiply == dense oracle over all pairs."""
    return _sweep("mul", d, lambda d: (d**d) ** 2, _mul_chunk, (d,), lambda parts: {}, workers)


def _period_chunk(d: int, assert_law: bool, start: int, stop: int):
    failures = []
    counts = Counter()
    for k, a in enumerate(_plms(d, start, stop), start):
        verdict = periodicity(a)
        counts[verdict.kind] += 1
        if assert_law:
            # A^2 is a row PLM exactly when its column map is constant.
            if verdict.kind != "periodic" and len(set(multiply(a, a).colmap)) != 1:
                failures.append(
                    {
                        "index": k,
                        "colmap": list(a.colmap),
                        "verdict": verdict.to_json_dict(),
                    }
                )
    return failures, counts


def sweep_period(d: int, workers: int = 1) -> SweepReport:
    """Below dimension 4, assert every PLM is periodic or squares to a row PLM.

    From dimension 4 on that dichotomy genuinely fails (a 2-cycle with a
    depth-2 tree hanging off it is neither), so the sweep only reports the
    verdict distribution there.
    """
    assert_law = d in (2, 3)
    return _sweep(
        "period",
        d,
        lambda d: d**d,
        _period_chunk,
        (d, assert_law),
        lambda parts: {"verdicts": dict(sum(parts, Counter())), "asserted": assert_law},
        workers,
    )


def _eigen_chunk(d: int, tol: float, start: int, stop: int):
    failures = []
    period_hist = Counter()
    zero_count = 0
    for k, a in enumerate(_plms(d, start, stop), start):
        # The first check that fails names the record's fields.  sweep_eigen
        # has checked tol, so the kernel does not check it again.
        try:
            report = _eigen_check(a, tol)
        except RootFindingError as exc:
            failed = {"check": "numeric_roots", "detail": str(exc)}
        else:
            if not report.roots_of_unity_ok:
                failed = {"check": "power_identity"}
            elif report.has_zero != (not is_permutation(a)):
                failed = {"check": "zero_eigenvalue"}
            else:
                period_hist[str(report.period)] += 1
                zero_count += report.has_zero
                continue
        failures.append({"index": k, "colmap": list(a.colmap), **failed})
    return failures, (period_hist, zero_count)


def sweep_eigen(d: int, tol: float = DEFAULT_TOL, workers: int = 1) -> SweepReport:
    """Exact power identity, numeric root locations, and the zero-eigenvalue
    criterion, for every PLM of dimension d.  A bad ``tol`` raises
    :class:`InvalidArgumentError` before any chunk runs or process starts."""
    check_tol(tol)
    return _sweep(
        "eigen",
        d,
        lambda d: d**d,
        _eigen_chunk,
        (d, tol),
        lambda parts: {
            "period_histogram": dict(sum((hist for hist, _ in parts), Counter())),
            "zero_eigenvalue_count": sum(zeros for _, zeros in parts),
        },
        workers,
    )


def _cplm_with_row_plc(cm: tuple[int, ...]) -> bool:
    # Is this a CPLM with zero leading entry whose PLC is a row PLM (a row
    # PLM R_m with m > 1 counts)?  Row 1 is empty, and columns 2..d share
    # one row.
    return 1 not in cm and cm[1:].count(cm[-1]) == len(cm) - 1


def _prerow_chunk(d: int, start: int, stop: int):
    row_plms = []
    records = []
    for a in _plms(d, start, stop):
        verdict = periodicity(a)
        if verdict.kind != "prerow":
            # A pre-row verdict of kind periodic has s = 1 and a lone fixed
            # point, so the map is constant: a row PLM.
            if verdict.is_prerow:
                row_plms.append(list(a.colmap))
            continue
        _, canonical = canonicalize(a)
        records.append(
            {
                "colmap": list(a.colmap),
                "e": verdict.e,
                "m": verdict.m,
                "literal_form": _cplm_with_row_plc(a.colmap),
                "canonical_form": _cplm_with_row_plc(canonical.colmap),
            }
        )
    return [], (row_plms, records)


def _prerow_findings(parts) -> dict:
    records = [r for _, part in parts for r in part]
    return {
        "row_plms": [r for part, _ in parts for r in part],
        "prerow": records,
        "summary": {
            "prerow_count": len(records),
            "literal_all": all(r["literal_form"] for r in records),
            "canonical_all": all(r["canonical_form"] for r in records),
        },
    }


def sweep_prerow(d: int, workers: int = 1) -> SweepReport:
    """Report-only survey of pre-row PLMs.

    For every non-row PLM some power of which is a row PLM, the report records
    whether the matrix is literally a zero-led CPLM with a row-PLM component,
    and whether it becomes one after row canonicalization.  Nothing is
    asserted either way; the question is open.
    """
    return _sweep("prerow", d, lambda d: d**d, _prerow_chunk, (d,), _prerow_findings, workers)


def _case_seed(seed: int, case: int) -> int:
    return seed * 1_000_003 + case


def _decompose_chunk(d: int, seed: int, start: int, stop: int):
    failures = []
    max_terms = 0
    for case in range(start, stop):
        case_seed = _case_seed(seed, case)
        m = random_left_stochastic(d, case_seed, RANDOM_MAX_DENOMINATOR)
        try:
            dec = decompose(m)
        except Exception as exc:
            failures.append({"case": case, "seed": case_seed, "problems": [f"decompose: {exc}"]})
            continue
        max_terms = max(max_terms, len(dec.terms))
        problems = check_decomposition(m, dec)
        if problems:
            failures.append({"case": case, "seed": case_seed, "problems": problems})
    return failures, max_terms


def sweep_decompose(d: int, n_cases: int = 100, seed: int = 0, workers: int = 1) -> SweepReport:
    """Random left stochastic matrices: decompose, then re-verify everything
    from the output alone with :func:`check_decomposition` (round trip, weight
    sum and range, and the step-by-step remainder walk).  ``seed`` must be
    an int: the report carries it.  Each case's matrix comes from its own
    seed, so the report does not depend on ``workers``."""
    _require_ints(seed=seed)
    return _sweep(
        "decompose",
        d,
        lambda d: n_cases,
        _decompose_chunk,
        (d, seed),
        lambda parts: {"max_terms": max(parts), "term_bound": d * d, "seed": seed},
        workers,
    )
