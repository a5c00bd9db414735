"""Exhaustive and randomized verification sweeps.

Each sweep walks a deterministic index space (all PLMs of a dimension, all
ordered pairs, or seeded random stochastic matrices), records failures and
findings, and returns a :class:`SweepReport`.  Reports are reproducible: for a
fixed dimension, tolerance, and seed the content is identical across runs and
across worker counts.  Only the measured elapsed time varies, so the stable
serialization normalizes it to zero.

The multiplication sweep is the heart: it checks composition multiply,
structural multiply, and a textbook dense integer product against each other
over every ordered pair.  The oracle shares no code with the column-map
routes.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DenseBinaryMatrix,
    Plm,
    canonicalize,
    classify,
    cplm_parts,
    from_dense,
    is_permutation,
    multiply,
    structural_multiply,
    to_dense,
)
from .errors import RootFindingError
from .spectral import DEFAULT_TOL, eigen_check, periodicity, power, power_cycle
from .stochastic import decompose, random_left_stochastic, recompose

RANDOM_MAX_DENOMINATOR = 1000


def plm_from_index(d: int, index: int) -> Plm:
    """The index-th PLM of dimension d in lexicographic column-map order."""
    if not 0 <= index < d**d:
        raise ValueError(f"index {index} out of range 0..{d**d - 1}")
    cm = []
    for pos in range(d - 1, -1, -1):
        cm.append(index // d**pos % d + 1)
    return Plm(tuple(cm))


def enumerate_plms(d: int) -> list[Plm]:
    """All d^d PLMs of dimension d, lexicographic by column map."""
    if d < 1:
        raise ValueError(f"dimension {d} must be >= 1")
    return [plm_from_index(d, i) for i in range(d**d)]


def oracle_multiply(a, b):
    """Textbook integer matrix product; independent of column-map composition.

    Takes two :class:`DenseBinaryMatrix` operands and returns their product as
    one.  The multiplication sweep passes square int arrays instead (its
    stacked dense forms) and gets the int array product back, unchecked.
    """
    if not isinstance(a, DenseBinaryMatrix):
        return np.matmul(a, b)
    if a.dim != b.dim:
        raise ValueError(f"dims {a.dim} != {b.dim}")
    rows_a = np.array(a.entries, dtype=np.int64)
    rows_b = np.array(b.entries, dtype=np.int64)
    return DenseBinaryMatrix(np.matmul(rows_a, rows_b).tolist())


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
        return {
            "sweep": self.sweep,
            "d": self.d,
            "cases": self.cases,
            "pass": self.passed,
            "failures": self.failures,
            "findings": self.findings,
            "elapsed_ms": 0 if stable else self.elapsed_ms,
        }


def _chunks(total: int, workers: int):
    n = max(1, min(workers, total))
    size, extra = divmod(total, n)
    start = 0
    out = []
    for k in range(n):
        stop = start + size + (1 if k < extra else 0)
        if stop > start:
            out.append((start, stop))
        start = stop
    return out


def _run_chunked(worker, args, total: int, workers: int):
    """Run ``worker(*args, start, stop)`` over a partition of 0..total.

    Results merge in ascending chunk order, so the outcome does not depend on
    the worker count.
    """
    parts = []
    if workers <= 1:
        parts.append(worker(*args, 0, total))
    else:
        spans = _chunks(total, workers)
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(worker, *args, start, stop) for start, stop in spans]
            parts = [f.result() for f in futures]
    return parts


def _oracle_colmaps(products) -> list[tuple[int, ...]]:
    """Column maps of a stack of dense products, checked and read in numpy.

    When some product is not a PLM, :func:`from_dense` reads the stack one
    matrix at a time and raises its usual :class:`NotPlmError`.
    """
    if not (((products == 0) | (products == 1)).all() and (products.sum(axis=1) == 1).all()):
        for p in products:
            from_dense(p.tolist())
    return [tuple(cm) for cm in (products.argmax(axis=1) + 1).tolist()]


def _mul_chunk(d: int, start: int, stop: int):
    n = d**d
    elems = enumerate_plms(d)
    denses = list(np.array([to_dense(p).entries for p in elems], dtype=np.int64))
    failures = []
    # One left operand at a time; the chunk may start or end inside a row.
    # The oracle stays one call per pair, as the benchmark's trace counts it;
    # its products are checked and read once per row.
    for i in range(start // n, -(-stop // n)):
        j0, j1 = max(start - i * n, 0), min(stop - i * n, n)
        a, dense_a = elems[i], denses[i]
        oracle = _oracle_colmaps(
            np.stack([oracle_multiply(dense_a, denses[j]) for j in range(j0, j1)])
        )
        for j, via_oracle in zip(range(j0, j1), oracle):
            b = elems[j]
            via_compose = multiply(a, b).colmap
            via_structure = structural_multiply(a, b).colmap
            if not (via_compose == via_structure == via_oracle):
                failures.append(
                    {
                        "index": i * n + j,
                        "a": list(a.colmap),
                        "b": list(b.colmap),
                        "multiply": list(via_compose),
                        "structural": list(via_structure),
                        "oracle": list(via_oracle),
                    }
                )
    return failures


def sweep_multiplication(d: int, workers: int = 1) -> SweepReport:
    """Check multiply == structural_multiply == dense oracle over all pairs."""
    t0 = time.perf_counter()
    total = (d**d) ** 2
    parts = _run_chunked(_mul_chunk, (d,), total, workers)
    failures = [f for part in parts for f in part]
    return SweepReport(
        sweep="mul",
        d=d,
        cases=total,
        failures=failures,
        findings={},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _period_chunk(d: int, assert_law: bool, start: int, stop: int):
    failures = []
    counts: dict[str, int] = {}
    for k in range(start, stop):
        a = plm_from_index(d, k)
        verdict = periodicity(a)
        counts[verdict.kind] = counts.get(verdict.kind, 0) + 1
        if assert_law:
            square = multiply(a, a)
            square_is_row = all(r == square.colmap[0] for r in square.colmap)
            if verdict.kind != "periodic" and not square_is_row:
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
    t0 = time.perf_counter()
    total = d**d
    assert_law = d in (2, 3)
    parts = _run_chunked(_period_chunk, (d, assert_law), total, workers)
    failures = [f for part, _ in parts for f in part]
    counts: dict[str, int] = {}
    for _, part_counts in parts:
        for key, val in part_counts.items():
            counts[key] = counts.get(key, 0) + val
    return SweepReport(
        sweep="period",
        d=d,
        cases=total,
        failures=failures,
        findings={"verdicts": counts, "asserted": assert_law},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _eigen_chunk(d: int, tol: float, start: int, stop: int):
    failures = []
    period_hist: dict[str, int] = {}
    zero_count = 0
    for k in range(start, stop):
        a = plm_from_index(d, k)
        cyc = power_cycle(a)
        if power(a, cyc.tail + cyc.period) != power(a, cyc.tail):
            failures.append({"index": k, "colmap": list(a.colmap), "check": "power_identity"})
            continue
        try:
            report = eigen_check(a, tol)
        except RootFindingError as exc:
            failures.append(
                {
                    "index": k,
                    "colmap": list(a.colmap),
                    "check": "numeric_roots",
                    "detail": str(exc),
                }
            )
            continue
        if report.has_zero != (not is_permutation(a)):
            failures.append({"index": k, "colmap": list(a.colmap), "check": "zero_eigenvalue"})
            continue
        key = str(report.period)
        period_hist[key] = period_hist.get(key, 0) + 1
        zero_count += int(report.has_zero)
    return failures, period_hist, zero_count


def sweep_eigen(d: int, tol: float = DEFAULT_TOL, workers: int = 1) -> SweepReport:
    """Exact power identity, numeric root locations, and the zero-eigenvalue
    criterion, for every PLM of dimension d."""
    t0 = time.perf_counter()
    total = d**d
    parts = _run_chunked(_eigen_chunk, (d, tol), total, workers)
    failures = [f for part in parts for f in part[0]]
    period_hist: dict[str, int] = {}
    zero_count = 0
    for _, hist, zeros in parts:
        zero_count += zeros
        for key, val in hist.items():
            period_hist[key] = period_hist.get(key, 0) + val
    return SweepReport(
        sweep="eigen",
        d=d,
        cases=total,
        failures=failures,
        findings={"period_histogram": period_hist, "zero_eigenvalue_count": zero_count},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _cplm_with_row_plc(a: Plm) -> bool:
    # Is this a CPLM with zero leading entry whose PLC is a row PLM?
    cls = classify(a)
    if cls.kind == "rowplm":
        return cls.m > 1
    if cls.kind != "cplm" or cls.leading:
        return False
    sub = classify(cplm_parts(a).plc)
    return sub.kind == "rowplm"


def _prerow_chunk(d: int, start: int, stop: int):
    row_plms = []
    records = []
    for k in range(start, stop):
        a = plm_from_index(d, k)
        if len(set(a.colmap)) == 1:
            row_plms.append(list(a.colmap))
            continue
        verdict = periodicity(a)
        if verdict.kind != "prerow":
            continue
        _, canonical = canonicalize(a)
        records.append(
            {
                "colmap": list(a.colmap),
                "e": verdict.e,
                "m": verdict.m,
                "literal_form": _cplm_with_row_plc(a),
                "canonical_form": _cplm_with_row_plc(canonical),
            }
        )
    return row_plms, records


def sweep_prerow(d: int, workers: int = 1) -> SweepReport:
    """Report-only survey of pre-row PLMs.

    For every non-row PLM some power of which is a row PLM, the report records
    whether the matrix is literally a zero-led CPLM with a row-PLM component,
    and whether it becomes one after row canonicalization.  Nothing is
    asserted either way; the question is open.
    """
    t0 = time.perf_counter()
    total = d**d
    parts = _run_chunked(_prerow_chunk, (d,), total, workers)
    row_plms = [r for part, _ in parts for r in part]
    records = [r for _, part in parts for r in part]
    findings = {
        "row_plms": row_plms,
        "prerow": records,
        "summary": {
            "prerow_count": len(records),
            "literal_all": all(r["literal_form"] for r in records),
            "canonical_all": all(r["canonical_form"] for r in records),
        },
    }
    return SweepReport(
        sweep="prerow",
        d=d,
        cases=total,
        failures=[],
        findings=findings,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )


def _case_seed(seed: int, case: int) -> int:
    return seed * 1_000_003 + case


def sweep_decompose(d: int, n_cases: int = 100, seed: int = 0) -> SweepReport:
    """Random left stochastic matrices: decompose, then re-verify everything
    from the output alone (round trip, weight sum, term bound, and the
    step-by-step remainder walk)."""
    t0 = time.perf_counter()
    failures = []
    max_terms = 0
    for case in range(n_cases):
        case_seed = _case_seed(seed, case)
        m = random_left_stochastic(d, case_seed, RANDOM_MAX_DENOMINATOR)
        problems = []
        try:
            dec = decompose(m)
        except Exception as exc:
            failures.append({"case": case, "seed": case_seed, "problems": [f"decompose: {exc}"]})
            continue
        max_terms = max(max_terms, len(dec.terms))
        if recompose(dec) != m:
            problems.append("recompose mismatch")
        if sum(lam for lam, _ in dec.terms) != 1:
            problems.append("weights do not sum to 1")
        if not all(0 < lam <= 1 for lam, _ in dec.terms):
            problems.append("weight outside (0, 1]")
        if len(dec.terms) > d * d:
            problems.append("too many terms")
        # Remainder walk from the reported terms only.
        work = [list(row) for row in m.entries]
        zeros = sum(1 for row in work for x in row if x == 0)
        running = sum(lam for lam, _ in dec.terms)
        for lam, p in dec.terms:
            for j in range(d):
                work[p.colmap[j] - 1][j] -= lam
            running -= lam
            if any(x < 0 for row in work for x in row):
                problems.append("negative remainder entry")
                break
            new_zeros = sum(1 for row in work for x in row if x == 0)
            if new_zeros <= zeros:
                problems.append("zero count did not grow")
                break
            zeros = new_zeros
            if any(sum(work[i][j] for i in range(d)) != running for j in range(d)):
                problems.append("non-uniform column sums")
                break
        else:
            if any(x != 0 for row in work for x in row):
                problems.append("nonzero final remainder")
        if problems:
            failures.append({"case": case, "seed": case_seed, "problems": problems})
    return SweepReport(
        sweep="decompose",
        d=d,
        cases=n_cases,
        failures=failures,
        findings={"max_terms": max_terms, "term_bound": d * d, "seed": seed},
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
    )
