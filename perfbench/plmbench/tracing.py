"""Outside-in tracing of plmonoid's public functions.

A traced run wraps the functions listed in ``TRACED`` from the benchmark's own
code; no source file of the package changes.  Every wrapper records one span
(name, parent span, start, end) in flat in-memory arrays, and the spans are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children, computed from the recorded spans.

``from .core import multiply`` gives each importing module its own binding, so
a name is replaced in every ``plmonoid`` module that holds the same object.
Patching only the defining module would silently miss the calls that
``verify``, ``spectral`` and ``cli`` make through their own references.

The program is single-threaded: no span ever waits for another, so the trace
reports busy (self) time and counts, and no waiting time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED = {
    "core": (
        "multiply",
        "structural_multiply",
        "classify",
        "canonicalize",
        "cplm_parts",
        "permute_rows",
        "permute_columns",
        "from_dense",
        "to_dense",
        "Plm.init",
        "Permutation.init",
    ),
    "verify": (
        "oracle_multiply",
        "plm_from_index",
        "enumerate_plms",
        "sweep_multiplication",
        "sweep_decompose",
    ),
    "spectral": (
        "power",
        "power_cycle",
        "periodicity",
        "char_poly",
        "max_unity_deviation",
        "eigen_check",
    ),
    "stochastic": (
        "decompose",
        "convex_combine",
        "random_left_stochastic",
        "StochasticMatrix.init",
        "Decomposition.init",
    ),
    "formats": (
        "parse_plm_text",
        "parse_stochastic_text",
        "plm_to_text",
        "dumps_compact",
        "dumps_report",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
BRANCHES = ("left_row", "right_row", "cplm", "pcplm", "iplm")
COUNTERS = (
    "core.structural_multiply.max_depth",
    *(f"core.branch.{b}.calls" for b in BRANCHES),
    "spectral.power_cycle.steps",
    "stochastic.decompose.terms",
)
OVERHEAD = ("trace.untraced_s", "trace.traced_s", "trace.overhead_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update(dict.fromkeys(OVERHEAD, "s"))
    return units


def _owners(span_name: str):
    """The (owner, attribute) pairs that must be replaced to trace a span name,
    and the original object."""
    module, _, func = span_name.partition(".")
    mod = importlib.import_module(f"plmonoid.{module}")
    if func.endswith(".init"):
        cls = getattr(mod, func[: -len(".init")])
        return [(cls, "__post_init__")], cls.__dict__["__post_init__"]
    original = getattr(mod, func)
    owners = [
        (m, func)
        for name, m in sorted(sys.modules.items())
        if (name == "plmonoid" or name.startswith("plmonoid.")) and m is not None
        and m.__dict__.get(func) is original
    ]
    return owners, original


@contextmanager
def patched(factories: dict):
    """Replace each named function by ``factory(original)`` for the block.

    Keys are span names such as ``"core.multiply"`` or ``"core.Plm.init"``.
    Every replaced binding is restored on exit, also after an error.
    """
    saved = []
    try:
        for span_name, factory in factories.items():
            owners, original = _owners(span_name)
            replacement = factory(original)
            for owner, attr in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _branch(a, b) -> str:
    # The top-level dispatch of structural_multiply, decided from the column
    # maps alone so that counting it makes no library call.
    ca, cb = a.colmap, b.colmap
    if ca.count(ca[0]) == len(ca):
        return "left_row"
    if cb.count(cb[0]) == len(cb):
        return "right_row"
    ones = cb.count(1)
    if ones == 0 or (ones == 1 and cb[0] == 1):
        return "cplm"
    return "pcplm" if ones == 1 else "iplm"


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._depth = 0

    def _span(self, name_id: int, fn):
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return traced

    def _structural(self, inner):
        counts = self.counts

        @functools.wraps(inner)
        def counted(a, b):
            counts[f"core.branch.{_branch(a, b)}.calls"] += 1
            self._depth += 1
            if self._depth > counts["core.structural_multiply.max_depth"]:
                counts["core.structural_multiply.max_depth"] = self._depth
            try:
                return inner(a, b)
            finally:
                self._depth -= 1

        return counted

    def _summed(self, inner, counter: str, amount):
        counts = self.counts

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            counts[counter] += amount(result)
            return result

        return counted

    def factories(self) -> dict:
        out = {}
        for name_id, name in enumerate(SPAN_NAMES):
            def factory(original, name_id=name_id, name=name):
                wrapped = self._span(name_id, original)
                if name == "core.structural_multiply":
                    return self._structural(wrapped)
                if name == "spectral.power_cycle":
                    return self._summed(
                        wrapped, "spectral.power_cycle.steps", lambda c: c.tail + c.period
                    )
                if name == "stochastic.decompose":
                    return self._summed(
                        wrapped, "stochastic.decompose.terms", lambda d: len(d.terms)
                    )
                return wrapped

            out[name] = factory
        return out

    @contextmanager
    def installed(self):
        with patched(self.factories()):
            yield self

    def _arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.uint16),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, float]:
        names, parent, start, end = self._arrays()
        n_names = len(SPAN_NAMES)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=self_ns, minlength=n_names) / 1e9
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        """Write every span: name table, name id, parent span id, start, end (ns)."""
        names, parent, start, end = self._arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), name=names, parent=parent,
                 start=start, end=end)
