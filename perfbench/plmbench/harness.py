"""One benchmark run: set-up probes, the timed closed loop or the traced pass,
correctness gates, and the result line.

A plain run (``--trace 0``) reports the end-to-end metrics in ``END_TO_END``,
with times scaled to the reference speed of ``speed.py``; the raw values go to
the environment record.  A traced run (``--trace 1``) runs one fixed pass
untraced, then the same pass with the tracing wrappers installed, and reports
the per-layer metrics and the difference between the two, scaled the same
way, as the tracing overhead.  After either, the workload's known-defect
cases run once each, untimed; their outcomes go to the environment record and
stderr, and a wrong output among them makes the result incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import plmonoid

from . import speed
from .tracing import Tracer, metric_units
from .workloads import BENCH_DIR, WORKLOADS, Verdict, load_golden

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
TRACE_DIR = BENCH_DIR / "_traces"
MAX_NOTES = 10


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    measured_s: float = 0.0
    latencies: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (start, end) of each case
    notes: list = field(default_factory=list)

    def add(self, case, seconds: float, verdict: Verdict) -> None:
        self.attempted += case.weight
        self.failed += verdict.failed
        self.wrong = self.wrong or verdict.wrong
        self.measured_s += seconds
        self.latencies.append(seconds)
        if verdict.note and len(self.notes) < MAX_NOTES:
            self.notes.append(verdict.note)


def timed(workload, case, probe: speed.SpeedProbe | None = None):
    """Run one case; an exception is its outcome, so the run goes on.

    Time the probe spent in its reference kernel during the case is not
    counted.
    """
    spent = probe.spent if probe else 0.0
    t0 = time.perf_counter()
    try:
        outcome = workload.run(case)
    except Exception as exc:  # noqa: BLE001 - a failed case, recorded below
        outcome = exc
    dt = time.perf_counter() - t0
    return dt - (probe.spent - spent if probe else 0.0), outcome


def judge(workload, case, outcome) -> Verdict:
    if isinstance(outcome, Exception):
        text = "".join(traceback.format_exception(outcome)).strip()
        return Verdict(case.weight, True, f"{case.key}: {text}")
    try:
        return workload.check(case, outcome)
    except Exception:  # noqa: BLE001 - the check itself broke on this output
        return Verdict(case.weight, True, f"{case.key}: check raised {traceback.format_exc()}")


def closed_loop(workload, seconds: float, probe: speed.SpeedProbe | None = None) -> Tally:
    """Run passes until the time spent in cases reaches ``seconds``.

    A case is not started when the last case with the same key says it would
    end past ``seconds``, so a run with long cases does not overshoot by one.
    """
    tally = Tally()
    last: dict = {}
    for k in itertools.count():
        for case in workload.pass_cases(k):
            if tally.latencies and tally.measured_s + last.get(case.key, 0.0) > seconds:
                return tally
            start = time.perf_counter()
            dt, outcome = timed(workload, case, probe)
            tally.windows.append((start, time.perf_counter()))
            last[case.key] = dt
            tally.add(case, dt, judge(workload, case, outcome))
    raise AssertionError("unreachable")


def traced_pass(workload, probe: speed.SpeedProbe | None = None) -> tuple[Tally, Tally, Tracer]:
    """One fixed pass untraced, then the same pass traced.

    The traced outcomes are checked after the wrappers are removed, so the
    checks' own library calls stay out of the counts.
    """
    cases = workload.pass_cases(0)
    plain = Tally()
    for case in cases:
        start = time.perf_counter()
        dt, outcome = timed(workload, case, probe)
        plain.windows.append((start, time.perf_counter()))
        plain.add(case, dt, judge(workload, case, outcome))
    tracer = Tracer()
    runs = []
    with tracer.installed():
        for case in cases:
            start = time.perf_counter()
            dt, outcome = timed(workload, case, probe)
            runs.append((dt, outcome, (start, time.perf_counter())))
    traced = Tally()
    for case, (dt, outcome, window) in zip(cases, runs):
        traced.windows.append(window)
        traced.add(case, dt, judge(workload, case, outcome))
    return plain, traced, tracer


def defect_probe(workload) -> tuple[dict, int, bool]:
    """Run each of the workload's known-defect cases once, untimed and
    untraced.  Returns each case's outcome by key, how many failed, and
    whether any output was wrong."""
    outcomes, failed, wrong = {}, 0, False
    for case in getattr(workload, "defect_cases", ()):
        _, outcome = timed(workload, case)
        verdict = judge(workload, case, outcome)
        outcomes[case.key] = verdict.note if verdict.failed else "passed"
        failed += verdict.failed
        wrong = wrong or verdict.wrong
    return outcomes, failed, wrong


def scaled_seconds(tally: Tally, probe: speed.SpeedProbe) -> float:
    """Time in cases, each case scaled to the reference speed."""
    return sum(dt * probe.local_factor(*w) for dt, w in zip(tally.latencies, tally.windows))


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so a child's reading can be
    # compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_samples(args) -> list[tuple[float, float]]:
    """Time from starting a fresh interpreter to plmonoid imported and the
    workload's inputs built, measured ``SETUP_REPEATS`` times, each with the
    reference-speed factor measured in the same process right after.

    The probe prints the clock when its inputs are built, so neither the
    interpreter's exit nor the parent's polling wait is counted.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        child = subprocess.run(cmd, check=True, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S)
        done, factor = map(float, child.stdout.split()[-2:])
        samples.append((done - t0, factor))
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit(root: Path) -> str | None:
    # A checkout without .git has no commit; git would report an enclosing repo.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, cases_per_pass: int) -> dict:
    src = Path(plmonoid.__file__).resolve().parent
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(BENCH_DIR.parent),
        "source_sha256": _source_digest(src),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cases_per_pass": cases_per_pass,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few cases per workload, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the package and build the inputs, then exit")
    return p.parse_args(argv)


def build(args, size: str):
    return WORKLOADS[args.workload](args.seed, size, load_golden())


def execute(args) -> tuple[dict, dict, list]:
    """Run the workload; returns the result object, the environment record and
    the first failure notes."""
    if args.trace:
        workload = build(args, "trace" if args.size == "full" else args.size)
        probe = speed.SpeedProbe()
        try:
            with probe.running():
                plain, traced, tracer = traced_pass(workload, probe)
            defects = defect_probe(workload)
        finally:
            workload.close()
        values = tracer.layer_metrics()
        values["trace.untraced_s"] = scaled_seconds(plain, probe)
        values["trace.traced_s"] = scaled_seconds(traced, probe)
        values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        tracer.dump(trace_path)
        units = metric_units()
        tally = traced
        wrong = plain.wrong or traced.wrong
        env = environment(args, len(workload.pass_cases(0)))
        env["spans"] = len(tracer.start)
        env["spans_file"] = str(trace_path.relative_to(BENCH_DIR.parent))
        env["waiting_time"] = "none: single-threaded, no span waits for another"
        env["raw_untraced_s"] = plain.measured_s
        env["raw_traced_s"] = traced.measured_s
    else:
        setup = setup_samples(args)
        workload = build(args, args.size)
        probe = speed.SpeedProbe()
        try:
            with probe.running():
                tally = closed_loop(workload, args.seconds, probe)
            defects = defect_probe(workload)
        finally:
            workload.close()
        lat_ms = [s * 1000 for s in tally.latencies]
        raw = {
            "setup_s": statistics.median(t for t, _ in setup),
            "cases_per_s": tally.attempted / tally.measured_s,
            "case_p50_ms": statistics.median(lat_ms),
            "case_p99_ms": percentile(lat_ms, 99),
        }
        scaled_ms = [
            ms * probe.local_factor(*window) for ms, window in zip(lat_ms, tally.windows)
        ]
        values = {
            "setup_s": statistics.median(t * g for t, g in setup),
            "cases_per_s": tally.attempted / (sum(scaled_ms) / 1000),
            "case_p50_ms": statistics.median(scaled_ms),
            "case_p99_ms": percentile(scaled_ms, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        wrong = tally.wrong
        env = environment(args, len(workload.pass_cases(0)))
        env["raw"] = raw
        env["speed_factor"] = probe.factor()
        env["speed_samples"] = len(probe.samples)
        env["setup_samples"] = setup
        env["measured_s"] = tally.measured_s
    env["latency_samples"] = len(tally.latencies)
    env["cases_attempted"] = tally.attempted
    env["cases_failed"] = tally.failed
    env["known_defects"], env["known_defect_failures"], defect_wrong = defects
    result = {
        "correct": not (wrong or defect_wrong),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, env, tally.notes


def main(argv) -> int:
    args = parse_args(argv)
    src = BENCH_DIR.parent / "src"
    if Path(plmonoid.__file__).resolve().parent != (src / "plmonoid").resolve():
        print(f"error: plmonoid imported from {plmonoid.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = build(args, args.size)
        done = monotonic()
        print(done, speed.factor([speed.time_reference() for _ in range(speed.SETUP_SAMPLES)]))
        workload.close()
        return 0
    result, env, notes = execute(args)
    for note in notes:
        print(f"failure: {note}", file=sys.stderr)
    for key, outcome in env["known_defects"].items():
        print(f"known defect {key}: {outcome}", file=sys.stderr)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0
