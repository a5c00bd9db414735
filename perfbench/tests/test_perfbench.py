"""Tests of the benchmark itself: output contract, correctness gates, tracing."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import plmonoid  # noqa: E402
from plmonoid import core, verify  # noqa: E402
from plmbench.harness import (  # noqa: E402
    END_TO_END, closed_loop, defect_probe, judge, timed, traced_pass,
)
from plmbench.speed import INTERVAL_S, SpeedProbe  # noqa: E402
from plmbench.tracing import BRANCHES, COUNTERS, SPAN_NAMES, metric_units, patched  # noqa: E402
from plmbench.workloads import WORKLOADS, Spectra, load_golden  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    env, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("cpu_model", "nproc", "python", "numpy", "seed", "cases_per_pass"):
        assert key in env["environment"]
    if workload == "spectra":
        assert env["environment"]["known_defect_failures"] == len(Spectra.KNOWN_DEFECTS)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.running():
        end = time.perf_counter() + 4 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4  # one at each end, and ticks in between
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_time_is_not_counted_in_the_case():
    probe = SpeedProbe()

    class Busy:
        @staticmethod
        def run(case):
            for _ in range(5):
                probe.sample()

    dt, _ = timed(Busy, None, probe)
    assert len(probe.samples) == 5
    assert dt < 0.2 * probe.spent


def test_wrong_product_counts_as_failure_and_the_run_goes_on():
    def wrong_on_one_pair(original):
        def multiply(a, b):
            if (a.colmap, b.colmap) == ((1, 2), (2, 1)):
                return core.Plm((1, 1))
            return original(a, b)
        return multiply

    workload = WORKLOADS["mul_sweep"](0, "tiny", load_golden())
    with patched({"core.structural_multiply": wrong_on_one_pair}):
        tally = closed_loop(workload, 0.0)
    assert tally.attempted == 16 + 729
    assert tally.failed >= 1 and tally.wrong


def test_crashing_case_counts_as_failure():
    def broken(original):
        def sweep(*args, **kwargs):
            raise RuntimeError("injected")
        return sweep

    workload = WORKLOADS["decompose"](0, "tiny", load_golden())
    case = workload.pass_cases(0)[0]
    with patched({"verify.sweep_decompose": broken}):
        _, outcome = timed(workload, case)
    verdict = judge(workload, case, outcome)
    assert verdict.failed == 1 and verdict.wrong and "injected" in verdict.note


def cycle_type(colmap):
    seen, lengths = set(), []
    for start in range(1, len(colmap) + 1):
        n, p = 0, start
        while p not in seen:
            seen.add(p)
            p = colmap[p - 1]
            n += 1
        if n:
            lengths.append(n)
    return sorted(lengths)


def test_known_root_finding_defect_is_a_failed_case():
    """Cycle type (5, 7, 8, 9, 11) at d = 40: eigen_check raises
    RootFindingError at this commit (ROADMAP item 2).  The case must count as
    failed while its exact fields still match the golden values."""
    workload = Spectra(5, "tiny", load_golden())
    (case,) = [c for c in workload.defect_cases if c.key == Spectra.MANDATORY]
    assert cycle_type(case.payload[1].colmap) == [5, 7, 8, 9, 11]
    _, outcome = timed(workload, case)
    verdict = judge(workload, case, outcome)
    assert (verdict.failed, verdict.wrong) == (1, False)
    assert verdict.note.startswith("RootFindingError")


def test_known_defects_are_probed_outside_the_timed_pass():
    """Every known-defect base fails in the probe at this commit, and none is
    among the timed cases, so timed runs have no failed case."""
    workload = Spectra(5, "full", load_golden())
    assert {c.key for c in workload.defect_cases} == set(Spectra.KNOWN_DEFECTS)
    assert not {c.key for c in workload.cases} & set(Spectra.KNOWN_DEFECTS)
    outcomes, failed, wrong = defect_probe(workload)
    assert (failed, wrong) == (len(Spectra.KNOWN_DEFECTS), False)
    assert all(note.startswith("RootFindingError") for note in outcomes.values())


@pytest.mark.parametrize("workload", ["mul_sweep", "decompose", "cli"])
def test_traced_counts_repeat_exactly(workload):
    exact = [f"{name}.calls" for name in SPAN_NAMES] + list(COUNTERS)
    counts = []
    for _ in range(2):
        wl = WORKLOADS[workload](7, "tiny", load_golden())
        try:
            plain, traced, tracer = traced_pass(wl)
        finally:
            wl.close()
        assert not plain.wrong and not traced.wrong
        values = tracer.layer_metrics()
        counts.append({name: values[name] for name in exact})
    assert counts[0] == counts[1]
    c = counts[0]
    branches = sum(c[f"core.branch.{b}.calls"] for b in BRANCHES)
    assert branches == c["core.structural_multiply.calls"]
    if workload == "mul_sweep":
        assert c["verify.oracle_multiply.calls"] == 16 + 729
    # The wrappers are gone, from every module that imported the names.
    assert verify.structural_multiply is core.structural_multiply is plmonoid.structural_multiply
    assert not hasattr(core.structural_multiply, "__wrapped__")


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
