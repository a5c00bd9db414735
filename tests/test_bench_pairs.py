"""The summary steps of tools/bench_pairs.py, on made-up runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(cases_per_s, p50_ms, correct=True, failed=0, commit="0" * 40):
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {
            "cases_per_s": {"value": cases_per_s, "unit": "1/s"},
            "case_p50_ms": {"value": p50_ms, "unit": "ms"},
        },
        "environment": {
            "known_defect_failures": 4,
            "latency_samples": int(cases_per_s),
            "git_commit": commit,
        },
    }


METRICS = {
    "cases_per_s": {"name": "cases_per_s", "better": "higher", "bound": 0.2},
    "case_p50_ms": {"name": "case_p50_ms", "better": "lower", "bound": 0.2},
}


def test_wins_medians_and_quartiles(bench_pairs):
    runs = {
        "parent": [fake_run(100, 1.0), fake_run(110, 0.9), fake_run(90, 1.1), fake_run(100, 1.0)],
        "change": [fake_run(200, 0.5), fake_run(100, 0.9), fake_run(210, 0.4), fake_run(190, 1.2)],
    }
    record = bench_pairs.summarize_pairs([11, 12, 13, 14], runs, METRICS)
    rate = record["metrics"]["cases_per_s"]
    assert rate["parent"] == [100, 110, 90, 100]
    assert rate["change"] == [200, 100, 210, 190]
    assert (rate["parent_median"], rate["change_median"]) == (100, 195)
    assert (rate["parent_q1"], rate["parent_q3"]) == (92.5, 107.5)
    assert rate["change_wins"] == 3
    assert rate["change_over_parent"] == 1.95
    assert rate["claim_rule_met"] is False  # 3 of 4 wins
    latency = record["metrics"]["case_p50_ms"]
    # lower is better; the tie at 0.9 counts for neither side
    assert latency["change_wins"] == 2
    assert latency["change_over_parent"] == pytest.approx(0.7)
    assert record["order"] == {
        "11": "parent first", "12": "change first", "13": "parent first", "14": "change first",
    }
    assert record["seeds"] == [11, 12, 13, 14]
    assert record["correct"] is True
    assert record["failed"] == {"parent": [0] * 4, "change": [0] * 4}
    assert record["known_defect_failures"]["change"] == [4] * 4
    assert record["latency_samples"]["parent"] == [100, 110, 90, 100]


def test_bound_is_stored_and_checked_in_the_metric_direction(bench_pairs):
    runs = {
        # rate -25%, latency +15%: only the rate is outside its 20% bound
        "parent": [fake_run(100, 1.0), fake_run(100, 1.0)],
        "change": [fake_run(75, 1.15), fake_run(75, 1.15)],
    }
    record = bench_pairs.summarize_pairs([1, 2], runs, METRICS)
    rate, latency = record["metrics"]["cases_per_s"], record["metrics"]["case_p50_ms"]
    assert (rate["bound"], latency["bound"]) == (0.2, 0.2)
    assert rate["within_bound"] is False
    assert latency["within_bound"] is True
    # rate -15%, latency +25%: now only the latency is outside
    runs["change"] = [fake_run(85, 1.25), fake_run(85, 1.25)]
    record = bench_pairs.summarize_pairs([1, 2], runs, METRICS)
    assert record["metrics"]["cases_per_s"]["within_bound"] is True
    assert record["metrics"]["case_p50_ms"]["within_bound"] is False
    # a gain is never outside the bound
    runs["change"] = [fake_run(300, 0.1), fake_run(300, 0.1)]
    record = bench_pairs.summarize_pairs([1, 2], runs, METRICS)
    assert all(m["within_bound"] for m in record["metrics"].values())


def test_one_incorrect_run_makes_the_record_incorrect(bench_pairs):
    runs = {"parent": [fake_run(100, 1.0)], "change": [fake_run(120, 0.8, correct=False)]}
    record = bench_pairs.summarize_pairs([1], runs, METRICS)
    assert record["correct"] is False
    # a single run is its own median and quartiles
    rate = record["metrics"]["cases_per_s"]
    assert (rate["change_q1"], rate["change_median"], rate["change_q3"]) == (120, 120, 120)


def test_memory_line_shows_the_samples_each_side_holds(bench_pairs):
    runs = {"parent": [], "change": []}
    for side, rate, rss in (("parent", 400, 38.0), ("change", 700, 41.5)):
        for k in range(3):
            run = fake_run(rate + k, 1.0)
            run["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
            runs[side].append(run)
    metrics = {**METRICS, "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}}
    record = bench_pairs.summarize_pairs([1, 2, 3], runs, metrics)
    assert record["metrics"]["peak_rss_mb"]["latency_samples_median"] == {
        "parent": 401, "change": 701
    }
    assert "latency_samples_median" not in record["metrics"]["cases_per_s"]
    line = bench_pairs.pair_line(record, "peak_rss_mb")
    assert line.startswith("peak_rss_mb    parent         38  change       41.5  x1.092  wins 0/3")
    assert line.endswith("  latency_samples parent 401  change 701")
    assert "latency_samples" not in bench_pairs.pair_line(record, "cases_per_s")


def test_claim_rule_needs_nine_tenths_of_wins_and_a_gap_past_the_parent_quartiles(bench_pairs):
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    # 9 of 10 wins; medians 104.5 and 115.5 differ by 11, the parent's
    # quartiles (102.75 and 106.25) by 3.5
    change = [99] + [111 + k for k in range(9)]
    runs = {"parent": [fake_run(r, 1.0) for r in parent],
            "change": [fake_run(r, 1.0) for r in change]}
    seeds = list(range(1, 11))
    rate = bench_pairs.summarize_pairs(seeds, runs, METRICS)["metrics"]["cases_per_s"]
    assert rate["change_wins"] == 9
    assert rate["claim_rule_met"] is True
    # all ties: no wins, no claim
    assert bench_pairs.summarize_pairs(seeds, runs, METRICS)["metrics"]["case_p50_ms"][
        "claim_rule_met"] is False
    # 8 of 10 wins is too few, however large the gap
    runs["change"][1] = fake_run(90, 1.0)
    record = bench_pairs.summarize_pairs(seeds, runs, METRICS)
    assert record["metrics"]["cases_per_s"]["change_wins"] == 8
    assert record["metrics"]["cases_per_s"]["claim_rule_met"] is False
    assert "wins 8/10  claim rule not met" in bench_pairs.pair_line(record, "cases_per_s")
    # 10 of 10 wins, but each by 1: the medians differ by 1, less than 3.5
    runs["change"] = [fake_run(r + 1, 1.0) for r in parent]
    record = bench_pairs.summarize_pairs(seeds, runs, METRICS)
    assert record["metrics"]["cases_per_s"]["change_wins"] == 10
    assert record["metrics"]["cases_per_s"]["claim_rule_met"] is False
    # lower is better: a latency gap counts downwards only
    runs["parent"] = [fake_run(100, 1.0 + k / 100) for k in range(10)]
    runs["change"] = [fake_run(100, 0.5 + k / 100) for k in range(10)]
    record = bench_pairs.summarize_pairs(seeds, runs, METRICS)
    assert record["metrics"]["case_p50_ms"]["claim_rule_met"] is True
    assert "wins 10/10  claim rule met" in bench_pairs.pair_line(record, "case_p50_ms")
    runs["parent"], runs["change"] = runs["change"], runs["parent"]
    record = bench_pairs.summarize_pairs(seeds, runs, METRICS)
    assert record["metrics"]["case_p50_ms"]["claim_rule_met"] is False


def test_a_parent_spread_past_the_bound_leaves_the_metric_unresolved(bench_pairs):
    seeds = list(range(1, 11))
    # parent quartiles 94.75 and 105.25 around a median of 100: a spread of
    # 0.105, within the 0.2 bound, so a change of x0.75 is resolved (and
    # outside the bound)
    parent = [90, 94, 95, 96, 99, 101, 104, 105, 106, 110]
    runs = {"parent": [fake_run(r, 1.0) for r in parent],
            "change": [fake_run(0.75 * r, 1.0) for r in parent]}
    record = bench_pairs.summarize_pairs(seeds, runs, METRICS)
    rate = record["metrics"]["cases_per_s"]
    assert (rate["parent_q1"], rate["parent_median"], rate["parent_q3"]) == (94.75, 100, 105.25)
    assert rate["resolved"] is True
    assert rate["within_bound"] is False
    assert "unresolved" not in bench_pairs.pair_line(record, "cases_per_s")
    # quartiles 78.75 and 121.25: a spread of 0.425, past the bound
    parent = [60, 75, 80, 85, 95, 105, 115, 120, 125, 140]
    runs["parent"] = [fake_run(r, 1.0) for r in parent]
    runs["change"] = [fake_run(r + 1, 1.0) for r in parent]
    record = bench_pairs.summarize_pairs(seeds, runs, METRICS)
    rate = record["metrics"]["cases_per_s"]
    assert rate["resolved"] is False
    assert rate["within_bound"] is True
    assert bench_pairs.pair_line(record, "cases_per_s").endswith("claim rule not met  unresolved")
    # equal runs on both sides have no spread
    assert record["metrics"]["case_p50_ms"]["resolved"] is True
    # unless every change run reads better than every parent run, in the
    # metric's direction: 141 and up beats the parent's best of 140
    runs["change"] = [fake_run(141 + k, 1.0) for k in range(10)]
    assert bench_pairs.summarize_pairs(seeds, runs, METRICS)["metrics"]["cases_per_s"]["resolved"]
    runs["change"][0] = fake_run(140, 1.0)  # a tie with the parent's best
    assert not bench_pairs.summarize_pairs(seeds, runs, METRICS)["metrics"]["cases_per_s"][
        "resolved"]
    # lower is better: latencies all below the parent's least are resolved,
    # all above its greatest are not
    runs["parent"] = [fake_run(100, 0.6 + k / 10) for k in range(10)]
    runs["change"] = [fake_run(100, 0.5 - k / 100) for k in range(10)]
    latency = bench_pairs.summarize_pairs(seeds, runs, METRICS)["metrics"]["case_p50_ms"]
    assert (latency["parent_q3"] - latency["parent_q1"]) / latency["parent_median"] > 0.2
    assert latency["resolved"] is True
    runs["change"] = [fake_run(100, 1.6 + k / 100) for k in range(10)]
    latency = bench_pairs.summarize_pairs(seeds, runs, METRICS)["metrics"]["case_p50_ms"]
    assert latency["resolved"] is False


def test_a_side_without_git_commit_gets_a_warning(bench_pairs):
    runs = {"parent": [fake_run(100, 1.0), fake_run(100, 1.0, commit=None)],
            "change": [fake_run(100, 1.0), fake_run(100, 1.0)]}
    (line,) = bench_pairs.commit_warnings(runs)
    assert line.startswith("parent: its runs record git_commit null")
    assert "git worktree add --detach" in line
    for run in runs["parent"]:
        run["environment"]["git_commit"] = None
    for run in runs["change"]:
        run["environment"]["git_commit"] = None
    assert [w.split(":")[0] for w in bench_pairs.commit_warnings(runs)] == ["parent", "change"]
    runs = {side: [fake_run(100, 1.0)] for side in ("parent", "change")}
    assert bench_pairs.commit_warnings(runs) == []


def fake_traced(calls, self_s, idle_s=0.0):
    run = fake_run(0, 0)
    run["metrics"] = {
        "core.from_dense.calls": {"value": calls, "unit": "count"},
        "formats.parse_plm_text.self_s": {"value": self_s, "unit": "s"},
        "verify.sweep_eigen.self_s": {"value": idle_s, "unit": "s"},
    }
    return run


def test_traced_record_holds_each_layer_metric(bench_pairs):
    runs = {
        "parent": [fake_traced(72, 0.8), fake_traced(72, 1.0), fake_traced(72, 0.9)],
        "change": [fake_traced(0, 0.2), fake_traced(0, 0.1), fake_traced(0, 0.3, idle_s=0.5)],
    }
    record = bench_pairs.summarize_traced([1, 2, 3], runs)
    assert list(record["metrics"]) == [
        "core.from_dense.calls", "formats.parse_plm_text.self_s", "verify.sweep_eigen.self_s",
    ]
    calls = record["metrics"]["core.from_dense.calls"]
    assert calls == {"parent": [72, 72, 72], "change": [0, 0, 0], "change_over_parent": 0.0}
    parse = record["metrics"]["formats.parse_plm_text.self_s"]
    assert parse["parent"] == [0.8, 1.0, 0.9]
    assert parse["change_over_parent"] == pytest.approx(0.2 / 0.9)
    # a layer the parent never entered has no ratio
    assert record["metrics"]["verify.sweep_eigen.self_s"]["change_over_parent"] is None
    assert record["counts_differ"] == ["core.from_dense.calls"]
    assert record["counts_equal"] is False
    assert record["order"] == {"1": "parent first", "2": "change first", "3": "parent first"}
    assert record["correct"] is True
    assert record["failed"] == {"parent": [0] * 3, "change": [0] * 3}


def test_traced_record_lists_the_counts_that_differ(bench_pairs):
    # only count metrics are compared; a time may differ freely
    runs = {
        "parent": [fake_traced(72, 0.8), fake_traced(72, 1.0)],
        "change": [fake_traced(72, 0.2), fake_traced(72, 0.1)],
    }
    record = bench_pairs.summarize_traced([1, 2], runs)
    assert record["counts_differ"] == []
    assert record["counts_equal"] is True
    # one seed is enough to make a count differ, even with equal medians
    runs["change"] = [fake_traced(72, 0.2), fake_traced(73, 0.1)]
    runs["parent"].append(fake_traced(73, 0.9))
    runs["change"].append(fake_traced(72, 0.3))
    record = bench_pairs.summarize_traced([1, 2, 3], runs)
    assert record["metrics"]["core.from_dense.calls"]["change_over_parent"] == 1.0
    assert record["counts_differ"] == ["core.from_dense.calls"]
    assert record["counts_equal"] is False


def test_traced_flag_sets_the_trace_option(bench_pairs):
    assert bench_pairs.command("cli", 1, 20)[-2:] == ["--trace", "0"]
    assert bench_pairs.command("cli", 1, 20, trace=True)[-2:] == ["--trace", "1"]


def test_seed_parity_sets_which_side_runs_first(bench_pairs):
    assert bench_pairs.run_order(11) == ("parent", "change")
    assert bench_pairs.run_order(12) == ("change", "parent")
