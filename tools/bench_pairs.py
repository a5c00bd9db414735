"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --seeds 11-20
                                 --out BENCH_NAME.json [--trace]

PARENT and CHANGE are the roots of two checkouts.  For each seed S it runs
``python3 perfbench/run.py --workload NAME --seed S --seconds N --trace 0``
once in each, with N the ``run_seconds`` of BENCHMARK.json.  The parent runs
first on odd seeds and the change on even ones, so slow drift of the machine
falls on both sides alike.  For each
end-to-end metric the record holds both sides' values, medians and quartiles
(``statistics.quantiles(values, n=4)``), ``change_over_parent`` (the change's
median over the parent's) and ``change_wins``, the number of pairs in which
the change reads better in the direction BENCHMARK.json gives (ties count
for neither side).  It also holds the metric's BENCHMARK.json ``bound`` and
``within_bound``, false when the change's median is worse than the parent's
by more than that bound, as a share of the parent's median; a line is
printed for each metric outside its bound.  ``claim_rule_met`` applies the
rule a claimed gain must meet: true when the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's quartile distance (``parent_q3 - parent_q1``); each metric's
printed line says whether it is met.  ``resolved`` is false when that
distance, as a share of the parent's median, exceeds the metric's bound,
unless every run of the change reads better than every run of the parent:
the runs then spread too widely to tell a change within the bound from one
past it, and the printed line says "unresolved".  ``peak_rss_mb`` also
holds, and its printed line gives, each side's median ``latency_samples``
(``latency_samples_median``).  The record is stored under the key
``NAME_pairs`` of the OUT file, next to whatever else that file holds.
Exits 1 if a run fails, is incorrect or has failed cases.

The record names each checkout by the ``git_commit`` and ``source_sha256``
of its runs.  A checkout without git metadata (one made with ``git
archive``) records ``git_commit: null``, and a warning is printed for that
side; ``git worktree add --detach`` or ``git clone`` keeps the commit.

With ``--trace`` each run is ``--trace 1`` instead, in the same order, and
the record holds every per-layer metric: both sides' values by seed and
``change_over_parent``, the change's median over the parent's (null when the
parent's median is 0).  The traced pass is fixed, so a change that keeps the
work the same keeps every ``count`` metric (calls, branches, steps) the same:
``counts_differ`` lists each one whose values differ between the two sides on
some seed, a line is printed for each, and ``counts_equal`` is true when the
list is empty.  It is stored under ``NAME_traced``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_order(seed: int) -> tuple[str, str]:
    return SIDES if seed % 2 else SIDES[::-1]


def command(workload: str, seed: int, seconds: int, trace: bool = False) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]


def run_once(checkout: Path, cmd: list[str]) -> dict | None:
    """The run's result object, with its environment under ``environment``,
    or None if the run exited nonzero or printed no result."""
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{checkout}: {' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return {**json.loads(lines[-1]), **json.loads(lines[-2])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_fields(seeds: list[int], runs: dict) -> dict:
    """What a record holds of ``runs[side][i]``, the result of seed
    ``seeds[i]`` on that side (with its ``environment``), besides the metrics."""
    record = {
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "seeds": seeds,
        "order": {str(s): f"{run_order(s)[0]} first" for s in seeds},
        "metrics": {},
    }
    record["failed"] = {side: [r["failed"] for r in runs[side]] for side in SIDES}
    for field in ("known_defect_failures", "latency_samples"):
        record[field] = {side: [r["environment"][field] for r in runs[side]] for side in SIDES}
    return record


def metric_values(runs: dict, name: str) -> dict:
    return {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}


def summarize_pairs(seeds: list[int], runs: dict, metrics: dict) -> dict:
    """The pair record of plain runs (see ``run_fields``).  ``metrics`` maps
    each metric's name to its BENCHMARK.json entry, with ``better`` ("higher"
    or "lower") and ``bound``."""
    record = run_fields(seeds, runs)
    for name, spec in metrics.items():
        values = metric_values(runs, name)
        stats = {}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            stats.update({side: values[side], f"{side}_median": med,
                          f"{side}_q1": q1, f"{side}_q3": q3})
        sign = 1 if spec["better"] == "higher" else -1
        stats["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
        )
        stats["change_over_parent"] = stats["change_median"] / stats["parent_median"]
        worse_by = sign * (1 - stats["change_over_parent"])
        stats["bound"] = spec["bound"]
        stats["within_bound"] = worse_by <= spec["bound"]
        spread = stats["parent_q3"] - stats["parent_q1"]
        stats["claim_rule_met"] = (
            10 * stats["change_wins"] >= 9 * len(seeds)
            and sign * (stats["change_median"] - stats["parent_median"]) > spread
        )
        stats["resolved"] = (
            spread <= spec["bound"] * stats["parent_median"]
            or min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
        )
        if name == "peak_rss_mb":
            stats["latency_samples_median"] = {
                side: statistics.median(record["latency_samples"][side]) for side in SIDES
            }
        record["metrics"][name] = stats
    return record


def pair_line(record: dict, name: str) -> str:
    """The printed summary of one metric of a pair record.  ``peak_rss_mb``
    also shows each side's median ``latency_samples``: the harness holds its
    samples in memory, so a side that runs more cases reads as more memory."""
    s = record["metrics"][name]
    line = (f"{name:14s} parent {s['parent_median']:10.4g}  change {s['change_median']:10.4g}"
            f"  x{s['change_over_parent']:.3f}  wins {s['change_wins']}/{len(record['seeds'])}"
            f"  claim rule {'met' if s['claim_rule_met'] else 'not met'}"
            f"{'' if s['resolved'] else '  unresolved'}")
    if name == "peak_rss_mb":
        samples = s["latency_samples_median"]
        line += f"  latency_samples parent {samples['parent']:g}  change {samples['change']:g}"
    return line


def commit_warnings(runs: dict) -> list[str]:
    """A warning for each side some of whose runs record no ``git_commit``."""
    return [
        f"{side}: its runs record git_commit null, so the record names this checkout"
        " only by source_sha256 (git worktree add --detach or git clone keeps the commit)"
        for side in SIDES
        if any(r["environment"]["git_commit"] is None for r in runs[side])
    ]


def summarize_traced(seeds: list[int], runs: dict) -> dict:
    """The record of traced runs (see ``run_fields``): each per-layer metric
    of the parent's runs, with both sides' values and their median ratio."""
    record = run_fields(seeds, runs)
    record["counts_differ"] = []
    for name, metric in sorted(runs["parent"][0]["metrics"].items()):
        values = metric_values(runs, name)
        parent = statistics.median(values["parent"])
        ratio = statistics.median(values["change"]) / parent if parent else None
        record["metrics"][name] = {**values, "change_over_parent": ratio}
        if metric["unit"] == "count" and values["parent"] != values["change"]:
            record["counts_differ"].append(name)
    record["counts_equal"] = not record["counts_differ"]
    return record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", action="store_true",
                   help="traced runs; store the per-layer metrics under NAME_traced")
    args = p.parse_args()

    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    seeds, ran = [], []
    ok = True
    for seed in args.seeds:
        pair = {}
        for side in run_order(seed):
            cmd = command(args.workload, seed, spec["run_seconds"], args.trace)
            ran.append(f"{side}: {' '.join(cmd)}")
            pair[side] = result = run_once(checkouts[side], cmd)
            if result is None:
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        if all(pair.values()):
            seeds.append(seed)
            for side in SIDES:
                runs[side].append(pair[side])
    if not seeds:
        return 1
    if args.trace:
        record = summarize_traced(seeds, runs)
    else:
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        record = summarize_pairs(seeds, runs, metrics)
    record["commands"] = ran
    record["checkouts"] = {
        side: {k: runs[side][0]["environment"][k] for k in ("git_commit", "source_sha256")}
        for side in SIDES
    }
    for line in commit_warnings(runs):
        print(line, file=sys.stderr)
    stored = json.loads(args.out.read_text()) if args.out.exists() else {}
    stored[f"{args.workload}_{'traced' if args.trace else 'pairs'}"] = record
    args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    for name in record.get("counts_differ", []):
        print(f"{name}: the count differs between the two sides", file=sys.stderr)
    for name, s in record["metrics"].items():
        if args.trace:
            print(f"{name:40s} parent {s['parent']}  change {s['change']}", file=sys.stderr)
        else:
            print(pair_line(record, name), file=sys.stderr)
            if not s["within_bound"]:
                print(f"{name}: the change's median is worse than the parent's by more"
                      f" than the bound {s['bound']:.0%}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
