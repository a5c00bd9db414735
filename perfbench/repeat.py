"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads mul_sweep cli]
                                [--seconds 20] [--trace 0|1] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process.  Seeds are the outer loop
and workloads the inner one, so slow drift of the machine spreads over all
workloads.  For each workload and metric the summary gives the median, the
quartiles from ``statistics.quantiles(values, n=4)``, and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  Exits 1
if a run fails or reports a wrong output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path,
                   help="store the summary in this JSON file, under the key trace0 or trace1")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {w: [] for w in args.workloads}
    envs = {}
    defects = dict.fromkeys(args.workloads, 0)
    ok = True
    for seed in args.seeds:
        for w in args.workloads:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            env = json.loads(lines[-2])["environment"]
            envs.setdefault(w, env)
            defects[w] += env["known_defect_failures"]
            ok = ok and result["correct"]
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} wall={wall:.1f}s", file=sys.stderr)

    summary = {}
    for w, results in runs.items():
        if not results:
            continue
        metrics = {}
        for name, first in results[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary[w] = {
            "runs": len(results),
            "seeds": args.seeds,
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "known_defect_failures": defects[w],
            "environment": envs[w],
            "metrics": metrics,
        }
        print(f"\n{w}: {len(results)} runs, fail_ratio {failed}/{attempted} = {failed / attempted:.3g},"
              f" known-defect failures {defects[w]}")
        for name, s in metrics.items():
            if args.trace and not name.startswith("trace.") and not name.endswith("calls"):
                continue
            bound = s["bound"]
            flag = "" if bound is None else ("ok" if s["spread"] < bound / 3 else "WIDE")
            print(f"  {name:40s} {s['median']:14.6g} {s['unit']:6s} spread {s['spread']:7.2%}"
                  f"  bound {bound if bound is not None else '-'} {flag}")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[f"trace{args.trace}"] = summary
        args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
