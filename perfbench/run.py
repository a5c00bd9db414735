"""Benchmark entry point for plmonoid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the checkout's
``src`` directory; without it the run fails with exit code 2.  The last line
of stdout is the result object; the line before it records the environment.
See perfbench/README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    if not (SRC / "plmonoid" / "__init__.py").is_file():
        print(f"error: no plmonoid package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from plmbench.harness import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
