"""Record perfbench/golden.json: the fixed input pools and the outputs the
benchmark's correctness gates expect for them.

    python3 perfbench/record_golden.py

Run it at the commit whose outputs are the reference.  The pools are generated
here from ``POOL_SEED`` and stored in the file, so runs never regenerate them.
A run's ``--seed`` picks order, relabellings and decomposition seeds on top.
"""

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from plmonoid import formats, spectral, verify  # noqa: E402
from plmonoid.core import Plm  # noqa: E402
from plmbench.workloads import GOLDEN_PATH, Cli, digest  # noqa: E402

POOL_SEED = 2403
SPECTRA_DIMS = (16, 20, 24, 28, 32, 36, 40)
BASES_PER_KIND = 5
# Permutations whose period (the lcm of the cycle lengths) is large.  The first
# is ROADMAP item 2's defect: eigen_check raises RootFindingError on it.
LCM_CYCLE_TYPES = (
    (5, 7, 8, 9, 11),
    (7, 9, 11, 13),
    (4, 5, 7, 9, 11),
    (5, 7, 9, 11),
    (2, 3, 5, 7, 11),
    (3, 4, 5, 7),
)
CLI_DIMS = ("64", "256")
CLI_POOL = 8
EIGEN_DIMS = (22, 23, 24, 25, 26, 24, 23, 25)
DECOMPOSE_DIMS = (8, 9, 10, 11, 12, 8, 10, 12)


def random_map(rng, d):
    return tuple(rng.randint(1, d) for _ in range(d))


def random_perm(rng, d):
    images = list(range(1, d + 1))
    rng.shuffle(images)
    return tuple(images)


def cycles_perm(lengths, rng=None):
    """A permutation with the given cycle lengths; shuffled points if rng."""
    d = sum(lengths)
    points = list(range(1, d + 1))
    if rng is not None:
        rng.shuffle(points)
    images = [0] * d
    start = 0
    for n in lengths:
        cyc = points[start:start + n]
        for k, p in enumerate(cyc):
            images[p - 1] = cyc[(k + 1) % n]
        start += n
    return tuple(images)


def small_cycles_perm(rng, d):
    """A permutation with cycles of length at most 6, so its period is small."""
    lengths = []
    while sum(lengths) < d:
        lengths.append(min(rng.randint(1, 6), d - sum(lengths)))
    return cycles_perm(lengths, rng)


def stochastic_rows(rng, d, max_denominator=1000):
    """Rows of a random left stochastic matrix as ``p/q`` strings."""
    cols = []
    for _ in range(d):
        q = rng.randint(1, max_denominator)
        cuts = sorted(rng.randint(0, q) for _ in range(d - 1))
        bounds = [0, *cuts, q]
        cols.append([str(Fraction(bounds[k + 1] - bounds[k], q)) for k in range(d)])
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def spectra_record(a) -> dict:
    cyc = spectral.power_cycle(a)
    cp = spectral.char_poly(a)
    return {
        "tail": cyc.tail,
        "period": cyc.period,
        "verdict": spectral.periodicity(a).to_json_dict(),
        "coefficients": list(cp.coefficients),
        "has_zero": cp.coefficients[-1] == 0,
    }


def record_spectra(rng) -> dict:
    small = {}
    for d in (2, 3, 4, 5):
        plms = verify.enumerate_plms(d)
        # The benchmark enumerates in the same order with itertools.product.
        assert [p.colmap for p in plms] == list(itertools.product(range(1, d + 1), repeat=d))
        small[str(d)] = [digest(spectra_record(a)) for a in plms]
    pool = []
    for d in SPECTRA_DIMS:
        for i in range(BASES_PER_KIND):
            pool.append((f"map-{d}-{i}", "map", random_map(rng, d)))
        for i in range(BASES_PER_KIND):
            pool.append((f"perm-{d}-{i}", "perm", random_perm(rng, d)))
    per_dim: dict[int, int] = {}
    for lengths in LCM_CYCLE_TYPES:
        d = sum(lengths)
        i = per_dim.get(d, 0)
        per_dim[d] = i + 1
        pool.append((f"lcm-{d}-{i}", "lcm", cycles_perm(lengths)))
    bases = []
    for base_id, kind, cm in pool:
        a = Plm(cm)
        bases.append({"id": base_id, "kind": kind, "colmap": list(cm),
                      "digest": digest(spectra_record(a))})
    return {"small": small, "bases": bases}


def record_cli(rng) -> dict:
    plms, stoch, commands = {}, {}, {}
    for tag in CLI_DIMS:
        d = int(tag)
        for i in range(CLI_POOL):
            make = small_cycles_perm if i == CLI_POOL - 1 else random_map
            plms[f"p{tag}-{i}"] = list(make(rng, d))
        for i in range(CLI_POOL):
            a, b = f"p{tag}-{i}", f"p{tag}-{(i + 1) % CLI_POOL}"
            commands[f"mul {a} {b}"] = {"command": "mul", "tag": tag}
            commands[f"classify {a}"] = {"command": "classify", "tag": tag}
            commands[f"period {a}"] = {"command": "period", "tag": tag}
    for i, d in enumerate(EIGEN_DIMS):
        plms[f"e{d}-{i}"] = list(random_map(rng, d))
        commands[f"eigen e{d}-{i}"] = {"command": "eigen", "tag": ""}
    for i, d in enumerate(DECOMPOSE_DIMS):
        stoch[f"s{d}-{i}"] = stochastic_rows(rng, d)
        commands[f"decompose s{d}-{i} --check"] = {"command": "decompose", "tag": ""}
    commands["verify mul 3"] = {"command": "verify", "tag": ""}
    section = {"plms": plms, "stochastic": stoch, "commands": commands}

    # Run every command once (the trace composition holds one of each).
    runner = Cli(0, "trace", {"cli": section})
    try:
        for case in runner.cases:
            code, stdout = runner.run(case)
            entry = commands[case.key]
            entry["exit"] = code
            entry["stdout"] = Cli.stdout_digest(entry["command"], stdout)
    finally:
        runner.close()
    return section


def record_mul() -> dict:
    out = {}
    for d in (2, 3, 4):
        report = verify.sweep_multiplication(d)
        assert report.passed, f"multiplication sweep fails at d={d}"
        out[str(d)] = hashlib.sha256(
            formats.dumps_report(report.to_json_dict(stable=True)).encode()
        ).hexdigest()
    return out


def main() -> int:
    rng = random.Random(POOL_SEED)
    golden = {
        "mul_sweep": record_mul(),
        "spectra": record_spectra(rng),
        "cli": record_cli(rng),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
