"""Command-line interface.

Exit codes: 0 success (and passing sweeps), 1 sweep or check failure, or a
reader that closed stdout early (a broken pipe, reported silently), 2 parse
or flag error (input that is not UTF-8 is a parse error), or output that
cannot be written (an ``--out`` path, or an exact value past Python's
int-digit limit), 3 dimension mismatch, 4 stochastic validation failure.  A
flag error is an :class:`InvalidArgumentError` raised by the library's own
argument checks or by a command, and ``main`` alone turns it into
``error: ...`` and exit 2.  All JSON output has sorted keys; verify reports
are byte-stable across runs, with measured time going to stderr instead of
the report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .core import classify, multiply
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    MatrixParseError,
    NotLeftStochasticError,
    PlmError,
    RootFindingError,
)
from .formats import (
    dumps_compact,
    dumps_report,
    parse_plm_text,
    parse_stochastic_text,
    plm_to_colmap_line,
    plm_to_text,
)
from .spectral import DEFAULT_TOL, check_tol, eigen_check, periodicity
from .stochastic import check_decomposition, decompose
from .verify import (
    _plms,
    check_sweep_args,
    sweep_decompose,
    sweep_eigen,
    sweep_multiplication,
    sweep_period,
    sweep_prerow,
)

MAX_PLAIN_ENUMERATE = 8


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixParseError(path, None, f"cannot read file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise MatrixParseError(path, None, f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def _load_plm(path: str):
    return parse_plm_text(_read(path), path)


def _load_stochastic(path: str):
    return parse_stochastic_text(_read(path), path)


def _write(path: str, chunks) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise PlmError(f"cannot write {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None):
    if out:
        _write(out, [text])
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        return p

    p = add("mul", "multiply two PLM files")
    p.add_argument("a")
    p.add_argument("b")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON only")
    fmt.add_argument("--text", action="store_true", help="dense text only")

    p = add("classify", "structural class of a PLM file")
    p.add_argument("matrix")

    p = add("period", "periodicity verdict of a PLM file")
    p.add_argument("matrix")

    p = add("eigen", "eigenvalue report of a PLM file")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("decompose", "decompose a left stochastic matrix file into PLMs")
    p.add_argument("matrix")
    p.add_argument(
        "--check", action="store_true", help="re-verify the decomposition from its terms first"
    )

    p = add("enumerate", "list all PLMs of a dimension as column-map lines")
    p.add_argument("d", type=int)
    p.add_argument("--force", action="store_true", help="allow d above 8")

    p = add("verify", "run a verification sweep")
    p.add_argument("sweep", choices=[*SWEEPS, "all"])
    p.add_argument("d", type=int)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="split each sweep over N chunks, one process each; N above the CPU count"
        " is cut to it; the report does not depend on N",
    )
    return parser


def cmd_mul(args) -> int:
    product = multiply(_load_plm(args.a), _load_plm(args.b))
    blob = {
        "dim": product.dim,
        "colmap": list(product.colmap),
        "classification": classify(product).to_json_dict(),
    }
    if args.json:
        _emit(dumps_compact(blob), args.out)
    elif args.text:
        _emit(plm_to_text(product), args.out)
    else:
        _emit(plm_to_text(product) + dumps_compact(blob), args.out)
    return 0


def cmd_classify(args) -> int:
    verdict = classify(_load_plm(args.matrix))
    _emit(dumps_compact(verdict.to_json_dict()), args.out)
    return 0


def cmd_period(args) -> int:
    verdict = periodicity(_load_plm(args.matrix))
    _emit(dumps_compact(verdict.to_json_dict()), args.out)
    return 0


def cmd_eigen(args) -> int:
    check_tol(args.tol, "--tol")
    report = eigen_check(_load_plm(args.matrix), tol=args.tol)
    _emit(dumps_compact(report.to_json_dict()), args.out)
    return 0


def cmd_decompose(args) -> int:
    m = _load_stochastic(args.matrix)
    dec = decompose(m)
    if args.check:
        problems = check_decomposition(m, dec)
        for problem in problems:
            print(f"error: decomposition check failed: {problem}", file=sys.stderr)
        if problems:
            return 1
    _emit(dumps_report(dec.to_json_dict()), args.out)
    return 0


def cmd_enumerate(args) -> int:
    check_sweep_args(args.d)
    if args.d > MAX_PLAIN_ENUMERATE and not args.force:
        raise InvalidArgumentError(
            f"d={args.d} means {args.d}**{args.d} lines; pass --force to insist"
        )
    lines = (plm_to_colmap_line(a) + "\n" for a in _plms(args.d))
    if args.out:
        _write(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    return 0


# Sweep name -> run it from the parsed arguments; ``all`` runs them in this order.
SWEEPS = {
    "mul": lambda args: sweep_multiplication(args.d, workers=args.workers),
    "period": lambda args: sweep_period(args.d, workers=args.workers),
    "eigen": lambda args: sweep_eigen(args.d, tol=args.tol, workers=args.workers),
    "prerow": lambda args: sweep_prerow(args.d, workers=args.workers),
    "decompose": lambda args: sweep_decompose(
        args.d, n_cases=args.cases, seed=args.seed, workers=args.workers
    ),
}


def cmd_verify(args) -> int:
    check_tol(args.tol, "--tol")
    check_sweep_args(args.d, args.cases, args.workers)
    names = list(SWEEPS) if args.sweep == "all" else [args.sweep]
    reports = [SWEEPS[name](args) for name in names]
    for report in reports:
        print(f"{report.sweep}: {report.elapsed_ms} ms", file=sys.stderr)
    if len(reports) == 1:
        payload = reports[0].to_json_dict(stable=True)
    else:
        payload = {
            "d": args.d,
            "reports": {r.sweep: r.to_json_dict(stable=True) for r in reports},
        }
    _emit(dumps_report(payload), args.out)
    return 0 if all(r.passed for r in reports) else 1


COMMANDS = {
    "mul": cmd_mul,
    "classify": cmd_classify,
    "period": cmd_period,
    "eigen": cmd_eigen,
    "decompose": cmd_decompose,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to ``main``, not at import, and shared by every
    # later call in the process: parsing keeps no state in the parser, and
    # argparse looks up ``sys.stdout`` and ``sys.stderr`` only when it prints.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone (``plm enumerate 9 --force | head``).  Point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatchError as exc:
        print(f"error: dimension mismatch: {exc}", file=sys.stderr)
        return 3
    except NotLeftStochasticError as exc:
        print(f"error: not left stochastic: {exc}", file=sys.stderr)
        return 4
    except RootFindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PlmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
