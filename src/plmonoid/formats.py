"""Plain-text and JSON formats.

Matrix files: the first line holds the dimension d, followed by d lines of d
whitespace-separated entries.  PLM readers also accept the one-line column-map
form ``plm d: i1 i2 ... id``.  Stochastic entries may be written ``p/q``, as
integers, or as decimals; decimals parse exactly (0.1 means 1/10).  Writers
emit the dense form.

The dense PLM reader and writer work on the column map, never on a d x d grid
of ints.  A row as the writer writes it, d characters ``0`` or ``1`` between
single spaces, is checked and has its ones found by C-level ``str`` methods,
in O(ones) Python steps and without splitting it.  Any other row is split once
and its tokens other than ``"0"`` go to ``int``; any token ``int`` accepts
reads as that integer (``00``, ``+0`` and ``٠`` are zeros, ``01`` and ``+1``
are ones, ``1_0`` is ten).  The column check is the one ``from_dense`` uses.
The writer sets one ``"1"`` per column in rows of ``"0"``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import Plm, _plm_of_nonzeros, _require_ints
from .errors import MatrixParseError, NotPlmError
from .stochastic import Decomposition, StochasticMatrix


def _numbered_lines(text: str):
    stripped = ((n, line.strip()) for n, line in enumerate(text.splitlines(), start=1))
    return [(n, line) for n, line in stripped if line]


def _parse_dim(path, lines):
    if not lines:
        raise MatrixParseError(path, None, "empty input")
    n, head = lines[0]
    try:
        d = int(head)
    except ValueError:
        raise MatrixParseError(path, n, f"expected a dimension, got {head!r}") from None
    if d < 1:
        raise MatrixParseError(path, n, f"dimension must be >= 1, got {d}")
    if len(lines) - 1 != d:
        raise MatrixParseError(path, n, f"expected {d} matrix rows, found {len(lines) - 1}")
    return d, lines[1:]


def _plain_row(line: str, d: int) -> list[tuple[int, int]] | None:
    """The ``(column, 1)`` pairs of a row written as ``plm_to_text`` writes
    it, d characters ``0`` or ``1`` between single spaces; None for any other
    row.  C-level ``str`` methods check the row and find its ones, so the
    Python steps are O(ones), not O(d)."""
    if len(line) != 2 * d - 1 or line.count(" ") != d - 1:
        return None
    cells = line[::2]
    ones = cells.count("1")
    if cells.count("0") + ones != d:
        return None
    pairs = []
    j = -1
    for _ in range(ones):
        j = cells.find("1", j + 1)
        pairs.append((j, 1))
    return pairs


def parse_plm_text(text: str, path: str = "<input>") -> Plm:
    """Read a PLM from dense or column-map text."""
    lines = _numbered_lines(text)
    if lines and lines[0][1].startswith("plm"):
        if len(lines) != 1:
            raise MatrixParseError(path, lines[1][0], "extra content after column-map line")
        n, line = lines[0]
        head, _, tail = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or not tail.strip():
            raise MatrixParseError(path, n, f"malformed column-map line {line!r}")
        try:
            d = int(parts[1])
            colmap = tuple(int(tok) for tok in tail.split())
        except ValueError:
            raise MatrixParseError(path, n, f"malformed column-map line {line!r}") from None
        if len(colmap) != d:
            raise MatrixParseError(path, n, f"expected {d} entries, found {len(colmap)}")
        try:
            return Plm(colmap)
        except ValueError as exc:
            raise MatrixParseError(path, n, str(exc)) from None

    d, rows = _parse_dim(path, lines)
    nonzeros = []
    for n, line in rows:
        pairs = _plain_row(line, d)
        if pairs is None:
            toks = line.split()
            try:
                pairs = [(j, int(t)) for j, t in enumerate(toks) if t != "0"]
            except ValueError:
                raise MatrixParseError(path, n, f"non-integer entry in {line!r}") from None
            if len(toks) != d:
                raise MatrixParseError(path, n, f"expected {d} entries, found {len(toks)}")
        nonzeros.append(pairs)
    try:
        return _plm_of_nonzeros(d, nonzeros)
    except NotPlmError as exc:
        raise MatrixParseError(path, None, str(exc)) from None


def plm_to_text(a: Plm) -> str:
    d = a.dim
    rows = [["0"] * d for _ in range(d)]
    for j, r in enumerate(a.colmap):
        rows[r - 1][j] = "1"
    return "\n".join([str(d)] + [" ".join(row) for row in rows]) + "\n"


def plm_to_colmap_line(a: Plm) -> str:
    return f"plm {a.dim}: " + " ".join(str(r) for r in a.colmap)


def parse_stochastic_text(text: str, path: str = "<input>") -> StochasticMatrix:
    """Read a stochastic-matrix candidate; values parse exactly.

    Negative entries surface as stochastic-validation errors from the matrix
    constructor, not as parse errors.
    """
    d, rows = _parse_dim(path, _numbered_lines(text))
    grid = []
    for n, line in rows:
        entries = []
        for tok in line.split():
            try:
                entries.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise MatrixParseError(path, n, f"cannot parse entry {tok!r}") from None
        if len(entries) != d:
            raise MatrixParseError(path, n, f"expected {d} entries, found {len(entries)}")
        grid.append(entries)
    return StochasticMatrix(tuple(tuple(row) for row in grid))


def stochastic_to_text(m: StochasticMatrix) -> str:
    lines = [str(m.dim)] + [" ".join(str(x) for x in row) for row in m.entries]
    return "\n".join(lines) + "\n"


def decomposition_from_json_dict(obj: dict) -> Decomposition:
    """Read a decomposition back from its JSON object.  Weights and ``dim``
    must be exact: a JSON float or boolean is refused."""
    d = obj["dim"]
    _require_ints(dim=d)
    terms = tuple((term["lambda"], Plm(tuple(term["colmap"]))) for term in obj["terms"])
    dec = Decomposition(terms)
    if dec.dim != d:
        raise ValueError(f"declared dim {d} but terms have dim {dec.dim}")
    return dec


def dumps_compact(obj) -> str:
    """One-line JSON with sorted keys, newline-terminated."""
    return json.dumps(obj, sort_keys=True) + "\n"


def dumps_report(obj) -> str:
    """Indented JSON with sorted keys, newline-terminated; byte-stable."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
