"""Plain-text and JSON formats.

Matrix files: the first line holds the dimension d, followed by d lines of d
whitespace-separated entries.  PLM readers also accept the one-line column-map
form ``plm d: i1 i2 ... id``.  Stochastic entries may be written ``p/q``, as
integers, or as decimals; decimals parse exactly (0.1 means 1/10), and one
whose numerator or denominator would pass Python's int-digit limit
(``1e-5000``) is a parse error.  Writers emit the dense form.

The dense PLM reader and writer work on the column map, never on a d x d grid
of ints.  Text exactly as the writer writes it, the dimension line and then d
rows of d characters ``0`` or ``1`` between single spaces, each ending in a
newline, is checked as one block by C-level ``str`` slices and counts, and its
ones are found with ``str.find``, in O(d + ones) Python steps with no split.
Any other text is split into stripped lines, each row once into tokens, and
its tokens other than ``"0"`` go to ``int``; any token ``int`` accepts reads
as that integer (``00``, ``+0`` and ``٠`` are zeros, ``01`` and ``+1`` are
ones, ``1_0`` is ten).  Both paths end in the column check ``from_dense``
uses.  The writer fills one buffer with ``0`` cells, sets one ``1`` per column
and decodes it once.

JSON is written with sorted keys and a final newline, on one line or, for
reports, indented.  An indent makes ``json.dumps`` take its pure-Python
encoder, so reports are written by a small recursive writer of C-level
pieces whose bytes are ``json.dumps(obj, sort_keys=True, indent=2)``'s, about
twice as fast on a decomposition report.  Both writers share one guard:
an int with more digits than ``sys.get_int_max_str_digits()`` allows (a
period can pass 4,300 digits for d in the millions) raises
:class:`PlmError` naming the limit, which the ``plm`` command turns into
exit 2, in place of json's ``ValueError``.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring_ascii as _quote

from .core import Plm, _plm_of_nonzeros, _require_ints
from .errors import MatrixParseError, NotPlmError
from .stochastic import Decomposition, StochasticMatrix, _fraction, _text, _too_long


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
    _require_count(path, n, d, len(lines) - 1, "matrix rows")
    return d, lines[1:]


def _require_count(path, n, d: int, found: int, what: str = "entries") -> None:
    # The one home of the rule that line n holds d entries (or the file d rows).
    if found != d:
        raise MatrixParseError(path, n, f"expected {d} {what}, found {found}")


def _writer_form_nonzeros(text: str) -> tuple[int, list] | None:
    """``(d, rows)`` for text exactly as ``plm_to_text`` writes it, with each
    row the ``(column, 1)`` pairs of its ones; None for any other text.

    C-level ``str`` methods check the body and find its ones in place: the
    one copy is the d * d cells, so the Python steps are O(d + ones), not
    O(d * d)."""
    nl = text.find("\n")
    # A header of more than nine digits would need a body of over 10**18
    # characters; bounding it also keeps ``int`` off very long strings.
    if not 0 < nl < 10:
        return None
    head = text[:nl]
    if not (head.isascii() and head.isdigit()) or head[0] == "0":
        return None
    start = nl + 1
    d = int(head)
    step = 2 * d
    if len(text) - start != step * d:
        return None
    cells = text[start::2]
    ones = cells.count("1")
    # Cells all 0/1, every row end a newline, and d * (d - 1) spaces: these
    # leave the spaces no slot but the d * (d - 1) separators within rows.
    if (
        cells.count("0") + ones != d * d
        or text[start + step - 1 :: step].count("\n") != d
        or text.count(" ", start) != d * (d - 1)
    ):
        return None
    rows = [[] for _ in range(d)]
    k = -1
    for _ in range(ones):
        k = cells.find("1", k + 1)
        i, j = divmod(k, d)
        rows[i].append((j, 1))
    return d, rows


def _parse_colmap_line(path, lines) -> Plm:
    if len(lines) != 1:
        raise MatrixParseError(path, lines[1][0], "extra content after column-map line")
    n, line = lines[0]
    head, _, tail = line.partition(":")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "plm" or not tail.strip():
        raise MatrixParseError(path, n, f"malformed column-map line {line!r}")
    try:
        d = int(parts[1])
        colmap = tuple(int(tok) for tok in tail.split())
    except ValueError:
        raise MatrixParseError(path, n, f"malformed column-map line {line!r}") from None
    if d < 1:
        raise MatrixParseError(path, n, f"dimension must be >= 1, got {d}")
    _require_count(path, n, d, len(colmap))
    try:
        return Plm(colmap)
    except ValueError as exc:
        raise MatrixParseError(path, n, str(exc)) from None


def parse_plm_text(text: str, path: str = "<input>") -> Plm:
    """Read a PLM from dense or column-map text."""
    block = _writer_form_nonzeros(text)
    if block is not None:
        d, nonzeros = block
    else:
        lines = _numbered_lines(text)
        if lines and lines[0][1].startswith("plm"):
            return _parse_colmap_line(path, lines)
        d, rows = _parse_dim(path, lines)
        nonzeros = []
        for n, line in rows:
            toks = line.split()
            try:
                nonzeros.append([(j, int(t)) for j, t in enumerate(toks) if t != "0"])
            except ValueError:
                raise MatrixParseError(path, n, f"non-integer entry in {line!r}") from None
            _require_count(path, n, d, len(toks))
    try:
        return _plm_of_nonzeros(d, nonzeros)
    except NotPlmError as exc:
        raise MatrixParseError(path, None, str(exc)) from None


def plm_to_text(a: Plm) -> str:
    d = a.dim
    step = 2 * d
    buf = bytearray(b"0 ") * (d * d)
    buf[step - 1 :: step] = b"\n" * d
    one = ord("1")
    for j, r in enumerate(a.colmap):
        buf[(r - 1) * step + 2 * j] = one
    buf[:0] = b"%d\n" % d
    return buf.decode("ascii")


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
                entries.append(_fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise MatrixParseError(path, n, f"cannot parse entry {tok!r}") from None
        _require_count(path, n, d, len(entries))
        grid.append(entries)
    return StochasticMatrix(tuple(tuple(row) for row in grid))


def stochastic_to_text(m: StochasticMatrix) -> str:
    """The text :func:`parse_stochastic_text` reads back.  Raises
    :class:`PlmError` naming the entry when a value has more digits than
    ``sys.get_int_max_str_digits()`` allows."""
    lines = [str(m.dim)] + [
        " ".join(_text(x, f"the entry at row {i}, column {j}") for j, x in enumerate(row, 1))
        for i, row in enumerate(m.entries, 1)
    ]
    return "\n".join(lines) + "\n"


def _json_field(obj, key: str, where: str, kind: type = object):
    # obj[key], refused with ValueError naming ``where`` and the field unless
    # obj is a dict that holds a value of type ``kind`` under key.
    if not isinstance(obj, dict):
        problem = f"not a JSON object (type {type(obj).__name__})"
    elif key not in obj:
        problem = f"no {key!r} field"
    elif not isinstance(obj[key], kind):
        problem = f"field {key!r} is not a {kind.__name__} (type {type(obj[key]).__name__})"
    else:
        return obj[key]
    raise ValueError(f"{where}: {problem}")


def decomposition_from_json_dict(obj: dict) -> Decomposition:
    """Read a decomposition back from its JSON object.  Weights and ``dim``
    must be exact: a JSON float or boolean is refused.  A missing or
    malformed field raises ``ValueError`` naming it and, inside a term, the
    term's number."""
    d = _json_field(obj, "dim", "decomposition")
    _require_ints(dim=d)
    terms = []
    for n, term in enumerate(_json_field(obj, "terms", "decomposition", list), start=1):
        where = f"term {n}"
        lam = _json_field(term, "lambda", where)
        colmap = _json_field(term, "colmap", where, list)
        try:
            terms.append((lam, Plm(tuple(colmap))))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    dec = Decomposition(terms)
    if dec.dim != d:
        raise ValueError(f"declared dim {d} but terms have dim {dec.dim}")
    return dec


_compact = partial(json.dumps, sort_keys=True)


def _indented(obj, nl: str = "\n") -> str:
    # obj as json.dumps(obj, sort_keys=True, indent=2) writes it, for obj
    # written after the newline and indent nl.  It takes the same types in
    # the same order and writes each scalar with the same C-level function,
    # encode_basestring_ascii or int.__repr__, or for a float json's C
    # encoder (float.__repr__, or NaN and the infinities by name), so the
    # bytes are json's; a list of plain ints is written by one join.
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _compact(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_indented(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_key(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(k) -> str:
    # A dict key as json writes it: a str quoted, a scalar written as a
    # value would be and then quoted.
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _indented(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _dumps(write, obj) -> str:
    # write(obj) and a final newline.  Both writers write an int with
    # int.__repr__, which raises ValueError past sys.get_int_max_str_digits().
    # Only that error, told apart by its message, becomes PlmError; any
    # other, such as json's "Circular reference detected", leaves as raised.
    try:
        return write(obj) + "\n"
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise _too_long("an int in the report") from None


def dumps_compact(obj) -> str:
    """One-line JSON with sorted keys, newline-terminated."""
    return _dumps(_compact, obj)


def dumps_report(obj) -> str:
    """Indented JSON with sorted keys, newline-terminated; byte-stable.  The
    bytes are ``json.dumps(obj, sort_keys=True, indent=2)``'s and a newline,
    written without json's pure-Python encoder, which ``indent`` selects.
    The writer keeps no record of the containers it is inside, so a value
    that contains itself raises ``RecursionError``, not json's
    ``ValueError``."""
    return _dumps(_indented, obj)
