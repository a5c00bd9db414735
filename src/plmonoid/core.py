"""Permutation-like matrices and their structural multiplication.

A permutation-like matrix (PLM) is a square 0/1 matrix with exactly one 1 in
every column.  A d x d PLM is stored as its column map: ``colmap[j-1]`` is the
row index (1-based) of the single 1 in column j.  There are d^d such matrices
and they form a monoid under matrix multiplication; the product corresponds to
composing column maps.  Permutation matrices are exactly the invertible
elements.

Vocabulary used throughout the package:

* row PLM ``R_m``: every column has its 1 in row m (constant column map).
  Row PLMs absorb from the left: ``R_m * A == R_m`` for every A.
* canonical PLM (CPLM): the first row is zero in columns 2..d.  A CPLM is
  "leading" when its (1,1) entry is 1.  Dropping row 1 and column 1 of a CPLM
  leaves a PLM of dimension d-1, its permutation-like component (PLC).
* pseudo-canonical PLM (PCPLM): some column permutation of it is a CPLM.
* incomplete PLM (IPLM): the first row holds more than one 1 but fewer than d.

All public indices (rows, columns, permutation points) are 1-based; only the
internal tuple positions are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvalidArgumentError, NotCplmError, NotPlmError


def _require_ints(**values) -> None:
    # bool and float values compare equal to ints, so they would pass a range
    # check and return a result, or fail later with an unrelated error.
    for name, x in values.items():
        if type(x) is not int:
            raise InvalidArgumentError(f"{name} must be an int, not {x!r}")


def _require_dim(d) -> None:
    # The one home of the dimension rule for arguments.
    _require_ints(d=d)
    if d < 1:
        raise InvalidArgumentError(f"dimension {d} must be >= 1")


def _require_same_dim(m: int, n: int, what: str = "dims") -> None:
    # The one home of the rule that operands share a dimension.
    if m != n:
        raise DimensionMismatchError(f"{what} {m} != {n}")


def _require_square(rows) -> int:
    # The one home of the shape rule for a grid of entries: some rows, each
    # as long as there are rows.  Returns that count, d.
    d = len(rows)
    if d == 0:
        raise ValueError("empty matrix")
    for i, row in enumerate(rows, start=1):
        if len(row) != d:
            raise ValueError(f"not square: {d} rows but row {i} has {len(row)} entries")
    return d


def _trusted(cls, **fields):
    # Validation happens once, at the boundary.  Public constructors and the
    # functions that take raw caller data validate; a value the library builds
    # from values it has already validated skips __post_init__ and is built
    # here, so each field must already be what the constructor would store
    # (tuples, not lists).  Plm has its own copy, _plm_trusted, without the
    # keyword loop, because every product builds one: it writes Plm's slot
    # through the slot's setter.
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _json_fields(verdict) -> dict:
    # Every field but ``kind`` that the verdict's factory set, so the
    # factories stay the one home of which fields a kind has; a permutation
    # is written as its images.
    return {
        name: list(value.images) if isinstance(value, Permutation) else value
        for name, value in vars(verdict).items()
        if name != "kind" and value is not None
    }


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., d}, stored as the tuple of images.

    ``images[i-1]`` is where point i goes.  Composition follows function
    composition: ``(sigma * tau)(i) == sigma(tau(i))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        _require_dim(len(images))
        if any(type(v) is not int for v in images):
            raise ValueError(f"permutation images must be ints: {images!r}")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")

    @property
    def dim(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        _require_dim(d)
        return _trusted(cls, images=tuple(range(1, d + 1)))

    @classmethod
    def transposition(cls, d: int, i: int, j: int) -> "Permutation":
        """The permutation of {1..d} swapping i and j."""
        _require_dim(d)
        _require_ints(i=i, j=j)
        if not (1 <= i <= d and 1 <= j <= d):
            raise InvalidArgumentError(f"points {i}, {j} out of range 1..{d}")
        images = list(range(1, d + 1))
        images[i - 1], images[j - 1] = j, i
        return _trusted(cls, images=tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose: apply ``other`` first, then ``self``."""
        _require_same_dim(self.dim, other.dim, "permutation dims")
        return _trusted(Permutation, images=tuple([self.images[k - 1] for k in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.dim
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return _trusted(Permutation, images=tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


@dataclass(frozen=True)
class DenseBinaryMatrix:
    """Square 0/1 matrix as a tuple of row tuples.  No per-column constraint.

    Each entry must be the int 0 or 1: a bool or a float such as ``1.0``
    equals one of them but is refused with ``ValueError``.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        _require_square(rows)
        for row in rows:
            for x in row:
                if type(x) is not int or x not in (0, 1):
                    raise ValueError(f"entry {x!r} is not the int 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class Plm:
    """A permutation-like matrix, stored by its column map (1-based rows).

    The one field lives in a slot, so an instance has no ``__dict__``.
    """

    colmap: tuple[int, ...]

    def __post_init__(self):
        cm = tuple(self.colmap)
        object.__setattr__(self, "colmap", cm)
        d = len(cm)
        if d == 0:
            raise ValueError("empty column map")
        for j, r in enumerate(cm, start=1):
            if type(r) is not int:
                raise ValueError(f"column {j} maps to {r!r}, which is not an int")
            if not 1 <= r <= d:
                raise ValueError(f"column {j} maps to row {r!r}, outside 1..{d}")

    @property
    def dim(self) -> int:
        return len(self.colmap)

    def __mul__(self, other: "Plm") -> "Plm":
        return multiply(self, other)


# The slot's own setter, which frozenness leaves in place: object.__setattr__
# reaches the same setter only after looking the name up.
_set_colmap = Plm.__dict__["colmap"].__set__


def _plm_trusted(cm: tuple[int, ...]) -> Plm:
    # _trusted for Plm, written out: see there.  The field goes straight into
    # its slot through the slot's setter, bound once above.
    a = object.__new__(Plm)
    _set_colmap(a, cm)
    return a


@dataclass(frozen=True)
class PlmClass:
    """Classification verdict: exactly one of rowplm / cplm / pcplm / iplm.

    ``m`` is set for row PLMs, ``leading`` for CPLMs, and ``tau`` is a column
    permutation witnessing pseudo-canonicity (``permute_columns(tau, a)`` is a
    CPLM) for PCPLMs.
    """

    kind: str
    m: int | None = None
    leading: bool | None = None
    tau: Permutation | None = None

    @classmethod
    def row(cls, m: int) -> "PlmClass":
        return cls(kind="rowplm", m=m)

    @classmethod
    def cplm(cls, leading: bool) -> "PlmClass":
        return cls(kind="cplm", leading=leading)

    @classmethod
    def pcplm(cls, tau: Permutation) -> "PlmClass":
        return cls(kind="pcplm", tau=tau)

    @classmethod
    def iplm(cls) -> "PlmClass":
        return cls(kind="iplm")

    def to_json_dict(self) -> dict:
        return {"class": self.kind, **_json_fields(self)}


@dataclass(frozen=True)
class CplmParts:
    """Block decomposition of a CPLM.

    ``leading`` is the (1,1) entry as 0/1, ``v`` holds rows 2..d of column 1,
    and ``plc`` is the (d-1)-dimensional PLM left after deleting row 1 and
    column 1.  Raises ``ValueError`` unless ``leading`` is the int 0 or 1,
    ``plc`` a :class:`Plm` and ``v`` ``plc.dim`` ints, each 0 or 1, and
    column 1 (``leading`` over ``v``) holds exactly one 1.
    """

    leading: int
    v: tuple[int, ...]
    plc: Plm

    def __post_init__(self):
        v = tuple(self.v)
        object.__setattr__(self, "v", v)
        if type(self.leading) is not int or self.leading not in (0, 1):
            raise ValueError(f"leading entry {self.leading!r} is not the int 0 or 1")
        if not isinstance(self.plc, Plm):
            raise ValueError(f"plc {self.plc!r} is not a Plm")
        if len(v) != self.plc.dim or any(type(x) is not int or x not in (0, 1) for x in v):
            raise ValueError(f"v {v!r} is not {self.plc.dim} ints, each 0 or 1")
        ones = self.leading + sum(v)
        if ones != 1:
            raise ValueError(f"column 1 holds {ones} ones, not exactly one")

    def assemble(self) -> Plm:
        """Rebuild the full CPLM from its parts."""
        if self.leading:
            first = 1
        else:
            first = self.v.index(1) + 2
        return _plm_trusted((first,) + tuple(r + 1 for r in self.plc.colmap))


def identity(d: int) -> Plm:
    _require_dim(d)
    return _plm_trusted(tuple(range(1, d + 1)))


def row_plm(d: int, m: int) -> Plm:
    """The matrix R_m whose every column has its 1 in row m."""
    _require_dim(d)
    _require_ints(m=m)
    if not 1 <= m <= d:
        raise InvalidArgumentError(f"row {m} out of range 1..{d}")
    return _plm_trusted((m,) * d)


def from_dense(m) -> Plm:
    """Read a PLM off a dense square matrix.

    Accepts a :class:`DenseBinaryMatrix` or any nested sequence of ints.
    Raises ``ValueError`` when the grid is empty or not square, and
    :class:`NotPlmError` when an entry is not 0/1 or a column does not hold
    exactly one 1.
    """
    rows = m.entries if isinstance(m, DenseBinaryMatrix) else tuple(tuple(r) for r in m)
    d = _require_square(rows)
    nonzeros = [[(j, x) for j, x in enumerate(row) if x != 0] for row in rows]
    return _plm_of_nonzeros(d, nonzeros)


def _plm_of_nonzeros(d: int, rows) -> Plm:
    """The PLM of a d x d matrix given, row by row from the top, the
    ``(column, entry)`` pairs of its nonzero entries (columns 0-based).

    Raises :class:`NotPlmError` for the first bad column in column-major
    order: its topmost entry that is not 0 or 1, else its count of ones.
    Entries equal to 0 are skipped, so callers may pass them.
    """
    colmap = [0] * d
    ones = [0] * d
    bad: dict[int, tuple[int, object]] = {}
    for i, pairs in enumerate(rows, start=1):
        for j, x in pairs:
            if x == 1:
                colmap[j] = i
                ones[j] += 1
            elif x != 0 and j not in bad:
                bad[j] = (i, x)
    if bad or ones.count(1) != d:
        for j in range(d):
            if j in bad:
                i, x = bad[j]
                raise NotPlmError(
                    f"entry {x!r} at row {i}, column {j + 1} is not 0 or 1", column=j + 1
                )
            if ones[j] != 1:
                raise NotPlmError(f"column {j + 1} has {ones[j]} ones", column=j + 1, count=ones[j])
    return _plm_trusted(tuple(colmap))


def to_dense(a: Plm) -> DenseBinaryMatrix:
    d = a.dim
    rows = tuple(tuple(1 if a.colmap[j] == i else 0 for j in range(d)) for i in range(1, d + 1))
    return _trusted(DenseBinaryMatrix, entries=rows)


def multiply(a: Plm, b: Plm) -> Plm:
    """Matrix product via column-map composition.

    Column j of ``a*b`` is column ``b.colmap[j]`` of ``a``, so the product's
    column map is the composition ``a.colmap o b.colmap``.
    """
    am, bm = a.colmap, b.colmap
    _require_same_dim(len(am), len(bm))
    if len(bm) == 1:  # itemgetter of one index returns the item, not a tuple
        return _plm_trusted(am)
    # Entry r of (0,) + am is am[r - 1], so this picks column bm[j] of a.
    return _plm_trusted(itemgetter(*bm)((0,) + am))


def permute_rows(sigma: Permutation, a: Plm) -> Plm:
    """Relabel the rows of ``a`` by ``sigma`` (left action on the row index)."""
    _require_same_dim(sigma.dim, a.dim)
    im = sigma.images
    return _plm_trusted(tuple([im[r - 1] for r in a.colmap]))


def permute_columns(tau: Permutation, a: Plm) -> Plm:
    """Move column j of ``a`` to position tau(j).

    Equivalently the new column j is old column ``tau^{-1}(j)``; with that
    convention this is a left action, so applying sigma after tau equals
    applying ``sigma * tau`` at once.
    """
    _require_same_dim(tau.dim, a.dim)
    cm = a.colmap
    out = [0] * len(cm)
    for j, t in enumerate(tau.images):
        out[t - 1] = cm[j]
    return _plm_trusted(tuple(out))


def first_row_ones(a: Plm) -> int:
    """How many columns have their 1 in row 1."""
    return a.colmap.count(1)


def is_permutation(a: Plm) -> bool:
    return len(set(a.colmap)) == a.dim


# Column-map kernel.  _classify is the one home of the case tests: the public
# classify and cplm_parts delegate to it, and the peel in _smul applies it to
# the slice bm[k:] of the right factor's column map with one = k + 1, the
# label of that slice's first row.

def _classify(cm, one: int = 1) -> tuple[str, object]:
    # (kind, detail): ("rowplm", m), ("cplm", leading), ("pcplm", c) with c
    # the column of the lone first-row 1, or ("iplm", None).  The first row
    # is label ``one``, and the columns are numbered from ``one`` as well, so
    # a slice cm = bm[k:] of a longer map is classified with one = k + 1 and
    # m and c come back as labels and columns of bm.
    m = cm[0]
    if cm.count(m) == len(cm):
        return "rowplm", m
    z = cm.count(one)
    if z == 0:
        return "cplm", False
    if z == 1:
        c = cm.index(one) + one
        if c == one:
            return "cplm", True
        return "pcplm", c
    return "iplm", None


def classify(a: Plm) -> PlmClass:
    """Sort a PLM into exactly one structural class.

    Precedence runs rowplm > cplm > pcplm > iplm: a row PLM R_m with m > 1 is
    also canonical but is reported as a row PLM.  The PCPLM witness returned is
    the transposition moving the lone first-row 1 into column 1.
    """
    kind, detail = _classify(a.colmap)
    if kind == "rowplm":
        return PlmClass.row(detail)
    if kind == "cplm":
        return PlmClass.cplm(leading=detail)
    if kind == "pcplm":
        return PlmClass.pcplm(Permutation.transposition(a.dim, 1, detail))
    return PlmClass.iplm()


def canonicalize(a: Plm) -> tuple[Permutation, Plm]:
    """Find a row relabelling sigma such that ``permute_rows(sigma, a)`` is canonical.

    sigma is the identity when ``a`` already qualifies, otherwise the
    transposition (1 r) for the smallest row r that is zero throughout columns
    2..d.  Such a row always exists because columns 2..d occupy at most d-1
    rows.  Note the one non-canonical row PLM, R_1, lands on R_2.
    """
    cm = a.colmap
    hit = set(cm[1:])
    r = 1
    while r in hit:
        r += 1
    if r == 1:
        return Permutation.identity(a.dim), a
    swapped = tuple([r if x == 1 else 1 if x == r else x for x in cm])
    return Permutation.transposition(a.dim, 1, r), _plm_trusted(swapped)


def cplm_parts(a: Plm) -> CplmParts:
    """Split a CPLM (or a row PLM R_m with m > 1) into leading entry, first
    column tail, and PLC."""
    cm = a.colmap
    kind, detail = _classify(cm)
    if not (kind == "cplm" or (kind == "rowplm" and detail > 1)):
        raise NotCplmError(f"not canonical: colmap {cm}")
    first = cm[0]
    # v is rows 2..d of column 1; the PLC drops row 1 and column 1.
    v = tuple([1 if first == i else 0 for i in range(2, len(cm) + 1)])
    plc = _plm_trusted(tuple([r - 1 for r in cm[1:]]))
    return _trusted(CplmParts, leading=1 if first == 1 else 0, v=v, plc=plc)


def tail_column_block(a: Plm, n: int) -> DenseBinaryMatrix:
    """The (d-1) x (d-1) block whose first n columns each repeat a CPLM's
    first-column tail, remaining columns zero.

    This is the correction block that appears when the right factor of a
    product starts with a run of first-row ones.  The structural route reads
    its columns off the column map without forming it (each one is column 1
    of the CPLM below row 1); the tests build the IPLM products densely from
    this block as the reference for that step.
    """
    parts = cplm_parts(a)
    d = a.dim
    _require_ints(n=n)
    if not 0 <= n <= d - 1:
        raise InvalidArgumentError(f"column count {n} out of range 0..{d - 1}")
    v = parts.v
    rows = tuple(tuple(v[i] if j < n else 0 for j in range(d - 1)) for i in range(d - 1))
    return _trusted(DenseBinaryMatrix, entries=rows)


def structural_multiply(a: Plm, b: Plm) -> Plm:
    """Multiply by structural case analysis instead of raw composition.

    Dispatch:

    1. left factor a row PLM: the product is that row PLM (left absorption);
    2. right factor a row PLM R_m: every product column is column m of ``a``;
    3. otherwise the right factor decides the case, and the left factor is
       read as it stands: each case reads product columns off columns of
       the left factor, and a row relabelling moves no column, so the left
       factor is not brought into canonical form (:func:`canonicalize`
       gives that form to callers that want it).

    A CPLM right factor gives product column 1 as a column of the left
    factor, and the rest as the product of the left factor's columns 2..d
    with the right factor's PLC; a PCPLM is brought into canonical position
    by its column witness; and an IPLM is handled by regrouping its
    first-row ones into a leading run: the product's columns in that run
    are column 1 of the left factor, and each other column is the column of
    the left factor that the right factor's row in the lower block picks.
    Each column is read off the column maps and written straight to its
    original position, so the regrouped matrices and the correction block
    are never formed.

    The products with the PLC run as a loop, not a recursion, so a
    permutation of any dimension (which takes the CPLM or PCPLM case at
    every step) multiplies without hitting the recursion limit.  The loop
    peels in place on unshifted labels: at level k the live factors are the
    slices of the column maps from column k+1 on, and the right slice's
    first row is row k+1.  Each level tests the left slice for a row PLM
    (that test only), classifies the right slice, and, for a PCPLM, swaps
    the lone first-row 1 into column k+1.  The left slice is a row PLM
    exactly when k is at least the start of the left factor's constant
    suffix, which is found once per product, so that test costs O(1), and
    the left slice is never copied: its entries are read off the left
    factor's whole column map.  The next level's factors are then the
    slices from column k+2, as they stand, so no label is shifted down on
    the way in or up on the way out.  Each level, and the IPLM step, costs
    O(d) time and memory.

    The case analysis runs on raw column maps: the operands are validated once,
    as ``Plm`` values, and no intermediate matrix is validated again.  Always
    agrees with :func:`multiply`.  The two routes are not independent: the
    case split decides when the peel stops and which columns swap back, but
    every case reads a product entry as composition does, as the left
    factor's column at the right factor's label.  The dense oracle in
    ``verify`` shares no formula with either.  ROADMAP item 16 decides what
    this route should be.
    """
    am, bm = a.colmap, b.colmap
    _require_same_dim(len(am), len(bm))
    return _plm_trusted(_smul(am, bm))


def _smul(am: tuple[int, ...], bm: tuple[int, ...]) -> tuple[int, ...]:
    # The structural product of two column maps of equal length, peeled in
    # place on unshifted labels.  At level k the live factors are the slices
    # am[k:] and bm[k:]; the right one, b, lies in rows k+1.., so its first
    # row is label one = k + 1.  Each level decides, in order: left row PLM
    # (the product is am[k:]); right row PLM R_m (every product column is
    # the left slice's column m); then an IPLM b gives the rest of the product by the
    # block step, and a CPLM or PCPLM b (its lone first-row 1 swapped into
    # column k+1) gives product column k+1.  The only test on the left
    # slice, the row-PLM test, survives any row relabel, and every case
    # copies whole columns of it, so each holds whether or not its first row
    # is empty past column one: it is not relabelled into canonical form,
    # and each entry is written as read.  The left slice's column labelled
    # x (its columns are numbered from one, as b's rows are) is am[x - 1],
    # so the slice is never formed, and it is a row PLM exactly when k is
    # at least s, the start of am's constant suffix, found once.  Then
    # b[1:] avoids row one, so it is b's PLC as it stands, and the rest of
    # the product is am[k+1:] times it (b, a list copy of bm, drops its
    # first entry in place); the way back only undoes the column swaps,
    # latest first.
    s = len(am) - 1
    while s and am[s - 1] == am[-1]:
        s -= 1
    b = list(bm)
    out = []  # product columns 1..k
    swaps = []
    one = 1
    while True:
        if one > s:  # am[k:] is a row PLM
            prod = am[one - 1:]
            break
        kind, detail = _classify(b, one)
        if kind == "rowplm":
            prod = (am[detail - 1],) * len(b)
            break
        if kind == "iplm":
            # Regrouping b's z first-row ones (1 < z < len(b)) into a
            # leading run gives blocks [[1, u], [0, B']] with u = (1,)*(z-1)
            # + (0,)*(len(b)-z), and a product whose first z columns are
            # each the left slice's column 1 (the correction block v*u fills
            # the z-1 columns in which B' is zero).  Every other column has
            # its 1 in a row x > one of b, so it is the left slice's column
            # x - one + 1.  Both are am[x - 1], written straight to each
            # column's original position; the regrouped matrices and the
            # correction block are never formed.
            prod = [am[x - 1] for x in b]
            break
        if kind == "pcplm":
            c = detail - one
            b[0], b[c] = b[c], b[0]
            swaps.append((one - 1, detail - 1))
        # b's first column has its 1 in row b[0], so product column k+1 is
        # column b[0] of am.
        out.append(am[b[0] - 1])
        del b[0]
        one += 1
    out += prod
    for i, j in reversed(swaps):
        out[i], out[j] = out[j], out[i]
    return tuple(out)
