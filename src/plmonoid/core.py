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
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, NotCplmError, NotPlmError


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
        if any(type(v) is not int for v in images):
            raise ValueError(f"permutation images must be ints: {images!r}")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")

    @property
    def dim(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(1, d + 1)))

    @classmethod
    def transposition(cls, d: int, i: int, j: int) -> "Permutation":
        """The permutation of {1..d} swapping i and j."""
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValueError(f"points {i}, {j} out of range 1..{d}")
        images = list(range(1, d + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose: apply ``other`` first, then ``self``."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"permutation dims {self.dim} != {other.dim}")
        return Permutation(tuple(self.images[k - 1] for k in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.dim
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))


@dataclass(frozen=True)
class DenseBinaryMatrix:
    """Square 0/1 matrix as a tuple of row tuples.  No per-column constraint."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if d == 0:
            raise ValueError("empty matrix")
        for row in rows:
            if len(row) != d:
                raise ValueError(f"not square: {d} rows but a row of length {len(row)}")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"entry {x!r} is not 0 or 1")

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Plm:
    """A permutation-like matrix, stored by its column map (1-based rows)."""

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


def _plm_trusted(cm: tuple[int, ...]) -> Plm:
    # Build a Plm without validation.  Only for column maps derived from
    # already valid operands: validation happens once, at the boundary.
    a = object.__new__(Plm)
    object.__setattr__(a, "colmap", cm)
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
        if self.kind == "rowplm":
            return {"class": "rowplm", "m": self.m}
        if self.kind == "cplm":
            return {"class": "cplm", "leading": self.leading}
        if self.kind == "pcplm":
            return {"class": "pcplm", "tau": list(self.tau.images)}
        return {"class": "iplm"}


@dataclass(frozen=True)
class CplmParts:
    """Block decomposition of a CPLM.

    ``leading`` is the (1,1) entry as 0/1, ``v`` holds rows 2..d of column 1,
    and ``plc`` is the (d-1)-dimensional PLM left after deleting row 1 and
    column 1.
    """

    leading: int
    v: tuple[int, ...]
    plc: Plm

    def assemble(self) -> Plm:
        """Rebuild the full CPLM from its parts."""
        if self.leading:
            first = 1
        else:
            first = self.v.index(1) + 2
        return Plm((first,) + tuple(r + 1 for r in self.plc.colmap))


def identity(d: int) -> Plm:
    return Plm(tuple(range(1, d + 1)))


def row_plm(d: int, m: int) -> Plm:
    """The matrix R_m whose every column has its 1 in row m."""
    if not 1 <= m <= d:
        raise ValueError(f"row {m} out of range 1..{d}")
    return Plm((m,) * d)


def from_dense(m) -> Plm:
    """Read a PLM off a dense square matrix.

    Accepts a :class:`DenseBinaryMatrix` or any nested sequence of ints.
    Raises :class:`NotPlmError` when an entry is not 0/1 or a column does not
    hold exactly one 1.
    """
    rows = m.entries if isinstance(m, DenseBinaryMatrix) else tuple(tuple(r) for r in m)
    d = len(rows)
    if d == 0 or any(len(r) != d for r in rows):
        raise ValueError("matrix is empty or not square")
    colmap = []
    for j in range(d):
        hit = 0
        where = 0
        for i in range(d):
            x = rows[i][j]
            if x == 1:
                hit += 1
                where = i + 1
            elif x != 0:
                raise NotPlmError(
                    f"entry {x!r} at row {i + 1}, column {j + 1} is not 0 or 1",
                    column=j + 1,
                )
        if hit != 1:
            raise NotPlmError(f"column {j + 1} has {hit} ones", column=j + 1, count=hit)
        colmap.append(where)
    return Plm(tuple(colmap))


def to_dense(a: Plm) -> DenseBinaryMatrix:
    d = a.dim
    return DenseBinaryMatrix(
        tuple(tuple(1 if a.colmap[j] == i else 0 for j in range(d)) for i in range(1, d + 1))
    )


def multiply(a: Plm, b: Plm) -> Plm:
    """Matrix product via column-map composition.

    Column j of ``a*b`` is column ``b.colmap[j]`` of ``a``, so the product's
    column map is the composition ``a.colmap o b.colmap``.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} != {b.dim}")
    am = a.colmap
    return _plm_trusted(tuple([am[r - 1] for r in b.colmap]))


def permute_rows(sigma: Permutation, a: Plm) -> Plm:
    """Relabel the rows of ``a`` by ``sigma`` (left action on the row index)."""
    if sigma.dim != a.dim:
        raise DimensionMismatchError(f"dims {sigma.dim} != {a.dim}")
    im = sigma.images
    return _plm_trusted(tuple([im[r - 1] for r in a.colmap]))


def permute_columns(tau: Permutation, a: Plm) -> Plm:
    """Move column j of ``a`` to position tau(j).

    Equivalently the new column j is old column ``tau^{-1}(j)``; with that
    convention this is a left action, so applying sigma after tau equals
    applying ``sigma * tau`` at once.
    """
    if tau.dim != a.dim:
        raise DimensionMismatchError(f"dims {tau.dim} != {a.dim}")
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


# Column-map kernels.  The structural route runs on raw column-map tuples
# through these helpers, and the public classify / canonicalize / cplm_parts
# delegate to them, so each case test and each block formula exists once.

def _classify(cm: tuple[int, ...]) -> tuple[str, object]:
    # (kind, detail): ("rowplm", m), ("cplm", leading), ("pcplm", c) with c
    # the column of the lone first-row 1, or ("iplm", None).
    d = len(cm)
    z = cm.count(1)
    if z == d:
        return "rowplm", 1
    m = cm[0]
    if cm.count(m) == d:
        return "rowplm", m
    if z == 0:
        return "cplm", False
    if z == 1:
        c = cm.index(1) + 1
        if c == 1:
            return "cplm", True
        return "pcplm", c
    return "iplm", None


def _free_row(cm: tuple[int, ...]) -> int:
    # The smallest row that is zero throughout columns 2..d.
    hit = set(cm[1:])
    r = 1
    while r in hit:
        r += 1
    return r


def _swap_rows(cm: tuple[int, ...], r: int) -> tuple[int, ...]:
    # Relabel rows by the transposition (1 r).
    return tuple([r if x == 1 else 1 if x == r else x for x in cm])


def _swap_columns(cm: tuple[int, ...], c: int) -> tuple[int, ...]:
    # Relabel columns by the transposition (1 c).
    out = list(cm)
    out[0], out[c - 1] = cm[c - 1], cm[0]
    return tuple(out)


def _tail(cm: tuple[int, ...]) -> tuple[int, ...]:
    # Rows 2..d of column 1, as 0/1 entries.
    first = cm[0]
    return tuple([1 if first == i else 0 for i in range(2, len(cm) + 1)])


def _plc(cm: tuple[int, ...]) -> tuple[int, ...]:
    # A CPLM's column map with row 1 and column 1 deleted.
    return tuple([r - 1 for r in cm[1:]])


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
    r = _free_row(a.colmap)
    if r == 1:
        return Permutation.identity(a.dim), a
    return Permutation.transposition(a.dim, 1, r), _plm_trusted(_swap_rows(a.colmap, r))


def cplm_parts(a: Plm) -> CplmParts:
    """Split a CPLM (or a row PLM R_m with m > 1) into leading entry, first
    column tail, and PLC."""
    cm = a.colmap
    kind, detail = _classify(cm)
    if not (kind == "cplm" or (kind == "rowplm" and detail > 1)):
        raise NotCplmError(f"not canonical: colmap {cm}")
    return CplmParts(leading=1 if cm[0] == 1 else 0, v=_tail(cm), plc=_plm_trusted(_plc(cm)))


def tail_column_block(a: Plm, n: int) -> DenseBinaryMatrix:
    """The (d-1) x (d-1) block whose first n columns each repeat a CPLM's
    first-column tail, remaining columns zero.

    This is the correction block that appears when the right factor of a
    product starts with a run of first-row ones.
    """
    parts = cplm_parts(a)
    d = a.dim
    if not 0 <= n <= d - 1:
        raise ValueError(f"column count {n} out of range 0..{d - 1}")
    v = parts.v
    return DenseBinaryMatrix(
        tuple(tuple(v[i] if j < n else 0 for j in range(d - 1)) for i in range(d - 1))
    )


def structural_multiply(a: Plm, b: Plm) -> Plm:
    """Multiply by structural case analysis instead of raw composition.

    Dispatch:

    1. left factor a row PLM: the product is that row PLM (left absorption);
    2. right factor a row PLM R_m: every product column is column m of ``a``;
    3. otherwise canonicalize the left factor with a row relabelling sigma,
       multiply in canonical position, and undo sigma afterwards.

    In canonical position the right factor decides the case: a CPLM multiplies
    blockwise with a recursive PLC product, a PCPLM is conjugated into
    canonical position by its column witness, and an IPLM is handled by
    regrouping its first-row ones into a leading run, building the product
    block from the tail-column correction plus the PLC columns, and undoing
    the regrouping.

    The case analysis runs on raw column maps: the operands are validated once,
    as ``Plm`` values, and no intermediate matrix is validated again.  Always
    agrees with :func:`multiply`; the two routes share no formula.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} != {b.dim}")
    return _plm_trusted(_smul(a.colmap, b.colmap))


def _smul(am: tuple[int, ...], bm: tuple[int, ...]) -> tuple[int, ...]:
    # The structural product of two column maps of equal length.
    d = len(am)
    kind, detail = _classify(am)
    if kind == "rowplm":
        return am
    kind, detail = _classify(bm)
    if kind == "rowplm":
        return (am[detail - 1],) * d
    r = _free_row(am)
    if r != 1:
        am = _swap_rows(am, r)
    # am is now a CPLM; bm is anything but a row PLM.
    if kind in ("cplm", "pcplm"):
        if kind == "pcplm":
            bm = _swap_columns(bm, detail)
        plc = _smul(_plc(am), _plc(bm))
        if bm[0] == 1:
            first = am[0]
        else:
            # bm's column 1 has its 1 in row x = bm[0] > 1, so the product's
            # column 1 is column x of am; that row is below row 1 since am is
            # canonical.
            first = am[bm[0] - 1]
        prod = (first,) + tuple([x + 1 for x in plc])
        if kind == "pcplm":
            prod = _swap_columns(prod, detail)
    elif kind == "iplm":
        prod = _smul_iplm(am, bm)
    else:
        raise AssertionError(f"unexpected class {kind} for the right factor")
    return prod if r == 1 else _swap_rows(prod, r)


def _smul_iplm(am: tuple[int, ...], bm: tuple[int, ...]) -> tuple[int, ...]:
    # am is a CPLM; bm has z first-row ones with 1 < z < d.  Regroup bm's
    # columns so the first-row ones fill positions 1..z, multiply in that
    # position, then move the columns back.
    d = len(am)
    z = bm.count(1)
    order = [j for j in range(d) if bm[j] == 1] + [j for j in range(d) if bm[j] != 1]
    bt = tuple([bm[j] for j in order])
    assert bt[:z] == (1,) * z and all(r >= 2 for r in bt[z:])

    v = _tail(am)
    n = d - 1
    # Correction block, held column by column: the first z-1 columns repeat
    # am's first-column tail.
    cols = [list(v) if c < z - 1 else [0] * n for c in range(n)]
    # Add the PLC product against bt's trailing columns, left-padded with z-1
    # zero columns.  Each trailing column is a unit vector, so the product
    # column is just a column of the PLC.
    plc_cm = _plc(am)
    for c in range(z - 1, n):
        r = bt[c + 1] - 2           # row of bt's 1 within the lower block
        cols[c][plc_cm[r] - 1] += 1
    # The sum must form the lower-right block of a PLM whose first row is
    # [1]*z + [0]*(d-z) scaled by am's leading entry; validate before reading
    # the column map off it.
    lower = []
    for c, col in enumerate(cols):
        if any(x not in (0, 1) for x in col):
            raise AssertionError(f"block entry out of 0/1 at column {c + 2}: {col}")
        if c < z - 1:
            if tuple(col) != v:
                raise AssertionError(f"leading-run column {c + 2} does not repeat the tail")
            lower.append(None)
        else:
            if col.count(1) != 1:
                raise AssertionError(f"block column {c + 2} has {col.count(1)} ones")
            lower.append(col.index(1) + 2)

    ct = [am[0]] * z + lower[z - 1:]
    # Column k of the regrouped product goes back to column order[k].
    out = [0] * d
    for k, j in enumerate(order):
        out[j] = ct[k]
    return tuple(out)
