"""Multilinear varieties, explicit point sets, and the directional
convolution calculus with parallelepiped witnesses.

A variety is the common zero set of a finite list of forms, each allowed to
depend on its own subset of factors.  Representation codimension counts the
deduplicated defining forms; it upper-bounds the minimal codimension, which
is the direction the guarantees downstream need.  The canonical empty
variety is a dedicated marker, not a fake nonzero "form": slicing a
partial-support form at a point where it does not vanish has to produce a
representable empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import budget
from .errors import ConstructionError, PreconditionError
from .field import (
    all_vectors,
    rref,
    shift_rows,
    vector_from_index,
    vector_index,
)
from .forms import (
    MultilinearForm,
    Shape,
    _contracted,
    _fixed_vectors,
    coerce_point,
    eval_grid,
)


@dataclass(frozen=True, slots=True)
class Variety:
    """Common zero set of support-annotated multilinear forms."""

    shape: Shape
    forms: tuple[MultilinearForm, ...] = ()
    is_empty: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        forms = tuple(self.forms)
        for f in forms:
            if f.shape != self.shape:
                raise PreconditionError("all defining forms must share the shape")
        if self.is_empty and forms:
            raise PreconditionError("the canonical empty variety carries no forms")
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "is_empty", bool(self.is_empty))

    @classmethod
    def full(cls, shape: Shape) -> "Variety":
        return cls(shape, ())

    @classmethod
    def empty(cls, shape: Shape) -> "Variety":
        return cls(shape, (), is_empty=True)

    def canonical(self) -> "Variety":
        """Deduplicated defining list: zero forms dropped, and each
        same-support family replaced by the reduced echelon basis of its
        span (same zero set, possibly fewer forms)."""
        if self.is_empty:
            return self
        groups: dict[tuple[int, ...], list[MultilinearForm]] = {}
        for f in self.forms:
            if f.is_zero():
                continue
            groups.setdefault(f.support, []).append(f)
        out = []
        for support in sorted(groups):
            family = groups[support]
            flat = [f.coeffs.reshape(-1).tolist() for f in family]
            reduced = rref(flat, self.shape.p, width=len(flat[0]))
            for row in reduced:
                out.append(MultilinearForm(self.shape, support, row))
        return Variety(self.shape, out)

    @property
    def codim(self) -> int:
        """Representation codimension: deduplicated defining form count."""
        if self.is_empty:
            raise PreconditionError("the empty variety has no representation codimension")
        return len(self.canonical().forms)

    def __repr__(self) -> str:
        if self.is_empty:
            return f"Variety.empty(p={self.shape.p}, dims={self.shape.dims})"
        return f"Variety(p={self.shape.p}, dims={self.shape.dims}, forms={len(self.forms)})"


def membership(v: Variety, point) -> bool:
    """True iff every defining form vanishes at the point."""
    pt = dict(enumerate(coerce_point(v.shape, point)))
    if v.is_empty:
        return False
    return all(_contracted(f, pt)[1] == 0 for f in v.forms)


def variety_bitmap(v: Variety) -> np.ndarray:
    """Boolean membership array with one axis per factor, indexed by vector
    rank in enumeration order.  Every call builds and charges afresh, so a
    caller that needs the bitmap twice passes the one it built."""
    budget.charge(v.shape.total_points, "variety bitmap")
    # the empty marker carries no forms
    out = np.full(v.shape.group_sizes, not v.is_empty)
    for f in v.forms:
        g = eval_grid(f) == 0
        grown = [1] * v.shape.k
        for pos, j in enumerate(f.support):
            grown[j] = g.shape[pos]
        out &= g.reshape(grown)
    return out


def slice_variety(v: Variety, factors: Iterable[int], coords) -> Variety:
    """Fiber over a fixed partial point, as a variety on the other factors.

    Forms are partially evaluated (forms._contracted), each factor fixed at
    the vector given next to it.  A form that holds a factor fixed at the
    zero vector vanishes on the slice, by multilinearity, and is dropped
    without being contracted.  A form supported entirely inside the fixed
    factors becomes a constant: zero constants are dropped, a nonzero
    constant makes the slice the canonical empty variety.
    """
    fixed = _fixed_vectors(v.shape, factors, coords)
    if len(fixed) >= v.shape.k:
        raise PreconditionError("slicing away every factor leaves no ambient group")
    zero = {j for j, x in fixed.items() if not any(x)}
    remaining = [j for j in range(v.shape.k) if j not in fixed]
    reduced = Shape(v.shape.p, tuple(v.shape.dims[j] for j in remaining))
    if v.is_empty:
        return Variety.empty(reduced)
    position = {j: t for t, j in enumerate(remaining)}
    out = []
    for f in v.forms:
        if zero.intersection(f.support):  # f(..., 0, ...) = 0
            continue
        support, coeffs = _contracted(f, fixed)
        if not support:
            if coeffs:
                return Variety.empty(reduced)
            continue
        out.append(MultilinearForm(reduced, tuple(position[j] for j in support), coeffs))
    return Variety(reduced, out)


def intersect(v1: Variety, v2: Variety) -> Variety:
    """Common zero set: concatenated form lists, deduplicated."""
    if v1.shape != v2.shape:
        raise PreconditionError("intersection needs a common shape")
    if v1.is_empty or v2.is_empty:
        return Variety.empty(v1.shape)
    return Variety(v1.shape, v1.forms + v2.forms).canonical()


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class PointSet:
    """Explicit membership bitmap over the full product group."""

    shape: Shape
    mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != self.shape.group_sizes:
            raise PreconditionError(
                f"bitmap shape {mask.shape} does not match group sizes {self.shape.group_sizes}"
            )
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, shape: Shape) -> "PointSet":
        return cls(shape, np.zeros(shape.group_sizes, dtype=bool))

    @classmethod
    def from_points(cls, shape: Shape, points) -> "PointSet":
        mask = np.zeros(shape.group_sizes, dtype=bool)
        for pt in points:
            mask[_point_index(shape, pt)] = True
        return cls(shape, mask)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    def contains(self, point) -> bool:
        return bool(self.mask[_point_index(self.shape, point)])


def _point_from_index(shape: Shape, idx) -> tuple[tuple[int, ...], ...]:
    """Inverse of _point_index: one vector per factor from its rank."""
    return tuple(
        vector_from_index(shape.p, n, int(t)) for n, t in zip(shape.dims, idx)
    )


def _ranks(flat: np.ndarray, shape) -> np.ndarray:
    """The (N, k) per-axis ranks of flat C-order cell indices into `shape`,
    each axis's ranks contiguous, as np.argwhere lays them out."""
    return np.stack(np.unravel_index(flat, shape)).T


def _point_index(shape: Shape, point) -> tuple[int, ...]:
    return tuple(vector_index(shape.p, x) for x in coerce_point(shape, point))


# ---------------------------------------------------------------------------
# Directional convolutions and parallelepiped witnesses
# ---------------------------------------------------------------------------

def directional_convolution(s: PointSet, direction: int, point) -> Fraction:
    """Exact value of the direction-i convolution of the set indicator:
    the fraction of y in that factor with both translated points inside.
    Only the line through the point in that direction is read and
    translated (field.shift_rows, which keeps no table), and its p**n_i
    points are charged."""
    shape = s.shape
    idx = _point_index(shape, point)
    if not 0 <= direction < shape.k:
        raise PreconditionError("direction outside the shape")
    n = shape.dims[direction]
    perm = shift_rows(shape.p, n, idx[direction])
    budget.charge(shape.p**n, "directional convolution")
    line = s.mask[tuple(slice(None) if i == direction else t for i, t in enumerate(idx))]
    return Fraction(int(np.count_nonzero(line & line[perm])), shape.p**n)


@dataclass(frozen=True)
class Parallelepiped:
    """Base point plus one offset per direction; the corner for a subset T
    of directions takes coordinate i to offset_i + base_i when i is in T and
    to offset_i otherwise."""

    shape: Shape
    base: tuple[tuple[int, ...], ...]
    offsets: tuple[tuple[int, ...], ...]

    def corners(self) -> list[tuple[tuple[int, ...], ...]]:
        """All 2**k corners, listed by the subset bitmask (bit i set means
        direction i is shifted)."""
        p = self.shape.p
        shifted = [
            tuple((a + b) % p for a, b in zip(y, x)) for y, x in zip(self.offsets, self.base)
        ]
        return [
            tuple(shifted[i] if mask >> i & 1 else y for i, y in enumerate(self.offsets))
            for mask in range(2**self.shape.k)
        ]


def iterated_conv_witness(allowed: PointSet, point) -> Parallelepiped | None:
    """Search for a parallelepiped based at the point with every corner in
    the allowed set.

    The first witness in depth-first order over offsets (last direction
    outermost) is returned; equivalently, the offset tuple minimizing the
    reversed lexicographic order over the surviving offset mask.  This is
    the search conv_fill_check and dense_columns run (_fill_scan) at a
    single base, charged k points: the zero-offset pre-check, then the row
    pass until a row holds a witness, which the search re-checks.
    """
    shape = allowed.shape
    idx = _point_index(shape, point)
    offsets = _fill_scan(shape, np.array([idx]), allowed.mask, "witness search")[0]
    if offsets[0] < 0:
        return None
    return Parallelepiped(
        shape, _point_from_index(shape, idx), _point_from_index(shape, offsets)
    )


def _flat_strides(shape: Shape) -> np.ndarray:
    """(k,) int64: how far one rank in each factor moves a flat cell of the
    group in C order."""
    sizes = shape.group_sizes
    return np.array([math.prod(sizes[i + 1:]) for i in range(shape.k)], dtype=np.int64)


def _corners_allowed(allowed: np.ndarray, cells: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(N,) bool: True at the rows whose 2**k corners all lie in `allowed`,
    where the corner of row r for a subset T of directions is the flat cell
    cells[r] plus steps[r, i] for each direction i in T.  `cells` is
    updated in place.

    Each corner is one flat gather on `allowed` for all rows.  The subsets
    are walked in Gray-code order, so each corner's cells are the previous
    corner's plus or minus one direction's steps.
    """
    flat = allowed.reshape(-1)
    ok = flat.take(cells)
    for subset in range(1, 2 ** steps.shape[1]):
        # the bit that flips between the Gray codes of subset - 1 and subset
        i = (subset & -subset).bit_length() - 1
        if (subset ^ subset >> 1) >> i & 1:
            cells += steps[:, i]
        else:
            cells -= steps[:, i]
        ok &= flat.take(cells)
    return ok


def _zero_offset_hits(shape: Shape, bases: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """(N,) bool: True where the all-zero offset tuple is a witness at that
    row of `bases`.  Its corner for a subset T of directions is the base
    with the coordinates outside T set to rank 0, whose flat cell is the
    sum of the base's flat steps in the directions of T, so one flat gather
    per subset (_corners_allowed) checks that corner at every row."""
    return _corners_allowed(
        allowed, np.zeros(len(bases), dtype=np.int64), bases * _flat_strides(shape)
    )


def _row_steps(shape: Shape, part: np.ndarray, row_cells: int) -> list[np.ndarray]:
    """The row pass's gather steps for the bases of `part`, whose rows of
    row_cells cells lie one after another: for each direction i < k-1, a
    (len(part), ...) int64 array which, added to the flat index of each
    cell within a row, gives the flat cell that the base's translation in
    direction i brings to that cell."""
    steps = []
    for i in range(shape.k - 1):
        # direction i is axis k-1-i of the rows, and the directions below
        # it are the axes after it, so moving its rank from t to entry t of
        # the shift table moves a flat cell by the difference times their
        # size
        n = shape.group_sizes[i]
        step = shift_rows(shape.p, shape.dims[i], part[:, i])
        step -= np.arange(n)
        step *= math.prod(shape.group_sizes[:i])
        step += np.arange(0, len(part) * row_cells, row_cells)[:, None]
        grown = [len(part)] + [1] * (shape.k - 1)
        grown[shape.k - 1 - i] = n
        steps.append(step.reshape(grown))
    return steps


def _row_offsets(shape: Shape, bases: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """_fill_scan's offsets at the rows of `bases`, -1 throughout where
    there is no witness, found one row of offsets at a time.

    The search runs on one copy of `allowed` with its axes reversed, where
    the tie-break order is C order: row r (last offset r) comes before every
    later row, and a base's first witness in a row is one argmax over it.
    The last direction's round ANDs row r with row r + x_last only.  The
    rounds for directions 0..k-2 act within a row, and each ANDs a set with
    a translate of itself, so they commute with that AND: a base's row-r
    witnesses are the AND of those two rows of `allowed`, reduced by its
    own shifts in one flat gather per direction (_row_steps).  A base moves
    on to row r + 1 only while it has no witness, so a base without one
    reads every row, |G| cells in all.

    Bases go through in chunks of |G_k|.  The gather steps of a chunk's
    remaining bases are built once, and again only after a row settles one
    of them, from one field.shift_rows call per direction (whole rows of
    the tables); each row adds one call for the last direction, cell r of
    each base's table.  Besides one axis-reversed copy of `allowed`, a
    chunk holds at most |G| row cells, as many int64 gather indices, and
    |G_i| int64 steps per base in each direction i < k-1.
    """
    rev = np.ascontiguousarray(allowed.T)
    chunk = rev.shape[0]
    row_cells = shape.total_points // chunk
    offsets = np.full(bases.shape, -1, dtype=np.int64)
    within = np.arange(row_cells).reshape(rev.shape[1:])
    for start in range(0, len(bases), chunk):
        live = np.arange(start, min(start + chunk, len(bases)))
        part = bases[live]
        steps = _row_steps(shape, part, row_cells)
        for r in range(chunk):
            rows = rev[r] & rev[shift_rows(shape.p, shape.dims[-1], part[:, -1], r)]
            for step in steps:
                rows &= rows.reshape(-1).take(step + within)
            out = rows.reshape(len(part), -1)
            first = out.argmax(axis=1)
            found = out[np.arange(len(part)), first]
            if found.any():
                offsets[live[found]] = _ranks(first[found] + r * row_cells, rev.shape)[:, ::-1]
                live = live[~found]
                if not len(live):
                    break
                part = bases[live]
                steps = _row_steps(shape, part, row_cells)
    return offsets


def _fill_scan(shape: Shape, bases: np.ndarray, allowed: np.ndarray, what: str):
    """Offset ranks of the first parallelepiped with every corner in
    `allowed` at each row of `bases` (per-factor ranks in enumeration
    order), as an (N, k) int64 array, -1 throughout where there is none;
    charged N*k, one round per base and direction, though most bases run
    fewer.

    "First" is reversed lexicographic order, last direction compared first,
    and two tiers find it:
    - the zero-offset pre-check (_zero_offset_hits, 2**k flat gathers for
      all rows at once, which check its witnesses' corners): the all-zero
      offset tuple is the minimum of the order;
    - the row pass (_row_offsets) on the bases it rejects, which reads one
      row of |G|/|G_k| offsets per base at a time, last offset 0 first, and
      stops at a base's first row holding a witness.
    On 40 seeded 2-form varieties at (2,(7,7)) with conv-check's default
    bad set, the pre-check settled 95.8% of the points and row 0 all the
    others.  At arity 1 row 0 holds only the zero offset, so every base the
    pre-check rejects reads later rows.  A base without a witness reads all
    |G| offsets.

    The row pass's witnesses, the only ones read off field.shift_rows
    tables, are re-checked here for every caller: at the rows with a
    nonzero offset in direction i, base and offset ranks are decoded by one
    take each on the transposed vector table (field.all_vectors), added
    with a conditional subtraction of p and ranked again, and every row's
    2**k corners are flat gathers on `allowed`.  A corner outside it is
    the search's fault, not the caller's: ConstructionError.
    """
    budget.charge(len(bases) * shape.k, what)
    offsets = np.zeros(bases.shape, dtype=np.int64)
    rest = np.flatnonzero(~_zero_offset_hits(shape, bases, allowed))
    if not len(rest):
        return offsets
    offsets[rest] = found = _row_offsets(shape, bases[rest], allowed)
    hit = found[:, 0] >= 0
    base, found = bases[rest[hit]], found[hit]
    strides = _flat_strides(shape)
    steps = base * strides
    for i, n in enumerate(shape.dims):
        # the digits of base + offset in direction i at the rows it moves,
        # one row per coordinate; in uint8, digits - p wraps above digits
        # unless digits >= p
        rows = np.flatnonzero(found[:, i])
        table = np.ascontiguousarray(all_vectors(shape.p, n).T)
        digits = table.take(base[rows, i], axis=1)
        digits += table.take(found[rows, i], axis=1)
        np.minimum(digits, digits - shape.p, out=digits)
        moved = shape.p ** np.arange(n - 1, -1, -1, dtype=np.int64) @ digits
        steps[rows, i] = (moved - found[rows, i]) * strides[i]
    if not _corners_allowed(allowed, found @ strides, steps).all():
        raise ConstructionError("witness corner escaped the allowed set")
    return offsets


def bad_set_cap(shape: Shape, codim: int) -> Fraction:
    """Largest bad set the filling argument tolerates on a variety of the
    given codimension: 2**(-2k) p**(-k r) |G|."""
    return Fraction(shape.total_points, 2 ** (2 * shape.k) * shape.p ** (shape.k * codim))


def _capped_bad_size(shape: Shape, codim: int, size: int) -> Fraction:
    """bad_set_cap(shape, codim), after refusing a bad set of `size` points
    above it."""
    cap = bad_set_cap(shape, codim)
    if size > cap:
        raise PreconditionError(
            f"bad set of size {size} exceeds the allowed {cap} "
            f"(k={shape.k}, codim={codim}, |G|={shape.total_points})"
        )
    return cap


@dataclass(frozen=True)
class ConvFillReport:
    """Outcome of checking the filling property at every variety point."""

    codim: int
    bad_size: int
    bad_cap: Fraction
    checked: int
    corners_checked: int
    failures: tuple
    success: bool


def conv_fill_check(v: Variety, bad: PointSet, mask: np.ndarray, codim: int) -> ConvFillReport:
    """Demand a parallelepiped witness at every point of the variety, given
    its bitmap (variety_bitmap(v)) and representation codimension (v.codim)
    as the caller already holds them.

    Preconditions (rejected with a diagnostic when violated): the bitmap
    is a bool array of the shape's group sizes, the codimension a
    non-negative int, and the bad set lies inside the variety and within
    bad_set_cap of the codimension.  The witnesses at all points come from
    one search, which dense_columns shares (_fill_scan), at the ranks of one
    flat index pass over the bitmap.  Every point's zero-offset corners lie
    in the variety, since a form vanishes where a factor of its support is
    zero and takes its value at the point elsewhere, so the pre-check
    rejects only points with a bad corner, and the row pass takes those.
    The search re-checks the row pass's witnesses, and corners_checked
    counts the 2**k corners of every witnessed point.
    """
    shape = v.shape
    if not (
        isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == shape.group_sizes
    ):
        raise PreconditionError(
            f"the variety's bitmap must be a bool array of shape {shape.group_sizes}"
        )
    if not isinstance(codim, int) or codim < 0:
        raise PreconditionError(f"codimension must be a non-negative int, not {codim!r}")
    if bad.shape != shape:
        raise PreconditionError("bad set must live on the variety's shape")
    if bool(np.any(bad.mask & ~mask)):
        raise PreconditionError("bad set must be a subset of the variety")
    allowed = mask & ~bad.mask
    cap = _capped_bad_size(shape, codim, bad.size)
    bases = _ranks(np.flatnonzero(mask), mask.shape)
    offsets = _fill_scan(shape, bases, allowed, "filling check")
    witnessed = offsets[:, 0] >= 0
    failures = tuple(_point_from_index(shape, idx) for idx in bases[~witnessed].tolist())
    return ConvFillReport(
        codim=codim,
        bad_size=bad.size,
        bad_cap=cap,
        checked=len(bases),
        corners_checked=int(np.count_nonzero(witnessed)) * 2**shape.k,
        failures=failures,
        success=not failures,
    )
