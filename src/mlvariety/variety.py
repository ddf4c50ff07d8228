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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import budget
from .errors import PreconditionError
from .field import all_vectors, rref, shift_permutation, vector_from_index, vector_index
from .forms import MultilinearForm, Shape, coerce_point, eval_form, eval_grid, slice_form


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
    pt = coerce_point(v.shape, point)
    if v.is_empty:
        return False
    return all(eval_form(f, pt) == 0 for f in v.forms)


def variety_bitmap(v: Variety) -> np.ndarray:
    """Boolean membership array with one axis per factor, indexed by vector
    rank in enumeration order."""
    sizes = v.shape.group_sizes
    budget.charge(v.shape.total_points, "variety bitmap")
    if v.is_empty:
        return np.zeros(sizes, dtype=bool)
    out = np.ones(sizes, dtype=bool)
    for f in v.forms:
        g = eval_grid(f) == 0
        grown = [1] * v.shape.k
        for pos, j in enumerate(f.support):
            grown[j] = g.shape[pos]
        out &= g.reshape(grown)
    return out


def density(v: Variety) -> Fraction:
    """|V| / |G| by full enumeration, exactly."""
    if v.is_empty:
        return Fraction(0)
    count = int(np.count_nonzero(variety_bitmap(v)))
    return Fraction(count, v.shape.total_points)


def variety_points(v: Variety) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Points of the variety in enumeration order."""
    if v.is_empty:
        return
    yield from _mask_points(v.shape, variety_bitmap(v))


def slice_variety(v: Variety, factors: Iterable[int], coords) -> Variety:
    """Fiber over a fixed partial point, as a variety on the other factors.

    Forms are partially evaluated.  A form supported entirely inside the
    fixed factors becomes a constant: zero constants are dropped, a nonzero
    constant makes the slice the canonical empty variety.
    """
    factors = tuple(sorted({int(j) for j in factors}))
    coords = tuple(coords)
    if len(coords) != len(factors):
        raise PreconditionError("one coordinate vector per sliced factor")
    if any(j < 0 or j >= v.shape.k for j in factors):
        raise PreconditionError("slice factors outside the shape")
    if len(factors) >= v.shape.k:
        raise PreconditionError("slicing away every factor leaves no ambient group")
    fixed = {j: x for j, x in zip(factors, coords)}
    remaining = [j for j in range(v.shape.k) if j not in fixed]
    reduced = Shape(v.shape.p, tuple(v.shape.dims[j] for j in remaining))
    if v.is_empty:
        return Variety.empty(reduced)
    position = {j: t for t, j in enumerate(remaining)}
    out = []
    for f in v.forms:
        hit = [j for j in factors if j in f.support]
        if set(f.support) <= set(factors):
            point = [
                fixed[j] if j in fixed else (0,) * v.shape.dims[j]
                for j in range(v.shape.k)
            ]
            if eval_form(f, point) != 0:
                return Variety.empty(reduced)
            continue
        g = slice_form(f, hit, tuple(fixed[j] for j in hit)) if hit else f
        out.append(
            MultilinearForm(reduced, tuple(position[j] for j in g.support), g.coeffs)
        )
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

    def points(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        return _mask_points(self.shape, self.mask)


def _mask_points(shape: Shape, mask: np.ndarray) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The points set in a membership bitmap, in enumeration order."""
    for idx in np.argwhere(mask):
        yield _point_from_index(shape, idx)


def _point_from_index(shape: Shape, idx) -> tuple[tuple[int, ...], ...]:
    """Inverse of _point_index: one vector per factor from its rank."""
    return tuple(
        vector_from_index(shape.p, n, int(t)) for n, t in zip(shape.dims, idx)
    )


def _point_index(shape: Shape, point) -> tuple[int, ...]:
    return tuple(vector_index(shape.p, x) for x in coerce_point(shape, point))


# ---------------------------------------------------------------------------
# Directional convolutions and parallelepiped witnesses
# ---------------------------------------------------------------------------

def directional_convolution(s: PointSet, direction: int, point) -> Fraction:
    """Exact value of the direction-i convolution of the set indicator:
    the fraction of y in that factor with both translated points inside."""
    shape = s.shape
    idx = _point_index(shape, point)
    if not 0 <= direction < shape.k:
        raise PreconditionError("direction outside the shape")
    n = shape.dims[direction]
    perm = shift_permutation(shape.p, n, idx[direction])
    budget.charge(shape.total_points, "directional convolution")
    both = s.mask & np.take(s.mask, perm, axis=direction)
    sel = tuple(
        slice(None) if i == direction else idx[i] for i in range(shape.k)
    )
    return Fraction(int(np.count_nonzero(both[sel])), shape.p**n)


def _shift_rounds(shape: Shape, out: np.ndarray, ranks) -> np.ndarray:
    """Shift-and-intersect rounds for directions 0, 1, ..., one per shift
    rank: after the round for direction i the surviving offsets have both
    the plain and the shifted corner in the set for every combination of
    the directions processed so far."""
    for i, t in enumerate(ranks):
        perm = shift_permutation(shape.p, shape.dims[i], t)
        out = out & np.take(out, perm, axis=i)
    return out


def _first_true(out: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True of `out` in reversed lexicographic order
    (last axis compared first), or None when there is none.

    Works down from the last axis: `any` over the leading axes, the first
    True along the rest, then that index is fixed and the next axis is
    reduced the same way, so no axis-reversed copy is made.
    """
    found = []
    while out.ndim:
        hits = out.any(axis=tuple(range(out.ndim - 1)))
        t = int(hits.argmax())
        if not hits[t]:
            return None
        found.append(t)
        out = out[..., t]
    return tuple(reversed(found))


def _first_offsets(shape: Shape, allowed: np.ndarray, idx) -> tuple[int, ...] | None:
    """Offset ranks of the first parallelepiped at the base of per-factor
    ranks `idx` with every corner in `allowed` (iterated_conv_witness's
    order: reversed lexicographic), or None."""
    return _first_true(_shift_rounds(shape, allowed, idx))


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


def iterated_conv_witness(v: Variety, bad: PointSet, point) -> Parallelepiped | None:
    """Search for a parallelepiped based at the point with every corner in
    the variety and outside the bad set.

    The first witness in depth-first order over offsets (last direction
    outermost) is returned; equivalently, the offset tuple minimizing the
    reversed lexicographic order over the surviving offset mask.
    """
    _, allowed = _masks_minus_bad(v, bad)
    idx = _point_index(v.shape, point)
    offsets = _first_offsets(v.shape, allowed, idx)
    if offsets is None:
        return None
    return Parallelepiped(
        v.shape, _point_from_index(v.shape, idx), _point_from_index(v.shape, offsets)
    )


def _masks_minus_bad(v: Variety, bad: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """The variety's bitmap, and that bitmap with the bad set removed, after
    checking that the bad set lies inside the variety."""
    if bad.shape != v.shape:
        raise PreconditionError("bad set must live on the variety's shape")
    wmask = variety_bitmap(v)
    if bool(np.any(bad.mask & ~wmask)):
        raise PreconditionError("bad set must be a subset of the variety")
    return wmask, wmask & ~bad.mask


def _scan_bases(shape: Shape, points: np.ndarray, what: str) -> np.ndarray:
    """The points of a bitmap as an (N, k) array of per-factor ranks in
    enumeration order, charged N*k (one round per base and direction)."""
    budget.charge(int(np.count_nonzero(points)) * shape.k, what)
    return np.argwhere(points).astype(np.int64, copy=False)


def _offset_masks(shape: Shape, bases: np.ndarray, allowed: np.ndarray):
    """Yield (row, surviving offset mask) for every row of `bases`.

    Rows sharing the prefix of their first k-1 ranks are adjacent in
    enumeration order, so the rounds for directions 0..k-2 run once per
    prefix and only the last direction's round runs once per base.  That
    round works on a copy with the last axis first, where a shift gathers
    whole rows; each yielded mask is a view back in the original axis order.
    """
    last = shape.k - 1
    order = (*range(1, shape.k), 0)
    new_prefix = np.ones(len(bases), dtype=bool)
    new_prefix[1:] = (bases[1:, :last] != bases[:-1, :last]).any(axis=1)
    starts = np.flatnonzero(new_prefix).tolist()
    for start, end in zip(starts, [*starts[1:], len(bases)]):
        prefix = _shift_rounds(shape, allowed, bases[start, :last].tolist())
        shared = np.moveaxis(prefix, last, 0).copy()
        for row, t in enumerate(bases[start:end, last].tolist(), start):
            perm = shift_permutation(shape.p, shape.dims[last], t)
            yield row, (shared & shared[perm]).transpose(order)


def _fill_scan(shape: Shape, points: np.ndarray, allowed: np.ndarray, what: str):
    """Witness search at every point of the `points` bitmap.

    Returns (bases, offsets), two (N, k) int64 arrays in enumeration order:
    row j of offsets is _first_offsets(shape, allowed, bases[j]), or -1
    throughout where no witness exists.
    """
    bases = _scan_bases(shape, points, what)
    offsets = np.full(bases.shape, -1, dtype=np.int64)
    for j, out in _offset_masks(shape, bases, allowed):
        found = _first_true(out)
        if found is not None:
            offsets[j] = found
    return bases, offsets


def _first_unfilled(shape: Shape, points: np.ndarray, allowed: np.ndarray, what: str):
    """Ranks of the first point of the `points` bitmap with no witness in
    `allowed`, or None; tests existence only, charged as _fill_scan."""
    bases = _scan_bases(shape, points, what)
    for j, out in _offset_masks(shape, bases, allowed):
        if not out.any():
            return bases[j]
    return None


def bad_set_cap(shape: Shape, codim: int) -> Fraction:
    """Largest bad set the filling argument tolerates on a variety of the
    given codimension: 2**(-2k) p**(-k r) |G|."""
    return Fraction(shape.total_points, 2 ** (2 * shape.k) * shape.p ** (shape.k * codim))


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


def conv_fill_check(v: Variety, bad: PointSet) -> ConvFillReport:
    """Demand a parallelepiped witness at every point of the variety.

    Preconditions (rejected with a diagnostic when violated): the bad set
    lies inside the variety and within bad_set_cap of the representation
    codimension.  Every witness's corners are re-checked against the bad
    set before it counts, in one vectorized pass over all witnessed bases:
    ranks are decoded through the vector table, each base is added to its
    offsets mod p, and the sums are ranked again, so the re-check does not
    depend on the shift tables the search uses.
    """
    shape = v.shape
    wmask, allowed = _masks_minus_bad(v, bad)
    r = v.codim
    cap = bad_set_cap(shape, r)
    if bad.size > cap:
        raise PreconditionError(
            f"bad set of size {bad.size} exceeds the allowed {cap} "
            f"(k={shape.k}, codim={r}, |G|={shape.total_points})"
        )
    bases, offsets = _fill_scan(shape, wmask, allowed, "filling check")
    checked = len(bases)
    witnessed = offsets[:, 0] >= 0
    failures = tuple(_point_from_index(shape, idx) for idx in bases[~witnessed].tolist())
    bases, offsets = bases[witnessed], offsets[witnessed]
    moved = []
    for i, n in enumerate(shape.dims):
        table = all_vectors(shape.p, n)
        coords = table[bases[:, i]]
        coords += table[offsets[:, i]]
        coords %= shape.p
        rank = np.zeros(len(coords), dtype=np.int64)
        for c in range(n):
            rank *= shape.p
            rank += coords[:, c]
        moved.append(rank)
    for subset in range(2**shape.k):
        corner = tuple(
            moved[i] if subset >> i & 1 else offsets[:, i] for i in range(shape.k)
        )
        if not allowed[corner].all():
            raise PreconditionError("witness corner escaped the allowed set")
    return ConvFillReport(
        codim=r,
        bad_size=bad.size,
        bad_cap=cap,
        checked=checked,
        corners_checked=len(offsets) * 2**shape.k,
        failures=failures,
        success=not failures,
    )
