"""Prime-field substrate: vectors as plain tuples of residues, reduced row
echelon form, fast lexicographic enumeration of F_p^n at desk scale, and the
one format of fiber rows, (n, B) uint8 arrays with x along the last axis,
with their batched echelon record (Echelon), which only this module builds
and reduces against.

Enumeration order is part of the contract: vectors are listed in lexicographic
order with the last coordinate varying fastest, and every "first point found"
tie-break downstream relies on it.  All values are immutable after
construction, but the enumerating functions check their tables against the
process-global point budget of the ``budget`` module (they add nothing to
its work counter), so they are not pure and not safe to call from several
threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import budget
from .errors import PreconditionError

MAX_PRIME = 17
# The largest sum of factor dimensions a shape may have: |G| = p**sum is
# never enumerated near it, but it bounds every power of p a count forms.
MAX_DIM_SUM = 1 << 16


def validate_prime(p: int) -> int:
    """Check that p is a prime in [2, 17] (the desk-scale guard)."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise PreconditionError(f"modulus must be an int, got {type(p).__name__}")
    if p < 2 or p > MAX_PRIME:
        raise PreconditionError(f"modulus must lie in [2, {MAX_PRIME}], got {p}")
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            raise PreconditionError(f"modulus {p} is not prime")
    return p


def as_coords(v, p: int, dim: int) -> tuple[int, ...]:
    """Coerce a coordinate sequence to a tuple of residues mod p."""
    coords = tuple(int(c) % p for c in v)
    if len(coords) != dim:
        raise PreconditionError(f"dimension mismatch: {len(coords)} vs {dim}")
    return coords


# ---------------------------------------------------------------------------
# Enumeration and index arithmetic
# ---------------------------------------------------------------------------

def vector_index(p: int, coords: Sequence[int]) -> int:
    """Rank of a vector in enumeration order."""
    idx = 0
    for c in coords:
        idx = idx * p + (int(c) % p)
    return idx


def vector_from_index(p: int, dim: int, idx: int) -> tuple[int, ...]:
    """Inverse of vector_index."""
    out = []
    for _ in range(dim):
        out.append(idx % p)
        idx //= p
    return tuple(reversed(out))


def all_vectors(p: int, n: int) -> np.ndarray:
    """(p**n, n) table of all vectors of F_p^n, rows in enumeration order.

    The table is memoized, but the prime and the point budget are checked
    on every call, so a cached table is refused exactly when a fresh one
    would be.  cache_info and cache_clear are the memo's.
    """
    validate_prime(p)
    budget.ensure(p**n, "vector table")
    return _vector_table(p, n)


@lru_cache(maxsize=None)
def _vector_table(p: int, n: int) -> np.ndarray:
    arr = np.empty((p**n, n), dtype=np.uint8)
    for t in range(n):
        # digit t steps through the residues in runs of p**(n - 1 - t)
        arr[:, t].reshape(p**t, p, -1)[:] = np.arange(p, dtype=np.uint8)[:, None]
    arr.setflags(write=False)
    return arr


all_vectors.cache_info = _vector_table.cache_info
all_vectors.cache_clear = _vector_table.cache_clear


def shift_rows(p: int, n: int, shifts, cells=None) -> np.ndarray:
    """Rows of the translation tables of F_p^n for an array of shifts:
    entry [..., c] is the rank of (vector cells[c]) + (vector shifts[...]),
    an int64 array of shape shifts.shape + cells' shape.  `cells`, an int
    or an array of ranks used as given, defaults to all p**n of them.  The
    filling scan and the partition-rank search both translate here.

    At p = 2 a translation by u flips the bits of the rank where u has
    ones, so a row is the cell ranks XOR u.  Otherwise the digits of the
    two vectors, read from the memoized vector table, are added with one
    conditional subtraction of p each and ranked again, so besides the
    result it holds two uint8 digit arrays.  The point budget is checked
    on every call.
    """
    budget.ensure(p**n, "translation table")
    shifts = np.asarray(shifts, dtype=np.int64)
    ranks = np.asarray(np.arange(p**n) if cells is None else cells, dtype=np.int64)
    if p == 2:
        return np.bitwise_xor.outer(shifts, ranks)
    table = all_vectors(p, n)
    at_cells, at_shifts = table[ranks], table[shifts]
    out = np.zeros(shifts.shape + ranks.shape, dtype=np.int64)
    for t in range(n):
        digit = np.asarray(np.add.outer(at_shifts[..., t], at_cells[..., t]))
        # digit - p wraps above digit unless digit >= p
        np.minimum(digit, digit - p, out=digit)
        out *= p
        out += digit
    return out


def shift_permutation(p: int, n: int, shift: int) -> np.ndarray:
    """Index permutation of F_p^n realizing v -> v + u, where u is the
    vector of rank `shift`: entry t is the rank of (vector t) + u.  This
    is shift_rows' one-row case, memoized.

    Memoized like all_vectors, with the point budget checked on every call;
    cache_info and cache_clear are the memo's.
    """
    budget.ensure(p**n, "translation table")
    return _shift_table(p, n, shift)


@lru_cache(maxsize=None)
def _shift_table(p: int, n: int, shift: int) -> np.ndarray:
    perm = shift_rows(p, n, shift)
    perm.setflags(write=False)
    return perm


shift_permutation.cache_info = _shift_table.cache_info
shift_permutation.cache_clear = _shift_table.cache_clear


# ---------------------------------------------------------------------------
# Gaussian elimination
# ---------------------------------------------------------------------------

def rref(rows, p: int, width: int | None = None) -> np.ndarray:
    """Reduced row echelon form over F_p, zero rows dropped."""
    mat = [list(r) for r in rows]
    if not mat:
        return np.zeros((0, width or 0), dtype=np.uint8)
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    if width is not None and width != ncols:
        raise PreconditionError(f"row width mismatch: {ncols} vs {width}")
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, nrows):
            if a[r, col]:
                sel = r
                break
        if sel is None:
            continue
        if sel != pivot_row:
            a[[pivot_row, sel]] = a[[sel, pivot_row]]
        inv = pow(int(a[pivot_row, col]), -1, p)
        a[pivot_row] = (a[pivot_row] * inv) % p
        for r in range(nrows):
            if r != pivot_row and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[pivot_row]) % p
        pivot_row += 1
        if pivot_row == nrows:
            break
    return a[:pivot_row].astype(np.uint8)


@dataclass(frozen=True)
class Echelon:
    """Echelon bases of many row spaces over F_p, one for each of B points
    x, kept as P pairs (batched_echelon): `rows`, a (P, n, B) uint8 array
    whose pair k is the (n, B) row k with x along the last axis, and, each
    a (P, B) array, `pivots`, the pivot column of each pair at each x (0
    where the pair is zero), and `nonzero`, where the pair is nonzero.
    `rank`, a (B,) array, counts the pairs nonzero at each x.
    """

    rows: np.ndarray
    pivots: np.ndarray
    nonzero: np.ndarray
    rank: np.ndarray


def _reduced(t: np.ndarray, p: int) -> np.ndarray:
    # numpy divides by a constant far faster than it takes a remainder
    return (t - t // p * p).astype(np.uint8)


def _clear(rest: np.ndarray, pivot: np.ndarray, brow: np.ndarray, p: int) -> None:
    """Subtract in place from each (n, B) row of the contiguous (m, n, B)
    array rest its entry in the pivot column at each x times brow, along x;
    XOR does the arithmetic at p = 2."""
    m, n, b = rest.shape
    coef = rest.reshape(m, n * b).take(pivot * b + np.arange(b), axis=1)[:, None, :]
    if p == 2:
        rest ^= brow & coef
    else:
        # a residue plus p times a residue stays below p**2
        rest[:] = _reduced(rest + (p - coef).astype(np.min_scalar_type(p * p - 1)) * brow, p)


def batched_echelon(rows, p: int, basis: Echelon | None = None) -> Echelon:
    """Echelon bases of many row spaces over F_p at once, one per x.

    Each row is an (n, B) uint8 array, the layout rows built from value
    grids have, whose column x belongs to system x, or `rows` is their
    (count, n, B) stack, which alone gives n and B when there are neither
    rows nor a basis.  The result extends `basis`, an earlier result for
    the same systems, by one pair per given row: its residual against
    `basis` reduced against every pair before it and scaled to a 1 in its
    pivot column, its last nonzero one, where it is independent of them,
    zero where it is not.  So the rank at x counts the pairs nonzero there,
    and at each x the columns at the pivots of the nonzero pairs span the
    column space (on those columns the pairs are triangular with a unit
    diagonal).  Each pair clears its pivot column from all the rows after
    it in one step.
    """
    rest = np.array(rows, dtype=np.uint8) if basis is None else residual(rows, p, basis)
    count, n, b = rest.shape
    pivots = np.zeros((count, b), dtype=np.intp)
    nonzero = np.zeros((count, b), dtype=bool)
    columns = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    if p > 2:
        inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.uint8)
    for k in range(count):
        row = rest[k]
        marks = row != 0
        nonzero[k] = marks.any(axis=0)
        # the last nonzero column, by a max over the columns (0 where none)
        pivots[k] = (marks * columns).max(axis=0)
        if p > 2:
            lead = inverse.take(row[pivots[k], np.arange(b)])
            row[:] = _reduced(row * lead.astype(np.min_scalar_type(p * p - 1)), p)
        if k + 1 < count:
            _clear(rest[k + 1:], pivots[k], row, p)
    if basis is not None:
        rest = np.concatenate([basis.rows, rest])
        pivots = np.concatenate([basis.pivots, pivots])
        nonzero = np.concatenate([basis.nonzero, nonzero])
    return Echelon(rest, pivots, nonzero, nonzero.sum(axis=0))


def residual(rows, p: int, basis: Echelon) -> np.ndarray:
    """The (count, n, B) stack of the given (n, B) rows, each reduced
    against the pairs of `basis` in order, the clearing batched_echelon
    starts an extension with.  A row's residual is zero at x exactly where
    the row lies in the span of the basis there: it is zero at every pivot,
    and the only element of that span zero at every pivot is zero."""
    rest = np.array(rows, dtype=np.uint8).reshape((len(rows),) + basis.rows.shape[1:])
    for pivot, brow in zip(basis.pivots, basis.rows):
        _clear(rest, pivot, brow, p)
    return rest
