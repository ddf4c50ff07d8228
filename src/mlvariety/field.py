"""Prime-field substrate: vectors as plain tuples of residues, echelon-form
subspaces, and fast lexicographic enumeration of F_p^n at desk scale.

Enumeration order is part of the contract: vectors are listed in lexicographic
order with the last coordinate varying fastest, and every "first point found"
tie-break downstream relies on it.  All values are immutable after
construction, but the enumerating functions read the process-global point
budget and add to the work counter of the ``budget`` module, so they are
not pure and not safe to call from several threads at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import budget
from .errors import PreconditionError

MAX_PRIME = 17


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


@lru_cache(maxsize=None)
def all_vectors(p: int, n: int) -> np.ndarray:
    """(p**n, n) table of all vectors of F_p^n, rows in enumeration order."""
    validate_prime(p)
    budget.ensure(p**n, "vector table")
    if n == 0:
        arr = np.zeros((1, 0), dtype=np.uint8)
    else:
        r = np.arange(p**n, dtype=np.int64)
        cols = [(r // p ** (n - 1 - t)) % p for t in range(n)]
        arr = np.stack(cols, axis=1).astype(np.uint8)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def shift_permutation(p: int, n: int, shift: int) -> np.ndarray:
    """Index permutation of F_p^n realizing v -> v + u, where u is the
    vector of rank `shift`: entry t is the rank of (vector t) + u."""
    table = all_vectors(p, n).astype(np.int64)
    moved = (table + table[shift]) % p
    powers = np.array([p ** (n - 1 - t) for t in range(n)], dtype=np.int64)
    perm = moved @ powers if n else np.zeros(1, dtype=np.int64)
    perm.setflags(write=False)
    return perm


# ---------------------------------------------------------------------------
# Gaussian elimination and subspaces
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
class Subspace:
    """Row space in reduced echelon form: nonzero rows, pivots strictly
    increasing, pivot columns cleared above and below."""

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        validate_prime(self.p)
        basis = tuple(as_coords(row, self.p, self.ambient_dim) for row in self.basis)
        object.__setattr__(self, "basis", basis)
        pivots = []
        for row in basis:
            pivot = next((i for i, c in enumerate(row) if c), None)
            if pivot is None or (pivots and pivot <= pivots[-1]):
                raise PreconditionError("basis is not in reduced echelon form")
            if row[pivot] != 1:
                raise PreconditionError("pivot entries must be 1")
            pivots.append(pivot)
        for r, row in enumerate(basis):
            for rr, col in enumerate(pivots):
                if rr != r and row[col] != 0:
                    raise PreconditionError("pivot columns must be cleared")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.rank

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, c in enumerate(row) if c) for row in self.basis)

    def matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.uint8).reshape(self.rank, self.ambient_dim)


def echelonize(vectors: Iterable, p: int, ambient_dim: int) -> Subspace:
    """Span of the given coordinate rows in F_p^ambient_dim, as a
    reduced-echelon Subspace."""
    validate_prime(p)
    rows = [as_coords(v, p, ambient_dim) for v in vectors]
    return Subspace(p, ambient_dim, tuple(rref(rows, p, width=ambient_dim)))


def subspace_contains(s: Subspace, v) -> bool:
    """True iff v reduces to zero against the echelon basis."""
    coords = list(as_coords(v, s.p, s.ambient_dim))
    for row, pivot in zip(s.basis, s.pivots()):
        coeff = coords[pivot]
        if coeff:
            for i, c in enumerate(row):
                coords[i] = (coords[i] - coeff * c) % s.p
    return not any(coords)


def subspace_points(s: Subspace) -> Iterator[tuple[int, ...]]:
    """All p**rank points of the subspace, in combination-lexicographic order."""
    budget.charge(s.p**s.rank, "subspace enumeration")
    for combo in itertools.product(range(s.p), repeat=s.rank):
        acc = [0] * s.ambient_dim
        for coeff, row in zip(combo, s.basis):
            if coeff:
                for i, c in enumerate(row):
                    acc[i] = (acc[i] + coeff * c) % s.p
        yield tuple(acc)


def annihilator(s: Subspace) -> Subspace:
    """Vectors w with w . v = 0 for every v in s; rank = ambient_dim - rank(s)."""
    n, p = s.ambient_dim, s.p
    piv = set(s.pivots())
    rows = s.matrix().astype(np.int64)
    out = []
    pivot_list = s.pivots()
    for free in range(n):
        if free in piv:
            continue
        w = [0] * n
        w[free] = 1
        for r, pcol in enumerate(pivot_list):
            w[pcol] = (-int(rows[r, free])) % p
        out.append(w)
    return echelonize(out, p=p, ambient_dim=n)
