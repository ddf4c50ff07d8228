"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the defining
formulas, without touching the library's vectorized paths: plain-Python
evaluation, bias from the full value distribution, density by point-by-point
membership, row reduction in a different style, and brute-force witness
search.  Tests compare library results against these.  One helper counts
the library's own value-grid evaluations, for the grid-cache tests, and one
replaces the witness search's translation tables, for the failure paths.
"""

from __future__ import annotations

import collections
import itertools
import sys
from fractions import Fraction

import numpy as np

from mlvariety import forms, variety


def enumerate_points(shape):
    """All points of the product group, lexicographic, last coordinate fastest."""
    per_factor = [
        list(itertools.product(range(shape.p), repeat=n)) for n in shape.dims
    ]
    return itertools.product(*per_factor)


def brute_eval(form, point) -> int:
    """Direct sum over coefficient indices with Python integers."""
    p = form.shape.p
    total = 0
    dims = [form.shape.dims[j] for j in form.support]
    for idx in itertools.product(*[range(n) for n in dims]):
        term = int(form.coeffs[idx]) if dims else int(form.coeffs)
        for pos, j in enumerate(form.support):
            term *= point[j][idx[pos]]
        total += term
    return total % p


def brute_bias(form) -> Fraction:
    """Bias from the exact value distribution over the whole domain.

    Counts how often each value occurs; nonzero values must occur equally
    often (checked), and then the phase average collapses to
    (count_0 - count_1) / total because the nonzero roots of unity sum to -1.
    """
    p = form.shape.p
    counts = [0] * p
    total = 0
    for point in enumerate_points(form.shape):
        counts[brute_eval(form, point)] += 1
        total += 1
    nonzero = counts[1:]
    assert all(c == nonzero[0] for c in nonzero), "nonzero values must be equidistributed"
    return Fraction(counts[0] - (nonzero[0] if nonzero else 0), total)


def brute_density(variety) -> Fraction:
    if variety.is_empty:
        return Fraction(0)
    hits = 0
    total = 0
    for point in enumerate_points(variety.shape):
        total += 1
        if all(brute_eval(f, point) == 0 for f in variety.forms):
            hits += 1
    return Fraction(hits, total)


def brute_rank_mod(rows, p: int) -> int:
    """Row rank over F_p by forward elimination only (no back substitution)."""
    work = [list(int(c) % p for c in row) for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        for r in range(rank + 1, len(work)):
            factor = (work[r][col] * inv) % p
            if factor:
                for cc in range(cols):
                    work[r][cc] = (work[r][cc] - factor * work[rank][cc]) % p
        rank += 1
    return rank


def brute_first_witness(shape, allowed, base):
    """Brute-force search over all offset tuples for a full parallelepiped:
    the offsets minimal in reversed lexicographic order (last direction
    compared first), or None when there is none."""
    p = shape.p
    found = []
    for offsets in enumerate_points(shape):
        good = True
        for mask in range(2**shape.k):
            corner = tuple(
                tuple(
                    (o + b) % p if mask >> i & 1 else o
                    for o, b in zip(offsets[i], base[i])
                )
                for i in range(shape.k)
            )
            if corner not in allowed:
                good = False
                break
        if good:
            found.append(offsets)
    return min(found, key=lambda offsets: offsets[::-1], default=None)


def small_dims(rng, k: int, total: int) -> tuple[int, ...]:
    """k dimensions, each at least 1, summing to at most total."""
    dims = []
    left = total
    for i in range(k):
        hi = max(1, min(3, left - (k - i - 1)))
        n = 1 + rng.randrange(hi)
        dims.append(n)
        left -= n
    return tuple(dims)


def count_grid_evaluations(monkeypatch):
    """Counter of (shape, form key) over every evaluation that reaches
    forms._value_grid from eval_grid."""
    seen = collections.Counter()
    original = forms._value_grid

    def counting(p, axis_dims, coeffs):
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "eval_grid"
        form = caller.f_locals["form"]
        seen[(form.shape, form.key())] += 1
        return original(p, axis_dims, coeffs)

    monkeypatch.setattr(forms, "_value_grid", counting)
    return seen


def constant_shift_tables(monkeypatch, rank):
    """Make every translation the witness search uses land on the vector of
    the given rank, so a set missing that rank leaves no witness anywhere."""
    monkeypatch.setattr(
        variety, "shift_permutation", lambda p, n, t: np.full(p**n, rank, dtype=np.int64)
    )
