"""A subvariety certificate and the exact formulas of its ledger and budget.

The ledger is a tree of frozen Nodes, one per level of the induction over
arity, each with one child per direction and deriving what the formulas
below give, so it cannot disagree with them.

Budget tracking note.  The codimension budget is affine in
L = ceil(log_p 1/density) for fixed arity and p.  budget_line evaluates the
construction's own ledger formulas (_level_constants) at p = 2, c = 2**-L and
over-approximates the rest by integers (log_p 2 <= 1, L(c/2) <= L(c) + 1), so
an achieved codimension above the budget line is a bug, never bad luck.
budget_line, codim_budget and a level's ledger arithmetic are memoized: they
hold exact values, never points, so no charge or refusal depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import PreconditionError
from .forms import ceil_log
from .monomial import Monomial
from .variety import Variety


# Entries kept by each memo of a level's exact ledger arithmetic, whose
# signatures recur across directions, formless sub-levels and instances.
_LEDGER_MEMO_SIZE = 1024


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _fiber_constants(p: int, c: Fraction, arity: int) -> tuple[Monomial, Monomial]:
    """(c', fiber floor) of a level, by the formulas of _level_constants."""
    k = arity - 1
    big_k = arity_constant(k)
    c_prime = Monomial(p, c, -(2 * k + 1), -2 * k * big_k, k * big_k + 1)
    return c_prime, c_prime ** (2**k)


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _fiber_thresholds(p: int, c: Fraction, arity: int, n: int,
                      m: int) -> tuple[int, Monomial]:
    """(sparse_rank, bad_limit) of dense_columns at a level whose fibers
    lie in F_p^n over b = p**m points x: a fiber of rank r holds p**(n - r)
    points, sparse when at most c' * p**n, that is when r >= sparse_rank."""
    c_prime, _ = _fiber_constants(p, c, arity)
    # the least r with c' * p**r >= 1, or n + 1 when no r <= n has it
    sparse_rank = c_prime.ceil_log_inverse() if c_prime.times(p_exp=n) >= 1 else n + 1
    # b_count / b > 2 c' / c exactly when b_count exceeds 2 c' p**m / c
    return sparse_rank, c_prime.times(two=1, p_exp=m, c_exp=-1)


@dataclass(frozen=True)
class LevelConstants:
    c_prime: Monomial
    c_double_prime: Monomial
    epsilon: Monomial
    s: int
    clamped: bool


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _level_constants(p: int, c: Fraction, arity: int, r: int,
                     max_dim: int | None) -> LevelConstants:
    """The ledger constants of a level of density c over F_p, as a frozen
    record: the one specification dense_columns, the finder and budget_line
    read.  With k = arity - 1, K = K(k) and r the largest base codimension:

      c_prime        = c ** (kK+1) / (2 ** (2k+1) * p ** (2kK))
      fiber floor    = c_prime ** 2**k
      c_double_prime = fiber floor * p ** -(k(k+1) r), raised to the one-point
                       density p ** -max_dim when below it (clamped); max_dim
                       None never clamps
      epsilon        = c_double_prime ** arity / 2
      s              = ceil(log_p 1/epsilon)

    Memoized per signature.  The record is frozen, so no caller can change
    what later calls read.
    """
    c_prime, fiber_floor = _fiber_constants(p, c, arity)
    c_dd = fiber_floor.times(p_exp=-(arity - 1) * arity * r)
    clamped = False
    if max_dim is not None:
        one_point = Monomial(p, c, p_exp=-max_dim)
        clamped = c_dd < one_point
        if clamped:
            c_dd = one_point
    eps = (c_dd**arity).times(-1)
    return LevelConstants(c_prime, c_dd, eps, eps.ceil_log_inverse(), clamped)


@lru_cache(maxsize=None)
def budget_line(arity: int) -> tuple[int, int]:
    """(slope, intercept) of the codimension budget in L = ceil(log_p 1/c).

    Arity 1 is exact: a subspace of density c has codimension exactly
    log_p 1/c.  A higher arity's final codimension is s + arity**2 * r, with
    s from _level_constants and r bounded by the lower arity's line on a
    half-dense slice, r <= slope*(L+1) + intercept.  At p = 2, c = 2**-L and
    no clamp every constant is a power of 2 whose exponent is affine in L, so
    that codimension is affine in L and two evaluations give the line.  It
    bounds every p, since log_p 2 <= 1.
    """
    if arity < 1:
        raise PreconditionError("arity must be at least 1")
    if arity == 1:
        return (1, 0)
    slope, intercept = budget_line(arity - 1)

    def final_codim(log_inv_c: int) -> int:
        r = slope * (log_inv_c + 1) + intercept
        s = _level_constants(2, Fraction(1, 2**log_inv_c), arity, r, None).s
        return s + arity**2 * r

    at_zero = final_codim(0)
    return (final_codim(1) - at_zero, at_zero)


def arity_constant(arity: int) -> int:
    """The single constant K(arity): budget <= K * (log_p 1/c + 1)."""
    slope, intercept = budget_line(arity)
    return slope + intercept


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def codim_budget(arity: int, p: int, c: Fraction) -> int:
    """Certified codimension budget for a variety of the given density."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise PreconditionError("density must lie in (0, 1]")
    slope, intercept = budget_line(arity)
    return slope * ceil_log(p, 1 / c) + intercept


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _clamps(p: int, c: Fraction, arity: int, dims: tuple[int, ...]) -> tuple[bool, ...]:
    """One flag per direction of a level with these dims: whether the fiber
    floor times p**n, n the direction's dimension, falls below one point."""
    _, fiber_floor = _fiber_constants(p, c, arity)
    return tuple(fiber_floor.times(p_exp=n) < 1 for n in dims)


@dataclass(frozen=True)
class Node:
    """A ledger level as the finder chose or measured it, with one
    (slice_point, min_fiber_density) pair and one sub-level per direction;
    a leaf (arity 1, or density 1) has none and cylinder_forms None.  A
    level derives r, dims (its slice points' lengths), constants and one
    clamp per direction.  No shape is stored, so leaves of different
    shapes can be equal.  Sub-problems solved once share one Node, so
    hashing or comparing Nodes walks every path."""

    p: int
    arity: int
    c: Fraction
    codim_contribution: int
    cylinder_forms: int | None
    slices: tuple[tuple[tuple[int, ...], Fraction], ...]
    children: tuple[Node, ...]

    @cached_property
    def r(self) -> int:
        return max(child.codim_contribution for child in self.children)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(point) for point, _ in self.slices)

    @cached_property
    def constants(self) -> LevelConstants:
        return _level_constants(self.p, self.c, self.arity, self.r, max(self.dims))

    @cached_property
    def clamped(self) -> tuple[bool, ...]:
        return _clamps(self.p, self.c, self.arity, self.dims)


@dataclass(frozen=True)
class SubvarietyCertificate:
    """Machine-checkable record of a subvariety extraction; its ledger is
    the top level's Node."""

    input_density: Fraction
    output: Variety
    output_codim: int
    budget: int
    ledger: Node | None


def child_path(path: str, i: int) -> str:
    """The path of the sub-level in direction i of the level at path."""
    return f"{path}/{i}" if path else f"{i}"


def ledger_paths(node: Node | None, path: str = "") -> list[tuple[str, Node]]:
    """The ledger below node as (path, node) pairs, one per path, parent
    first: "" at the top, P/i below P in direction i."""
    if node is None:
        return []
    pairs = [(path, node)]
    for i, child in enumerate(node.children):
        pairs += ledger_paths(child, child_path(path, i))
    return pairs
