"""A subvariety certificate and the exact formulas of its ledger and budget.

Budget tracking note.  The codimension budget is affine in
L = ceil(log_p 1/density) for fixed arity and p.  budget_line evaluates the
construction's own ledger formulas (_level_constants) at p = 2, c = 2**-L and
over-approximates the rest by integers (log_p 2 <= 1, L(c/2) <= L(c) + 1), so
an achieved codimension above the budget line is a bug, never bad luck.
budget_line, codim_budget and a level's ledger arithmetic are memoized: they
hold exact values, never points, so no charge or refusal depends on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import PreconditionError
from .forms import ceil_log
from .monomial import Monomial


# Entries kept by each memo of a level's exact ledger arithmetic, whose
# signatures recur across directions, formless sub-levels and instances.
_LEDGER_MEMO_SIZE = 1024


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _fiber_constants(p: int, c: Fraction, arity: int) -> tuple[Monomial, Monomial]:
    """(c', fiber floor) of a level, by the formulas of _level_constants."""
    k = arity - 1
    big_k = arity_constant(k)
    c_prime = Monomial(Fraction(1, 2 ** (2 * k + 1)), p, c, -2 * k * big_k, k * big_k + 1)
    return c_prime, c_prime ** (2**k)


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _fiber_thresholds(p: int, c: Fraction, arity: int, n: int, b: int) -> tuple:
    """(sparse_limit, bad_limit, fiber_floor_count, clamped) of dense_columns
    at a level whose fibers lie in F_p^n over b points x."""
    c_prime, fiber_floor = _fiber_constants(p, c, arity)
    # the fiber over an alive x holds p**(n - rank) points: sparse when at most this
    sparse_limit = math.floor(c_prime * p**n)
    # b_count / b > 2 c' / c exactly when the integer b_count exceeds this floor
    bad_limit = math.floor(c_prime * (2 * b / c))
    # the fiber floor in points, rounded up, and clamped when below one point
    floor_points = fiber_floor * p**n
    return sparse_limit, bad_limit, math.ceil(floor_points), floor_points < 1


@lru_cache(maxsize=_LEDGER_MEMO_SIZE)
def _level_constants(p: int, c: Fraction, arity: int, r: int,
                     max_dim: int | None) -> MappingProxyType:
    """The ledger constants of a level of density c over F_p, keyed by their
    ledger names: the one specification dense_columns, the finder and
    budget_line read.  With k = arity - 1, K = K(k) and r the largest base
    codimension:

      c_prime        = c ** (kK+1) / (2 ** (2k+1) * p ** (2kK))
      fiber floor    = c_prime ** 2**k
      c_double_prime = fiber floor * p ** -(k(k+1) r), raised to the one-point
                       density p ** -max_dim when below it (clamped); max_dim
                       None never clamps
      epsilon        = c_double_prime ** arity / 2
      s              = ceil(log_p 1/epsilon)

    Memoized per signature.  The mapping is read-only, so no caller can
    change what later calls read.
    """
    c_prime, fiber_floor = _fiber_constants(p, c, arity)
    c_dd = fiber_floor * Monomial(Fraction(1), p, c, p_exp=-(arity - 1) * arity * r)
    clamped = False
    if max_dim is not None:
        one_point = Monomial(Fraction(1), p, c, p_exp=-max_dim)
        clamped = c_dd < one_point
        if clamped:
            c_dd = one_point
    eps = c_dd**arity * Fraction(1, 2)
    return MappingProxyType({"c_prime": c_prime, "c_double_prime": c_dd, "epsilon": eps,
                             "s": eps.ceil_log_inverse(), "clamped": clamped})


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
        s = _level_constants(2, Fraction(1, 2**log_inv_c), arity, r, None)["s"]
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


@dataclass(frozen=True)
class SubvarietyCertificate:
    """Machine-checkable record of a subvariety extraction."""

    input_density: Fraction
    output: Variety
    output_codim: int
    budget: int
    ledger: tuple[dict, ...]


def _ledger_record(arity: int, c: Fraction, **extra) -> dict:
    record = dict.fromkeys((
        "path", "arity", "c", "r", "c_prime", "c_double_prime", "epsilon", "s",
        "cylinder_forms", "codim_contribution", "clamped", "directions",
    ))
    record.update(path="", arity=arity, c=c, **extra)
    return record
