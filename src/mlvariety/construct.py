"""The constructive pipeline: external approximation by few forms, extraction
of a base variety whose fibers in a chosen direction are all dense, and the
recursive subvariety finder with certificate emission and verification.

Every guarantee that the construction relies on is re-checked exhaustively at
desk scale before a certificate is emitted: slice quality, filling witnesses,
fiber floors, and the final set equality between the approximating variety
and its target.  Certificates carry a ledger of the exact constants used at
each recursion level so an auditor can replay the accounting.

Budget tracking note.  The codimension budget is affine in
L = ceil(log_p 1/density) for fixed arity and p.  budget_line evaluates the
construction's own ledger formulas (_level_constants) at p = 2, c = 2**-L and
over-approximates the rest by integers (log_p 2 <= 1, L(c/2) <= L(c) + 1), so
an achieved codimension above the budget line is a bug, never bad luck.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import budget, fibers
from .errors import (
    ApproxMismatchError,
    ConstructionError,
    EmptyVarietyError,
    PreconditionError,
)
from .field import all_vectors, vector_from_index
from .forms import (
    MultilinearForm,
    MultilinearMap,
    _grid_scope,
    _scoped_cache,
    ceil_log,
    eval_grid,
)
from .monomial import Monomial
from .variety import (
    Variety,
    _fill_scan,
    _point_from_index,
    _variety_key,
    bad_set_cap,
    slice_variety,
    variety_bitmap,
)


# ---------------------------------------------------------------------------
# Codimension budget
# ---------------------------------------------------------------------------

def _fiber_constants(p: int, c: Fraction, arity: int) -> tuple[Monomial, Monomial]:
    """(c', fiber floor) of a level, by the formulas of _level_constants."""
    k = arity - 1
    big_k = arity_constant(k)
    c_prime = Monomial(Fraction(1, 2 ** (2 * k + 1)), p, c, -2 * k * big_k, k * big_k + 1)
    return c_prime, c_prime ** (2**k)


def _level_constants(p: int, c: Fraction, arity: int, r: int, max_dim: int | None) -> dict:
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
    return {"c_prime": c_prime, "c_double_prime": c_dd, "epsilon": eps,
            "s": eps.ceil_log_inverse(), "clamped": clamped}


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


def codim_budget(arity: int, p: int, c: Fraction) -> int:
    """Certified codimension budget for a variety of the given density."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise PreconditionError("density must lie in (0, 1]")
    slope, intercept = budget_line(arity)
    return slope * ceil_log(p, 1 / c) + intercept


# ---------------------------------------------------------------------------
# External approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxResult:
    """Approximating map phi with {source = 0} contained in {phi = 0}."""

    phi: MultilinearMap
    error_count: int
    error_cap: Fraction
    survivors_per_step: tuple[int, ...]


@_grid_scope()
def external_approx(source: MultilinearMap, s: int) -> ApproxResult:
    """Approximate {source = 0} externally by s functionals of the codomain.

    Greedy derandomized selection: keep the survivor set of points where the
    source is nonzero but every chosen functional kills its value, and at
    each step take the lexicographically first functional minimizing the new
    survivor count.  Averaging over the full dual space guarantees a
    functional cutting the survivors by a factor of p (for a fixed nonzero
    value, exactly a 1/p fraction of functionals vanish on it), so after s
    steps at most p**-s |G| survivors remain; those are exactly the
    approximation error, which is counted and returned.

    Survival depends only on a point's value vector, so the greedy runs on a
    histogram of vector ranks, with kills tabulated per occupied rank after
    the budget admits the p**m * |G_S| "functional scan" each live step still
    charges (the per-point price, kept until the transform of ROADMAP item 8a
    sets what a step touches).
    The functional table is built, and its budget checked, before any pass
    over G_S, and the ranks are held in the narrowest unsigned type holding
    p**m - 1 (one byte while p**m <= 256).

    Each distinct chosen functional gives one form, which phi repeats where
    the greedy chose it again (once no survivor is left it keeps choosing the
    zero functional).  Containment is checked on the value grids of the
    distinct nonzero phi components themselves, each folded into the common
    zero mask once, never on values derived from the chosen functionals; a
    zero component vanishes everywhere, so it needs no grid.
    """
    if s < 0:
        raise PreconditionError("the number of functionals must be non-negative")
    shape = source.shape
    p = shape.p
    m = source.codomain_dim
    support_dims = tuple(shape.dims[j] for j in source.support)
    support_total = p ** sum(support_dims)
    outside_mult = shape.total_points // support_total
    # Dot products are at most m (p-1)^2, exact in the narrowest type holding it.
    functionals = all_vectors(p, m).astype(np.min_scalar_type(m * (p - 1) ** 2))
    codes = np.zeros(support_total, dtype=np.min_scalar_type(p**m - 1))
    for f in source.components:
        codes *= p
        codes += eval_grid(f).reshape(-1)
    source_zero = codes == 0
    hist = np.bincount(codes)
    occupied = np.flatnonzero(hist)
    hist = hist[occupied]
    alive = occupied != 0
    if s and alive.any():
        budget.ensure(p**m * support_total, "functional scan")
    kills = functionals @ functionals[occupied].T
    kills = np.remainder(kills, p, out=kills) == 0
    chosen = []
    per_step = []
    for _ in range(s):
        if alive.any():
            budget.charge(p**m * support_total, "functional scan")
            best = int(np.argmin((kills & alive) @ hist))
            alive &= kills[best]
        else:
            best = 0
        chosen.append(best)
        per_step.append(int(hist[alive].sum()))
    stacked = np.array(
        [f.coeffs for f in source.components], dtype=np.int64
    ).reshape(m, *support_dims)
    built = {
        best: MultilinearForm(
            shape, source.support,
            np.tensordot(functionals[best], stacked, axes=([0], [0])),
        )
        for best in dict.fromkeys(chosen)
    }
    phi = MultilinearMap(shape, source.support, [built[best] for best in chosen])
    phi_zero = np.ones(support_total, dtype=bool)
    for f in dict.fromkeys(built.values()):
        if not f.is_zero():
            phi_zero &= eval_grid(f).reshape(-1) == 0
    if bool(np.any(source_zero & ~phi_zero)):
        raise ConstructionError("containment of the source zero set failed")
    error_count = int(np.count_nonzero(phi_zero & ~source_zero)) * outside_mult
    cap = Fraction(shape.total_points, p**s)
    if error_count > cap:
        raise ConstructionError(
            f"approximation error {error_count} exceeds the guaranteed {cap}"
        )
    return ApproxResult(phi, error_count, cap, tuple(per_step))


# ---------------------------------------------------------------------------
# Dense fibers in one direction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseColumnsResult:
    """A base variety all of whose fibers in one direction are dense.

    base lives on the factors other than `direction`; every point of it has
    at least fiber_floor_count points of the input variety in its fiber, the
    level's fiber floor (_fiber_constants) times the fiber size, rounded up.
    min_fiber_count is the exhaustively measured minimum.  clamped records
    the desk-scale regime where the floor fell below one point and
    nonemptiness is the operative guarantee.
    """

    direction: int
    slice_point: tuple[int, ...]
    base: Variety
    base_certificate: "SubvarietyCertificate"
    bad_count: int
    fiber_floor_count: int
    min_fiber_count: int
    min_fiber_density: Fraction
    clamped: bool


def dense_columns(v: Variety, direction: int) -> DenseColumnsResult:
    """Find a low-codimension base variety with uniformly dense fibers.

    Scans the chosen direction lexicographically for the first slice that is
    at least half as dense as the input and carries few fiber-sparse points
    (the averaging identity guarantees one exists; failing to find one is an
    internal error).  The lower-arity finder then produces the base variety
    inside that slice, and a parallelepiped witness at every base point
    transfers fiber density from the slice to the whole base: the fiber over
    the base point contains the intersection of the 2**k corner fibers, each
    a subspace of density above c', so its density is at least c' ** 2**k.
    The witnesses come from the same search conv_fill_check runs, over every
    base point: the zero offset settles most base points in one vectorized
    pre-check, the offsets with last offset 0 most of the rest in a
    vectorized first-row pass, and only what is left is scanned in full.
    The first base point without a witness is named in the error.
    All of this is verified exhaustively before returning.  Called from the
    finder, it reads the input's bitmap from the grid scope, where _solve
    built it, so one bitmap serves a sub-problem and all its directions.
    """
    shape = v.shape
    if shape.k < 2:
        raise PreconditionError("dense fiber extraction needs at least two factors")
    if not 0 <= direction < shape.k:
        raise PreconditionError("direction outside the shape")
    p = shape.p
    vmask = variety_bitmap(v)
    if v.is_empty:
        raise EmptyVarietyError("dense fiber extraction needs a nonempty variety")
    total = shape.total_points
    c = Fraction(int(np.count_nonzero(vmask)), total)
    c_prime, fiber_floor = _fiber_constants(p, c, shape.k)
    direction_size = shape.group_sizes[direction]
    other_total = total // direction_size
    # A fiber count is at most direction_size, exact in the narrowest type
    # holding it.
    fiber_counts = vmask.view(np.uint8).sum(
        axis=direction, dtype=np.min_scalar_type(direction_size)
    )
    fiber_sparse = fiber_counts <= math.floor(c_prime * direction_size)
    # b / other_total > 2 c' / c exactly when the integer b exceeds this floor
    bad_limit = math.floor(c_prime * (2 * other_total / c))

    for t in range(direction_size):
        u_mask = np.take(vmask, t, axis=direction)
        if Fraction(int(np.count_nonzero(u_mask)), other_total) < c / 2:
            continue
        b_count = int(np.count_nonzero(u_mask & fiber_sparse))
        if b_count <= bad_limit:
            break
    else:
        raise ConstructionError(
            "no qualifying slice found; the averaging identity forbids this"
        )
    slice_point = vector_from_index(p, shape.dims[direction], t)
    u_var = slice_variety(v, [direction], [slice_point])
    sub_cert = find_subvariety(u_var)
    base = sub_cert.output
    base_mask = variety_bitmap(base)
    if bool(np.any(base_mask & ~u_mask)):
        raise ConstructionError("base variety escaped its slice")
    r_base = sub_cert.output_codim
    bad_mask = u_mask & fiber_sparse
    bad_in_base = int(np.count_nonzero(bad_mask & base_mask))
    cap = bad_set_cap(base.shape, r_base)
    if bad_in_base > cap:
        raise ConstructionError(
            f"bad set of size {bad_in_base} exceeds the filling cap {cap}"
        )
    allowed = base_mask & ~bad_mask
    bases = np.argwhere(base_mask)
    offsets = _fill_scan(base.shape, bases, allowed, "fiber filling")
    unfilled = bases[offsets[:, 0] < 0]
    if len(unfilled):
        point = _point_from_index(base.shape, unfilled[0])
        raise ConstructionError(f"no filling witness at base point {point}")
    floor_points = fiber_floor * direction_size
    clamped = floor_points < 1
    fiber_floor_count = math.ceil(floor_points)
    min_fiber_count = int(fiber_counts[base_mask].min())
    if min_fiber_count < fiber_floor_count:
        raise ConstructionError(
            f"measured fiber minimum {min_fiber_count} fell below the certified "
            f"floor {fiber_floor_count}"
        )
    return DenseColumnsResult(
        direction=direction,
        slice_point=slice_point,
        base=base,
        base_certificate=sub_cert,
        bad_count=b_count,
        fiber_floor_count=fiber_floor_count,
        min_fiber_count=min_fiber_count,
        min_fiber_density=Fraction(min_fiber_count, direction_size),
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# The subvariety finder
# ---------------------------------------------------------------------------

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


# Sub-problems solved in the open finder scope: subproblem key ->
# certificate; None when no scope is open.
_SOLVED: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "mlvariety_solved", default=None
)


@_grid_scope()
def find_subvariety(v: Variety) -> SubvarietyCertificate:
    """Extract a nonempty subvariety whose codimension fits the budget line.

    Arity 1: the input is a subspace; its echelonized defining forms are the
    output, with codimension exactly ceil(log_p 1/density).

    Higher arity: for every direction, extract a dense-fiber base variety;
    pool every base-defining form by the directions it avoids into cylinder
    constraints; approximate the input's full-support forms externally with
    enough functionals that the approximation cannot strictly exceed the
    cylinder-constrained target; verify the resulting variety equals the
    target point by point and is contained in the input.

    The whole extraction, recursion included, runs in one grid scope, so
    each distinct form is evaluated once and each distinct variety's bitmap
    is built once (the input's serves _solve and every direction, and a
    candidate whose canonical forms equal its target's reuses the target's),
    and in one memo scope, so each distinct sub-problem (shape and raw
    defining list) is solved once: the recursion slices the same sub-variety
    along many paths.  A hit returns the stored grid, bitmap or certificate
    and charges nothing: its passes already ran once under the same budget,
    so the certificate and every refusal are those of a solve without
    either cache.  Both scopes close on return or on a raise.
    """
    with _scoped_cache(_SOLVED):
        solved = _SOLVED.get()
        key = _variety_key(v)
        if key not in solved:
            solved[key] = _solve(v)
        return solved[key]


def _solve(v: Variety) -> SubvarietyCertificate:
    shape = v.shape
    p = shape.p
    vmask = variety_bitmap(v)
    if v.is_empty:
        raise EmptyVarietyError("the subvariety finder needs a nonempty variety")
    total = shape.total_points
    c = Fraction(int(np.count_nonzero(vmask)), total)
    bud = codim_budget(shape.k, p, c)

    if shape.k == 1:
        canon = v.canonical()
        out_mask = variety_bitmap(canon)
        if not np.array_equal(out_mask, vmask):
            raise ConstructionError("echelonized defining forms changed the zero set")
        codim = len(canon.forms)
        if c != Fraction(1, p**codim):
            raise ConstructionError(
                f"subspace density {c} does not match codimension {codim}"
            )
        ledger = (_ledger_record(1, c, codim_contribution=codim),)
        return SubvarietyCertificate(c, canon, codim, bud, ledger)

    results = [dense_columns(v, direction=i) for i in range(shape.k)]
    r_max = max(res.base_certificate.output_codim for res in results)

    embedded: list[MultilinearForm] = []
    direction_info = []
    for i, res in enumerate(results):
        remaining = [j for j in range(shape.k) if j != i]
        for f in res.base.forms:
            support_full = tuple(remaining[j] for j in f.support)
            embedded.append(MultilinearForm(shape, support_full, f.coeffs))
        direction_info.append(
            {
                "direction": i,
                "slice_point": list(res.slice_point),
                "base_codim": res.base_certificate.output_codim,
                "min_fiber_density": res.min_fiber_density,
                "clamped": res.clamped,
            }
        )
    cylinders = Variety(shape, embedded).canonical()
    target = Variety(shape, v.forms + cylinders.forms).canonical()
    target_mask = variety_bitmap(target)

    level = _level_constants(p, c, shape.k, r_max, max(shape.dims))

    full_support = tuple(range(shape.k))
    full_forms = [f for f in target.forms if f.support == full_support]
    source = MultilinearMap(shape, full_support, full_forms)
    approx = external_approx(source, level["s"])

    candidate = Variety(
        shape, tuple(approx.phi.components) + cylinders.forms
    ).canonical()
    candidate_mask = variety_bitmap(candidate)

    if bool(np.any(target_mask & ~candidate_mask)):
        raise ConstructionError("approximation lost a point of its target")
    extra = candidate_mask & ~target_mask
    extra_count = int(np.count_nonzero(extra))
    if extra_count:
        point = _point_from_index(shape, np.argwhere(extra)[0])
        raise ApproxMismatchError(
            f"approximation strictly exceeds its target at {point} "
            f"({extra_count} extra points)",
            point=point,
            extra_count=extra_count,
            extra_floor=level["c_double_prime"]**shape.k * total,
        )

    if bool(np.any(candidate_mask & ~vmask)):
        raise ConstructionError("the extracted subvariety escaped the input")
    codim = len(candidate.forms)
    if codim > bud:
        raise ConstructionError(
            f"achieved codimension {codim} exceeds the budget {bud}"
        )

    ledger = [
        _ledger_record(
            shape.k,
            c,
            r=r_max,
            **level,
            cylinder_forms=len(cylinders.forms),
            codim_contribution=codim,
            directions=direction_info,
        )
    ]
    for i, res in enumerate(results):
        for record in res.base_certificate.ledger:
            path = f"{i}/{record['path']}" if record["path"] else f"{i}"
            ledger.append({**record, "path": path})
    return SubvarietyCertificate(c, candidate, codim, bud, tuple(ledger))


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateCheck:
    """Three-flag report from re-checking a certificate against its input."""

    containment_ok: bool
    nonempty_ok: bool
    codim_ok: bool
    budget: int

    @property
    def all_ok(self) -> bool:
        return self.containment_ok and self.nonempty_ok and self.codim_ok


def verify_certificate(v: Variety, cert: SubvarietyCertificate) -> CertificateCheck:
    """Re-check a certificate, independent of how it was built.

    Flags: (a) the output is contained in the input pointwise, (b) the
    output is nonempty, (c) the claimed codimension matches the output's
    deduplicated form count and fits the budget for the input's density,
    priced at one point when the input has none.  Failures are flags, not
    exceptions; a shape mismatch fails all three and still reports the
    input's budget.  The point count and the containment come from the
    fiber ranks of ``fibers``, which builds no value grid or bitmap, so the
    check shares no evaluation kernel with the finder and also runs on
    shapes whose |G| is past the point budget.
    """
    out = cert.output
    same_shape = out.shape == v.shape
    if same_shape:
        count, contained = fibers.count_and_contains(v, out)
    else:
        count, contained = fibers.point_count(v), False
    bud = codim_budget(v.shape.k, v.shape.p, Fraction(max(count, 1), v.shape.total_points))
    if not same_shape:
        return CertificateCheck(False, False, False, bud)
    codim_ok = (
        not out.is_empty
        and cert.output_codim == len(out.canonical().forms)
        and cert.output_codim <= bud
    )
    return CertificateCheck(contained, not out.is_empty, codim_ok, bud)
