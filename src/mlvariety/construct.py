"""The constructive pipeline: external approximation by few forms, extraction
of a base variety whose fibers in a chosen direction are all dense, and the
recursive subvariety finder with certificate emission and verification.

Every guarantee that the construction relies on is re-checked exhaustively at
desk scale before a certificate is emitted: slice quality, filling witnesses,
fiber floors, and the final set equality between the approximating variety
and its target.  Certificates carry a ledger of the exact constants used at
each recursion level so an auditor can replay the accounting.

Budget tracking note.  The codimension budget is an affine function of
L = ceil(log_p 1/density) for fixed arity and p.  The recursion that produces
the slope and intercept mirrors the construction step by step with every
quantity over-approximated by integers (log_p 2 <= 1, L(c/2) <= L(c) + 1), so
an achieved codimension above the budget line is a bug, never bad luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import budget
from .errors import (
    ApproxMismatchError,
    ConstructionError,
    EmptyVarietyError,
    PreconditionError,
)
from .field import all_vectors, vector_from_index
from .forms import MultilinearForm, MultilinearMap, _grid_scope, ceil_log, eval_grid
from .variety import (
    Variety,
    _first_unfilled,
    _point_from_index,
    bad_set_cap,
    slice_variety,
    variety_bitmap,
)


# ---------------------------------------------------------------------------
# Codimension budget
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def budget_line(arity: int) -> tuple[int, int]:
    """(slope, intercept) of the codimension budget in L = ceil(log_p 1/c).

    Arity 1 is exact: a subspace of density c has codimension exactly
    log_p 1/c.  Each higher arity unwinds one construction step:

      r          <= slope*(L+1) + intercept     (base codim on a half-dense slice)
      log 1/c'    = (2k+1) log_p 2 + 2kK + (kK+1) log 1/c
      fiber floor = c' ** 2^k
      log 1/c''   = 2^k log 1/c' + k(k+1) r
      eps         = c'' ** (k+1) / 2
      final codim = ceil(log 1/eps) + (k+1)^2 r

    with k the lower arity and K = slope + intercept its single constant.
    """
    if arity < 1:
        raise PreconditionError("arity must be at least 1")
    if arity == 1:
        return (1, 0)
    slope, intercept = budget_line(arity - 1)
    k = arity - 1
    big_k = slope + intercept
    r_a, r_b = slope, slope + intercept
    cp_a, cp_b = k * big_k + 1, 2 * k + 1 + 2 * k * big_k
    fib_a, fib_b = 2**k * cp_a, 2**k * cp_b
    cdd_a = fib_a + k * (k + 1) * r_a
    cdd_b = fib_b + k * (k + 1) * r_b
    s_a, s_b = (k + 1) * cdd_a, (k + 1) * cdd_b + 1
    return (s_a + (k + 1) ** 2 * r_a, s_b + (k + 1) ** 2 * r_b)


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
    charges (the per-point price, kept until the sweep-format accounting bump).

    Containment is checked on the value grids of the phi components
    themselves, each distinct one evaluated once in a grid scope, never on
    values derived from the chosen functionals.
    """
    if s < 0:
        raise PreconditionError("the number of functionals must be non-negative")
    shape = source.shape
    p = shape.p
    m = source.codomain_dim
    support_dims = tuple(shape.dims[j] for j in source.support)
    support_total = p ** sum(support_dims)
    outside_mult = shape.total_points // support_total
    codes = np.zeros(support_total, dtype=np.int64)
    for f in source.components:
        codes *= p
        codes += eval_grid(f).reshape(-1)
    source_zero = codes == 0
    # Dot products are at most m (p-1)^2, exact in the narrowest type holding it.
    functionals = all_vectors(p, m).astype(np.min_scalar_type(m * (p - 1) ** 2))
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
        chosen.append(functionals[best])
        per_step.append(int(hist[alive].sum()))
    stacked = np.array(
        [f.coeffs for f in source.components], dtype=np.int64
    ).reshape(m, *support_dims)
    components = [
        MultilinearForm(shape, source.support, np.tensordot(psi, stacked, axes=([0], [0])))
        for psi in chosen
    ]
    phi = MultilinearMap(shape, source.support, components)
    phi_zero = np.ones(support_total, dtype=bool)
    for f in components:
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
    at least fiber_floor_count points of the input variety in its fiber.
    min_fiber_count is the exhaustively measured minimum.  clamped records
    the desk-scale regime where the rational floor fell below one point and
    nonemptiness is the operative guarantee.
    """

    direction: int
    slice_point: tuple[int, ...]
    slice_density: Fraction
    base: Variety
    base_certificate: "SubvarietyCertificate"
    bad_count: int
    c_prime: Fraction
    fiber_floor: Fraction
    fiber_floor_count: int
    min_fiber_count: int
    min_fiber_density: Fraction
    clamped: bool


def dense_columns(v: Variety, direction: int | None = None) -> DenseColumnsResult:
    """Find a low-codimension base variety with uniformly dense fibers.

    Scans the chosen direction lexicographically for the first slice that is
    at least half as dense as the input and carries few fiber-sparse points
    (the averaging identity guarantees one exists; failing to find one is an
    internal error).  The lower-arity finder then produces the base variety
    inside that slice, and a parallelepiped witness at every base point
    transfers fiber density from the slice to the whole base: the fiber over
    the base point contains the intersection of the 2**k corner fibers, each
    a subspace of density above c', so its density is at least c' ** 2**k.
    All of this is verified exhaustively before returning.
    """
    shape = v.shape
    if shape.k < 2:
        raise PreconditionError("dense fiber extraction needs at least two factors")
    if direction is None:
        direction = shape.k - 1
    if not 0 <= direction < shape.k:
        raise PreconditionError("direction outside the shape")
    p = shape.p
    vmask = variety_bitmap(v)
    vcount = int(np.count_nonzero(vmask))
    if vcount == 0:
        raise EmptyVarietyError("dense fiber extraction needs a nonempty variety")
    total = shape.total_points
    c = Fraction(vcount, total)
    lower = shape.k - 1
    big_k = arity_constant(lower)
    c_prime = (
        Fraction(1, 2 ** (2 * lower + 1) * p ** (2 * lower * big_k))
        * c ** (lower * big_k + 1)
    )
    direction_size = shape.group_sizes[direction]
    other_total = total // direction_size
    fiber_counts = vmask.sum(axis=direction)
    sparse_threshold = math.floor(c_prime * direction_size)
    fiber_sparse = fiber_counts <= sparse_threshold

    chosen = None
    for t in range(direction_size):
        u_mask = np.take(vmask, t, axis=direction)
        u_count = int(np.count_nonzero(u_mask))
        if Fraction(u_count, other_total) < c / 2:
            continue
        b_count = int(np.count_nonzero(u_mask & fiber_sparse))
        if Fraction(b_count, other_total) > 2 * c_prime / c:
            continue
        chosen = (t, u_mask, u_count, b_count)
        break
    if chosen is None:
        raise ConstructionError(
            "no qualifying slice found; the averaging identity forbids this"
        )
    t, u_mask, u_count, b_count = chosen
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
    missing = _first_unfilled(base.shape, base_mask, allowed, "fiber filling")
    if missing is not None:
        point = _point_from_index(base.shape, missing)
        raise ConstructionError(f"no filling witness at base point {point}")
    fiber_floor = c_prime ** (2**lower)
    floor_points = fiber_floor * direction_size
    clamped = floor_points < 1
    fiber_floor_count = max(1, math.ceil(floor_points))
    min_fiber_count = int(fiber_counts[base_mask].min())
    if min_fiber_count < fiber_floor_count:
        raise ConstructionError(
            f"measured fiber minimum {min_fiber_count} fell below the certified "
            f"floor {fiber_floor_count}"
        )
    return DenseColumnsResult(
        direction=direction,
        slice_point=slice_point,
        slice_density=Fraction(u_count, other_total),
        base=base,
        base_certificate=sub_cert,
        bad_count=b_count,
        c_prime=c_prime,
        fiber_floor=fiber_floor,
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


def _ledger_record(path: str, arity: int, c: Fraction, **extra) -> dict:
    record = {
        "path": path,
        "arity": arity,
        "c": c,
        "r": None,
        "c_prime": None,
        "c_double_prime": None,
        "epsilon": None,
        "s": None,
        "cylinder_forms": None,
        "codim_contribution": None,
        "clamped": None,
        "directions": None,
    }
    record.update(extra)
    return record


@_grid_scope()
def find_subvariety(
    v: Variety, *, epsilon_override: Fraction | None = None
) -> SubvarietyCertificate:
    """Extract a nonempty subvariety whose codimension fits the budget line.

    Arity 1: the input is a subspace; its echelonized defining forms are the
    output, with codimension exactly ceil(log_p 1/density).

    Higher arity: for every direction, extract a dense-fiber base variety;
    pool every base-defining form by the directions it avoids into cylinder
    constraints; approximate the input's full-support forms externally with
    enough functionals that the approximation cannot strictly exceed the
    cylinder-constrained target; verify the resulting variety equals the
    target point by point and is contained in the input.

    epsilon_override replaces the approximation error threshold.  Raising it
    above the safe value can produce a strictly larger approximation, which
    raises ApproxMismatchError carrying the overshoot count (a negative
    control; the count is never below c''**arity * |G| when it happens).

    The whole extraction, recursion included, runs in one grid scope, so
    each distinct form is evaluated once; the scope closes on return.
    """
    shape = v.shape
    p = shape.p
    vmask = variety_bitmap(v)
    vcount = int(np.count_nonzero(vmask))
    if vcount == 0:
        raise EmptyVarietyError("the subvariety finder needs a nonempty variety")
    total = shape.total_points
    c = Fraction(vcount, total)
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
        ledger = (
            _ledger_record("", 1, c, codim_contribution=codim),
        )
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

    fiber_floor = min(res.fiber_floor for res in results)
    c_dd = fiber_floor * Fraction(1, p ** ((shape.k - 1) * shape.k * r_max))
    one_point = Fraction(1, max(shape.group_sizes))
    clamped = c_dd < one_point
    c_dd = max(c_dd, one_point)
    eps = c_dd**shape.k / 2
    if epsilon_override is not None:
        eps = Fraction(epsilon_override)
    s = ceil_log(p, 1 / eps)

    full_support = tuple(range(shape.k))
    full_forms = [f for f in target.forms if f.support == full_support]
    source = MultilinearMap(shape, full_support, full_forms)
    approx = external_approx(source, s)

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
            extra_floor=c_dd**shape.k * total,
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
            "",
            shape.k,
            c,
            r=r_max,
            c_prime=results[0].c_prime,
            c_double_prime=c_dd,
            epsilon=eps,
            s=s,
            cylinder_forms=len(cylinders.forms),
            codim_contribution=codim,
            clamped=clamped,
            directions=direction_info,
        )
    ]
    for i, res in enumerate(results):
        for record in res.base_certificate.ledger:
            child = dict(record)
            child["path"] = f"{i}" if not record["path"] else f"{i}/{record['path']}"
            ledger.append(child)
    return SubvarietyCertificate(c, candidate, codim, bud, tuple(ledger))


# ---------------------------------------------------------------------------
# Independent certificate verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateCheck:
    """Three-flag report from re-enumerating a certificate against its input."""

    containment_ok: bool
    nonempty_ok: bool
    codim_ok: bool
    budget: int
    recomputed_codim: int | None

    @property
    def all_ok(self) -> bool:
        return self.containment_ok and self.nonempty_ok and self.codim_ok


def verify_certificate(v: Variety, cert: SubvarietyCertificate) -> CertificateCheck:
    """Re-check a certificate by enumeration, independent of how it was built.

    Flags: (a) the output is contained in the input pointwise, (b) the
    output is nonempty, (c) the claimed codimension matches the output's
    deduplicated form count and fits the budget for the input's density.
    Failures are flags, not exceptions.  It opens no grid scope, so called
    after find_subvariety it evaluates every form afresh.
    """
    vmask = variety_bitmap(v)
    c = Fraction(max(int(np.count_nonzero(vmask)), 1), v.shape.total_points)
    bud = codim_budget(v.shape.k, v.shape.p, c)
    if cert.output.shape != v.shape:
        return CertificateCheck(False, False, False, bud, None)
    omask = variety_bitmap(cert.output)
    containment = not bool(np.any(omask & ~vmask))
    nonempty = bool(omask.any())
    if cert.output.is_empty:
        recomputed = None
        codim_ok = False
    else:
        recomputed = len(cert.output.canonical().forms)
        codim_ok = cert.output_codim == recomputed and cert.output_codim <= bud
    return CertificateCheck(containment, nonempty, codim_ok, bud, recomputed)
