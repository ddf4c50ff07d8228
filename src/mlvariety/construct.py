"""The constructive pipeline: external approximation by few forms, extraction
of a base variety whose fibers in a chosen direction are all dense, and the
recursive subvariety finder with certificate emission.

Every guarantee that the construction relies on is re-checked exhaustively at
desk scale before a certificate is emitted: slice quality, filling witnesses,
fiber floors, and the final set equality between the approximating variety
and its target.  Certificates carry a ledger of what each recursion level
chose, from which ledger.Node derives the exact constants it used.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget
from .errors import (
    ApproxMismatchError,
    ConstructionError,
    EmptyVarietyError,
    PreconditionError,
)
from .field import Echelon, all_vectors, batched_echelon, vector_from_index
from .forms import (
    MultilinearForm,
    MultilinearMap,
    fiber_values,
)
from .ledger import (
    Node,
    SubvarietyCertificate,
    _fiber_constants,
    _fiber_thresholds,
    _level_constants,
    codim_budget,
)
from .variety import (
    Variety,
    _fill_scan,
    _point_from_index,
    _ranks,
    bad_set_cap,
    slice_variety,
)


# ---------------------------------------------------------------------------
# Fibers: what the finder reads instead of bitmaps and value grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _System:
    """The common zero set of some forms over the points x of a _Fibers:
    alive where their constants vanish, the echelon record of their rows
    (field.batched_echelon), which holds the rank at each x, and the point
    count, the sum over alive x of p**(n_j - rank)."""

    alive: np.ndarray
    basis: Echelon
    count: int


class _Fibers:
    """The fibers in factor j over the B points x of the factors `others`,
    in enumeration order.  Every form is linear in factor j, so over x the
    common zero set of some forms is ker M(x), where the rows of M(x) are
    the forms whose support holds j, restricted to x, or nothing where a
    form without j (a constant at x) is nonzero; it holds p**(n_j - rank)
    points (Lovett 2019, "The analytic rank of tensors and its
    applications").  Each distinct form's values (forms.fiber_values), its
    (n_j, B) row or its (B,) constants, are built once, and so is each
    _System, keyed by the set of its nonzero forms' keys, so the same
    forms in any order share one: a system of several lists of forms
    extends the system of the lists before the last, and a form already
    in it adds nothing, so a candidate with its target's forms costs no
    elimination.  Only the row order of a basis depends on which list
    built it first; the alive points, the ranks, the kernels and the pivot
    columns' span do not.  j is None only for the
    empty support, whose forms are all zero.
    """

    def __init__(self, shape, j: int | None, others: tuple[int, ...]):
        self.p, self.j, self.others = shape.p, j, others
        self.n = 0 if j is None else shape.dims[j]
        self.b = math.prod(shape.p ** shape.dims[l] for l in others)
        budget.ensure(self.b, "fiber rows")
        self._values: dict = {}
        self._systems = {frozenset(): _System(
            np.ones(self.b, dtype=bool),
            batched_echelon(np.zeros((0, self.n, self.b), dtype=np.uint8), self.p),
            self.b * self.p**self.n,
        )}

    def values(self, forms) -> list[np.ndarray]:
        fresh = {f.key(): f for f in forms if f.key() not in self._values}
        self._values.update(zip(fresh, fiber_values(list(fresh.values()), self.j, self.others)))
        return [self._values[f.key()] for f in forms]

    def system(self, *lists) -> _System:
        """The common zero set of the forms of the lists."""
        key = frozenset()
        system = self._systems[key]
        for forms in lists:
            new = {f.key(): f for f in forms if not f.is_zero() and f.key() not in key}
            key = key.union(new)
            if key not in self._systems:
                self._systems[key] = self._extend(system, list(new.values()))
            system = self._systems[key]
        return system

    def _extend(self, system: _System, forms: list) -> _System:
        alive, rows = system.alive.copy(), []
        for values in self.values(forms):
            if values.ndim == 2:
                rows.append(values)
            else:
                alive &= values == 0
        basis = batched_echelon(rows, self.p, system.basis)
        per_rank = np.bincount(basis.rank[alive], minlength=1).tolist()
        count = sum(m * self.p ** (self.n - r) for r, m in enumerate(per_rank) if m)
        return _System(alive, basis, count)

    def count(self, *lists) -> int:
        return self.system(*lists).count


# The open finder scope: (certificates by _variety_key, _Fibers by
# (shape, j, others)) while a find runs in this context; None otherwise.
_SCOPE: contextvars.ContextVar[tuple[dict, dict] | None] = contextvars.ContextVar(
    "mlvariety_finder_scope", default=None
)


def _fibers(shape, factors, j: int | None = None) -> _Fibers:
    """The fibers in factor j, by default the largest of the factors (the
    first among ties), over the others of them.  While a find runs, one
    _Fibers serves every call with the same shape and factors (_SCOPE), so
    the input's values and systems serve _solve, the direction j of
    dense_columns, external_approx, whose source is the input's
    full-support forms, and the target, whose system extends the input's."""
    if j is None:
        j = max(factors, key=shape.dims.__getitem__, default=None)
    key = (shape, j, tuple(l for l in factors if l != j))
    scope = _SCOPE.get()
    built = {} if scope is None else scope[1]
    if key not in built:
        built[key] = _Fibers(*key)
    return built[key]


def _image_histogram(fib: _Fibers, components) -> np.ndarray:
    """How often each value code of F_p^m is hit over the points (x, y) of
    the fibers, for the m forms `components` whose supports all hold j:
    sum over x of p**(n - rank M(x)) [code in image M(x)], where the value
    at (x, y) is M(x) y, component 0 its most significant digit.

    The points x are taken one rank r at a time, read from the echelon
    record of the components' system.  At full rank m the image is all of
    F_p^m.  Below it, the columns of M(x) at the pivots of its r nonzero
    echelon pairs, the record's pivots where it is nonzero, are a basis of
    it, so its p**r codes are M(x) y for the y spread over those pivots; one
    bincount adds p**(n - r) to each.  Charged before any code is built:
    the codes below full rank and p**m cells per rank.
    """
    p, m, b, n = fib.p, len(components), fib.b, fib.n
    # none without j, where every component is zero
    values = fib.values(components) if fib.j is not None else []
    basis = fib.system(components).basis
    groups = [(r, count) for r, count in enumerate(np.bincount(basis.rank).tolist()) if count]
    budget.charge(sum(count * p**r for r, count in groups if r < m) + p**m * len(groups),
                  "value images")
    # the hits sum to B * p**n, exact in int64 below 2**63
    hist = np.zeros(p**m, dtype=np.int64 if b * p**n < 2**63 else object)
    for r, count in groups:
        if r == m:  # im M(x) is all of F_p^m
            hist += count * p ** (n - m)
            continue
        at = np.flatnonzero(basis.rank == r)
        # the r pivots of each x, and F_p^r in the narrowest type of a dot product
        cols = basis.pivots.T[at][basis.nonzero.T[at]].reshape(len(at), r)
        wide = np.min_scalar_type(r * (p - 1) ** 2)
        spread = all_vectors(p, r).T.astype(wide)
        codes = np.zeros((len(at), p**r), dtype=np.min_scalar_type(p**m - 1))
        for rows in values:
            codes *= p
            codes += rows[cols, at[:, None]].astype(wide) @ spread % p
        hist += np.bincount(codes.reshape(-1), minlength=p**m).astype(hist.dtype) * p ** (n - r)
    return hist


def _zero_counts(live: np.ndarray, p: int, m: int) -> np.ndarray:
    """Z[u] = sum over v of live[v] [u . v = 0] for every code u of F_p^m,
    exact in live's dtype: the F_p Walsh-Hadamard transform (O'Donnell
    2014, ch. 1).  z[code, r] counts by partial dot product r mod p; each
    of m passes takes the leading digit v_i off the code and appends u_i,
    entry (u_i, r) summing entry (v_i, r - u_i v_i mod p) over v_i."""
    d = np.arange(p)
    back = (d - np.multiply.outer(d, d)[:, :, None]) % p  # [v, u, r]: r - u v
    z = np.zeros((live.size, p), dtype=live.dtype)
    z[:, 0] = live
    for _ in range(m):
        z = z.reshape(p, -1, p)
        z = sum(z[v].take(back[v], axis=1) for v in range(p)).reshape(-1, p)
    return z[:, 0]


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

    Survival depends only on a point's value vector, so the greedy runs on
    the histogram of value codes over G_S, read from fibers by enumerating
    each image M(x), not from a pass over G_S (_image_histogram).  Each live
    step scores every functional with one transform of the survivors'
    histogram (_zero_counts), whose m passes sum p terms into each of
    p**(m+1) cells, charged as m * p**(m+2) points ("functional scan") and
    admitted by the budget before any fiber is built.

    Each distinct chosen functional gives one form, which phi repeats where
    the greedy chose it again (once no survivor is left it keeps choosing the
    zero functional).  Containment and the error are counted on the rows of
    the distinct nonzero phi components themselves, built from their own
    coefficient tensors, never from the chosen functionals: {source = 0}
    lies in {phi = 0} exactly when the two intersect in |{source = 0}|
    points, and the error is |{phi = 0}| minus that, times the points
    outside the support.  A zero component vanishes everywhere, so it adds
    no row.
    """
    if s < 0:
        raise PreconditionError("the number of functionals must be non-negative")
    shape = source.shape
    p = shape.p
    m = source.codomain_dim
    support_dims = tuple(shape.dims[j] for j in source.support)
    outside_mult = shape.total_points // p ** sum(support_dims)
    # Dot products are at most m (p-1)^2, exact in the narrowest type holding it.
    functionals = all_vectors(p, m).astype(np.min_scalar_type(m * (p - 1) ** 2), copy=False)
    scan = m * p ** (m + 2)
    if s and not all(f.is_zero() for f in source.components):
        budget.ensure(scan, "functional scan")
    fib = _fibers(shape, source.support)
    live = _image_histogram(fib, source.components)
    source_zero_count = int(live[0])
    # the survivors' value codes: nonzero, and killed by every choice so far
    live[0] = 0
    # once nothing survives, every later step chooses 0 and leaves 0
    chosen = [0] * s
    per_step = [0] * s
    for step in range(s):
        if not live.any():
            break
        budget.charge(scan, "functional scan")
        chosen[step] = best = int(np.argmin(_zero_counts(live, p, m)))
        live[functionals @ functionals[best] % p != 0] = 0
        per_step[step] = int(live.sum())
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
    both = fib.count(source.components, built.values())
    if both != source_zero_count:
        raise ConstructionError("containment of the source zero set failed")
    error_count = (fib.count(built.values()) - both) * outside_mult
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

    The base is base_certificate.output, on the factors other than
    `direction`; lifted is its forms in the input's shape, each support
    factor renamed to the input factor it stands for.  Every point of the
    base has at least the level's fiber floor times the fiber size of
    points of the input variety in its fiber (_fiber_constants).
    min_fiber_count is the exhaustively measured minimum.
    """

    direction: int
    slice_point: tuple[int, ...]
    lifted: tuple[MultilinearForm, ...]
    base_certificate: "SubvarietyCertificate"
    bad_count: int
    min_fiber_count: int
    min_fiber_density: Fraction


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
    The witnesses come from the search conv_fill_check runs (_fill_scan),
    at every base point; the first one without a witness is named in the
    error.  A base point's zero-offset corners lie in the base variety, so
    only a bad corner sends a base point past the pre-check to the row
    pass, whose witnesses the search re-checks before returning them.
    All of this is verified exhaustively before returning.

    Nothing here is |G|-sized.  The input is read from its fibers in the
    direction (_Fibers) over the points x of the other factors: the fiber
    over x holds p**(n - rank M(x)) points where x is alive and none
    elsewhere, c is their mean, and the slice at t is the alive x with
    M(x) t = 0.  The base is read from the same fibers: its lifted forms
    avoid the direction, so they are constants at x, and the base is the x
    where they all vanish.  A slice is tested against all the basis rows of
    the fibers' echelon record in one product.  The slice, the sparse
    fibers, the base and the bad set are (B,) vectors over x; only the mask
    the filling scan takes is reshaped to the base's group.  A fiber is
    sparse when its rank reaches the sparse rank from _fiber_thresholds,
    memoized per (p, c, arity, n, log_p B), a slice's bad count is compared
    with the exact monomial limit, and the floor is checked at the largest
    rank over the base, so no fiber threshold counts points.
    """
    shape = v.shape
    if shape.k < 2:
        raise PreconditionError("dense fiber extraction needs at least two factors")
    if not 0 <= direction < shape.k:
        raise PreconditionError("direction outside the shape")
    if v.is_empty:
        raise EmptyVarietyError("dense fiber extraction needs a nonempty variety")
    p = shape.p
    n = shape.dims[direction]
    fib = _fibers(shape, range(shape.k), direction)
    system = fib.system(v.forms)
    alive, basis, rank = system.alive, system.basis, system.basis.rank
    c = Fraction(system.count, shape.total_points)
    direction_size = p**n
    sparse_rank, bad_limit = _fiber_thresholds(p, c, shape.k, n, sum(shape.dims) - n)
    # every slice below holds only alive x
    fiber_sparse = rank >= sparse_rank

    for t in range(direction_size):
        slice_point = vector_from_index(p, n, t)
        u_mask = alive.copy()
        if t:  # M(x) 0 = 0, so the slice at 0 is every alive x
            u_mask &= (np.array(slice_point) @ basis.rows % p == 0).all(axis=0)
        if Fraction(int(np.count_nonzero(u_mask)), fib.b) < c / 2:
            continue
        b_count = int(np.count_nonzero(u_mask & fiber_sparse))
        if b_count <= bad_limit:
            break
    else:
        raise ConstructionError(
            "no qualifying slice found; the averaging identity forbids this"
        )
    u_var = slice_variety(v, [direction], [slice_point])
    sub_cert = find_subvariety(u_var)
    base_shape = sub_cert.output.shape
    lifted = tuple(
        MultilinearForm(shape, tuple(fib.others[l] for l in f.support), f.coeffs)
        for f in sub_cert.output.forms
    )
    base = fib.system(lifted).alive
    if bool(np.any(base & ~u_mask)):
        raise ConstructionError("base variety escaped its slice")
    bad = u_mask & fiber_sparse
    bad_in_base = int(np.count_nonzero(bad & base))
    cap = bad_set_cap(base_shape, sub_cert.output_codim)
    if bad_in_base > cap:
        raise ConstructionError(
            f"bad set of size {bad_in_base} exceeds the filling cap {cap}"
        )
    bases = _ranks(np.flatnonzero(base), base_shape.group_sizes)
    allowed = (base & ~bad).reshape(base_shape.group_sizes)
    offsets = _fill_scan(base_shape, bases, allowed, "fiber filling")
    unfilled = bases[offsets[:, 0] < 0]
    if len(unfilled):
        point = _point_from_index(base_shape, unfilled[0])
        raise ConstructionError(f"no filling witness at base point {point}")
    # every base point is alive, inside the slice
    max_rank = int(rank[base].max())
    min_fiber_count = p ** (n - max_rank)
    if _fiber_constants(p, c, shape.k)[1].times(p_exp=max_rank) > 1:
        raise ConstructionError(
            f"measured fiber minimum {min_fiber_count} fell below the certified floor"
        )
    return DenseColumnsResult(
        direction=direction,
        slice_point=slice_point,
        lifted=lifted,
        base_certificate=sub_cert,
        bad_count=b_count,
        min_fiber_count=min_fiber_count,
        min_fiber_density=Fraction(min_fiber_count, direction_size),
    )


# ---------------------------------------------------------------------------
# The subvariety finder
# ---------------------------------------------------------------------------

def _variety_key(v: Variety) -> tuple:
    # Key of a variety's certificate in the finder's sub-problem memo: the
    # raw defining list.  Lists with one canonical form give one certificate
    # (the finder reads only the canonical list), but keying by it would
    # echelonize every sliced list before the memo is read.
    return (v.shape, v.is_empty, tuple(f.key() for f in v.forms))


def find_subvariety(v: Variety) -> SubvarietyCertificate:
    """Extract a nonempty subvariety whose codimension fits the budget line.

    Each level reads its input only as its canonical list (Variety.canonical,
    the same zero set), so the certificate depends only on the span of each
    same-support family of the input.

    Leaf (arity 1, or density 1 at any arity): the input is a subspace, and
    its canonical list, checked to count the same points as the raw one,
    is the output, at codimension log_p 1/density, with one ledger node
    and no sub-levels.  At density 1 every form is zero, so the output is
    the full group at codimension 0.

    Otherwise: for every direction, extract a dense-fiber base variety;
    pool every base-defining form by the directions it avoids into cylinder
    constraints; approximate the input's full-support forms externally with
    enough functionals that the approximation cannot strictly exceed the
    cylinder-constrained target; verify the resulting variety equals the
    target point by point, which puts it inside the input, since the
    target is the input cut by the cylinder constraints.

    Such a level echelonizes only its input and its candidate.  The source
    is the input's canonical full-support forms; the cylinder constraints
    are the candidate's forms without full support, since no base form has
    full support and every phi component has; the target is the input's
    forms and those, with no elimination of its own.  So the source reads the
    input's own fiber system, the target's system extends it, and the
    count shared by target and candidate extends the target's.
    Every count and comparison of the input, the target and the candidate
    is read from their fibers in the largest factor j (_Fibers): c is the
    mean fiber size, and A lies inside B exactly when |A & B| = |A|, each
    count a sum of p**(n_j - rank) over the points of the other factors.
    So the finder builds no |G|-sized array, value grid or bitmap at any
    level: every variety it reads, each base of dense_columns too, is read
    from fiber rows, B * n_j entries per form with j and B per other form
    (B = |G|/|G_j|), and it charges those, with the value images' codes and
    m * p**(m+2) scan terms per live greedy step.

    The outermost call opens one scope (_SCOPE), the calling thread's own,
    which the recursion shares and which closes on return or on a raise.
    It holds the sub-problem memo, so each distinct sub-problem (shape and
    raw defining list) is solved once, though the recursion slices it along
    many paths, and each _Fibers built (_fibers), which builds each set of
    forms' system once.  A hit in either returns what is stored and
    charges nothing: its passes already ran once under the same budget, so
    the certificate and every refusal are those of a solve without them.
    """
    token = _SCOPE.set(({}, {})) if _SCOPE.get() is None else None
    try:
        solved = _SCOPE.get()[0]
        key = _variety_key(v)
        if key not in solved:
            solved[key] = _solve(v)
        return solved[key]
    finally:
        if token is not None:
            _SCOPE.reset(token)


def _solve(v: Variety) -> SubvarietyCertificate:
    shape = v.shape
    p = shape.p
    if v.is_empty:
        raise EmptyVarietyError("the subvariety finder needs a nonempty variety")
    # every count, slice and list below but the leaf's check reads the
    # echelonized forms, so the target and the source can share the input's
    # system
    raw, v = v, v.canonical()
    fib = _fibers(shape, range(shape.k))
    v_count = fib.count(v.forms)
    c = Fraction(v_count, shape.total_points)
    bud = codim_budget(shape.k, p, c)

    if c == 1 or shape.k == 1:
        # A subspace, its own output: G (no forms) at density 1, the input
        # at arity 1.
        if not fib.count(raw.forms) == fib.count(raw.forms, v.forms) == v_count:
            raise ConstructionError("echelonized defining forms changed the zero set")
        codim = len(v.forms)
        if c != Fraction(1, p**codim):
            raise ConstructionError(
                f"subspace density {c} does not match codimension {codim}"
            )
        return SubvarietyCertificate(c, v, codim, bud, Node(p, shape.k, c, codim, None, (), ()))

    results = [dense_columns(v, direction=i) for i in range(shape.k)]
    r_max = max(res.base_certificate.output_codim for res in results)
    level = _level_constants(p, c, shape.k, r_max, max(shape.dims))

    full_support = tuple(range(shape.k))
    full_forms = [f for f in v.forms if f.support == full_support]
    source = MultilinearMap(shape, full_support, full_forms)
    approx = external_approx(source, level.s)

    # no lifted base form has full support and every phi component has, so
    # the candidate's other forms are the echelonized cylinder constraints
    lifted = tuple(f for res in results for f in res.lifted)
    candidate = Variety(shape, tuple(approx.phi.components) + lifted).canonical()
    cylinders = tuple(f for f in candidate.forms if f.support != full_support)

    shared = fib.count(v.forms, cylinders, candidate.forms)
    if shared != fib.count(v.forms, cylinders):
        raise ConstructionError("approximation lost a point of its target")
    extra_count = fib.count(candidate.forms) - shared
    if extra_count:
        raise ApproxMismatchError(
            f"approximation strictly exceeds its target by {extra_count} points",
            extra_count=extra_count,
            extra_floor=(level.c_double_prime**shape.k).times(p_exp=sum(shape.dims)),
        )

    codim = len(candidate.forms)
    if codim > bud:
        raise ConstructionError(
            f"achieved codimension {codim} exceeds the budget {bud}"
        )

    # each sub-level's node is its base certificate's, shared, not copied
    ledger = Node(p, shape.k, c, codim, len(cylinders),
                  tuple((res.slice_point, res.min_fiber_density) for res in results),
                  tuple(res.base_certificate.ledger for res in results))
    return SubvarietyCertificate(c, candidate, codim, bud, ledger)
