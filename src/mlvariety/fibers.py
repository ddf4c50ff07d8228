"""Point counts and containment of varieties from fiber ranks.

Fix the largest factor j (the first among ties) and let x run over the
B = |G| / |G_j| points of the other factors, in enumeration order.  Every
form is linear in factor j, so over x the fiber of a variety is the kernel
of a matrix M(x): its rows are the forms whose support contains j, with the
other factors fixed at x.  The other forms are constants at x, and the
fiber is empty wherever one of them is nonzero.  Hence

    |V| = sum over the x where the constants vanish of p ** (n_j - rank M(x)),

the identity behind analytic rank, bias = E_x p ** -rank (Lovett 2019, "The
analytic rank of tensors and its applications").  V' lies inside V exactly
when, at every x where the constants of V' vanish, those of V vanish too and
every row of M_V(x) lies in the span of the rows of M_V'(x).
The empty marker has no points and lies inside every variety; every other
variety contains the origin.

This is the verifier's evaluation kernel, and verify_certificate is here.
It builds no value grid and no bitmap, and it imports no evaluation code
from ``forms``, ``variety`` or ``construct``: rows are contractions of the
coefficient tensors against the vector tables of ``field``, each factor's
table split in two halves whose uint8 residues are added without a ``% p``
pass (_contract), built as ``field``'s (n_j, B) rows with x along the last
axis.  Ranks come from the echelon record of ``field.batched_echelon``, one
Gaussian elimination vectorized over x, and a row of M_V(x) lies in the
span of M_V'(x) exactly where its ``field.residual`` against that record is
zero.  The finder reads the same identity from rows of its own
(``forms.fiber_values``); besides the data types and those tables, that
elimination is the one computation the two share, field arithmetic checked
against ``field.rref`` at every x (test_finder_fibers).
Building the rows of a form charges its B * n_j entries (B for a form
without j) to the work counter; the budget admits B and the total before
anything is built.  zero_fiber_identity_check counts `rank`'s zero fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import budget
from .errors import PreconditionError
from .field import all_vectors, batched_echelon, residual
from .forms import MultilinearForm, Shape
from .ledger import SubvarietyCertificate, codim_budget
from .variety import Variety


def _contract(t: np.ndarray, p: int, n: int) -> np.ndarray:
    """Contract axis 1 of t, of length n, against the vector table of F_p^n,
    whose p**n vectors become a new last axis, in enumeration order.

    A vector is its first n//2 coordinates followed by the rest, so its
    contraction is the sum of the two halves' contractions against their
    own, much smaller tables: two small products and one broadcast sum.
    The halves are residues in uint8, so the sum is reduced without a
    division: XOR at p = 2, one conditional subtraction of p otherwise.
    """
    h = n // 2
    t = np.moveaxis(t, 1, -1).astype(np.int64)
    head = (t[..., :h] @ all_vectors(p, h).T % p).astype(np.uint8)
    tail = (t[..., h:] @ all_vectors(p, n - h).T % p).astype(np.uint8)
    if p == 2:
        out = head[..., :, None] ^ tail[..., None, :]
    else:
        # the sum is below 2p - 1 <= 33, and out - p wraps above out unless out >= p
        out = head[..., :, None] + tail[..., None, :]
        np.minimum(out, out - p, out=out)
    return out.reshape(out.shape[:-2] + (-1,))


def _stack_values(shape, support: tuple[int, ...], coeffs: np.ndarray, j: int,
                  others: list[int]) -> np.ndarray:
    """Forms of one support over the points x of the factors other than j,
    from their stacked coefficient tensors (F, *support dims): shape
    (F, n_j, B), the rows of M(x) with x along the last axis, the layout
    field.batched_echelon takes, when the support contains j, else (F, B),
    the constants.

    The j axis is moved last and the support factors other than j are
    contracted in order, each appending its vector axis, so the j axis
    ends up in front of all of them; factors outside the support are
    broadcast.
    """
    p, dims = shape.p, shape.dims
    rest = [l for l in support if l != j]
    t = coeffs
    if j in support:
        t = np.moveaxis(t, 1 + support.index(j), -1)
    for l in rest:
        t = _contract(t, p, dims[l])
    lead = [len(t)] + ([dims[j]] if j in support else [])
    grown = [p ** dims[l] if l in rest else 1 for l in others]
    full = [p ** dims[l] for l in others]
    t = np.broadcast_to(t.reshape(lead + grown), lead + full)
    return t.reshape(lead + [math.prod(full)])


def _systems(varieties: list[Variety]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(alive, rows) of each variety, none of them the empty marker: alive[x]
    when its constants vanish at x, rows the (count, n_j, B) stack of its
    rows of M(x).  The forms of all the varieties that share a support are
    contracted as one stack."""
    shape = varieties[0].shape
    p, dims = shape.p, shape.dims
    j = dims.index(max(dims))
    others = [l for l in range(shape.k) if l != j]
    b = math.prod(p ** dims[l] for l in others)
    budget.ensure(b, "fiber enumeration")
    owned = [(i, f) for i, v in enumerate(varieties) for f in v.forms if not f.is_zero()]
    budget.charge(
        sum(b * (dims[j] if j in f.support else 1) for _, f in owned), "fiber rows"
    )
    groups: dict[tuple[int, ...], list] = {}
    for i, f in owned:
        groups.setdefault(f.support, []).append((i, f))
    out = [(np.ones(b, dtype=bool), []) for _ in varieties]
    for support, members in groups.items():
        stack = np.stack([f.coeffs for _, f in members])
        for (i, _), values in zip(members, _stack_values(shape, support, stack, j, others)):
            alive, rows = out[i]
            if values.ndim == 2:
                rows.append(values)
            else:
                alive &= values == 0
    return [(alive, np.array(rows, dtype=np.uint8).reshape(len(rows), dims[j], b))
            for alive, rows in out]


def _count(alive: np.ndarray, rows: np.ndarray, p: int, n: int) -> int:
    rank = batched_echelon(rows, p).rank
    per_rank = np.bincount(rank[alive], minlength=len(rows) + 1)
    return sum(m * p ** (n - r) for r, m in enumerate(per_rank.tolist()) if m)


def point_count(v: Variety) -> int:
    """|V|, exactly."""
    if v.is_empty:
        return 0
    ((alive, rows),) = _systems([v])
    return _count(alive, rows, v.shape.p, max(v.shape.dims))


def density(v: Variety) -> Fraction:
    """|V| / |G|, exactly."""
    return Fraction(point_count(v), v.shape.total_points)


def count_and_contains(v: Variety, sub: Variety) -> tuple[int, bool]:
    """(|V|, whether sub lies inside V), from one build of both varieties'
    rows.  The varieties must share their shape.  sub escapes V at an x
    where its constants vanish and either a constant of V does not or a
    row of M_V(x) leaves a nonzero residual against the echelon basis of
    M_sub(x) (field.residual), so lies outside that basis's span."""
    if sub.is_empty:
        return point_count(v), True
    if v.is_empty:
        return 0, False
    p = v.shape.p
    (alive, rows), (sub_alive, sub_rows) = _systems([v, sub])
    outside = residual(rows, p, batched_echelon(sub_rows, p)).any(axis=(0, 1))
    escaped = sub_alive & (~alive | outside)
    return _count(alive, rows, p, max(v.shape.dims)), not escaped.any()


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
    priced at one point when the input has none, and the certificate's own
    top-level claims hold: its input density is the input's exact density,
    its budget is that budget, and its ledger's top (if any) has that
    density as c and the claimed codimension as codim_contribution.
    Failures are flags, not exceptions; a shape mismatch fails all three
    and still reports the input's budget.
    The point count and the containment come from the fiber ranks of
    ``fibers``, which builds no value grid or bitmap, so the check shares
    no evaluation kernel with the finder and also runs on shapes whose |G|
    is past the point budget.
    """
    out = cert.output
    same_shape = out.shape == v.shape
    if same_shape:
        count, contained = count_and_contains(v, out)
    else:
        count, contained = point_count(v), False
    bud = codim_budget(v.shape.k, v.shape.p, Fraction(max(count, 1), v.shape.total_points))
    if not same_shape:
        return CertificateCheck(False, False, False, bud)
    codim_ok = (
        not out.is_empty
        and cert.output_codim == len(out.canonical().forms)
        and cert.output_codim <= bud
        and cert.input_density == Fraction(count, v.shape.total_points)
        and cert.budget == bud
        and (cert.ledger is None or (cert.ledger.c, cert.ledger.codim_contribution)
             == (cert.input_density, cert.output_codim))
    )
    return CertificateCheck(contained, not out.is_empty, codim_ok, bud)


@dataclass(frozen=True)
class ZeroFiberReport:
    """Outcome of the zero-fiber counting identity."""

    factor: int
    zero_fiber_count: int
    outer_points: int
    expected: Fraction
    holds: bool


def zero_fiber_identity_check(form: MultilinearForm, b: Fraction) -> ZeroFiberReport:
    """Check |{x in G_-j : f(x, .) = 0}| == b * |G_-j| exactly, for b =
    bias(form) and j the last support factor (k - 1 for the zero form).

    The left side is point_count of the variety of the n_j slices f(., e_i)
    on the other support factors, times the group of the factors outside
    the support.  At arity 2 both sides rank one matrix by different code.
    At arity >= 3 point_count ranks matrices in j and the largest other
    factor, the first among ties, and bias in the two largest factors, the
    last among ties: at (2,(12,12,12)) factors 0 and 2 against 1 and 2.
    """
    shape, support = form.shape, form.support
    if shape.k < 2:
        raise PreconditionError("the identity needs at least two factors")
    j = shape.k - 1 if form.is_zero() else support[-1]
    outer = math.prod(shape.group_sizes) // shape.group_sizes[j]
    # the zero form counts every x, a nonzero form on j alone none
    count = outer if form.is_zero() else 0
    if not form.is_zero() and len(support) > 1:
        sub = Shape(shape.p, [shape.dims[l] for l in support[:-1]])
        slices = [MultilinearForm(sub, range(sub.k), c) for c in np.moveaxis(form.coeffs, -1, 0)]
        count = point_count(Variety(sub, slices)) * (outer // sub.total_points)
    expected = b * outer
    return ZeroFiberReport(j, count, outer, expected, expected == count)
