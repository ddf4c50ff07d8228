"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the defining
formulas, without touching the library's vectorized paths: plain-Python
evaluation, bias from the full value distribution, density by point-by-point
membership, row reduction in a different style, brute-force witness search,
ledger monomials written out as rationals, a certificate written in the
one-record-per-path ledger of format versions 1 to 4, the external-approximation
greedy on a value-vector histogram counted point by point, subspace
membership, points and annihilators for the tests that plant subspaces,
every canonical variety of a small shape (one reduced echelon basis per
support family),
forms planted on a cylinder, and the partition-rank generators built one
product form at a time.  Five more count by another formula on the
library's own kernels: the bias from value grids per coefficient slice,
zero fibers from the value grid over the support, point counts from the
biases of the forms' combinations (the dual count), and the finder's
value histogram by closing a B x p**m image mask under translations,
and the witness search's offsets by a full quadratic scan.  Tests compare
library results against these, and read a variety's points off its
bitmap.  One helper runs the partition-rank search with both of its
bounds moved out of the way, one counts the library's own value-grid
evaluations and one its bitmap passes, for the grid-cache tests, one
makes every lookup in the finder's sub-problem memo miss, for the memo
oracle, one switches off the witness search's zero-offset pre-check, one
counts the bases its row pass reads at each row, two replace its
translation tables, and one starves the finder's external approximation
of functionals, for the failure paths.  A reference slice contracts every
form, the zero-coordinate ones included, and one helper puts it in the
finder's place, for the zero-slice oracle.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import sys
import unittest.mock
from fractions import Fraction

import numpy as np

from mlvariety import budget, construct, forms, ledger, monomial, variety
from mlvariety.field import rref, shift_rows
from mlvariety.forms import MultilinearForm, Shape, eval_form, slice_form
from mlvariety.variety import Variety


def enumerate_points(shape):
    """All points of the product group, lexicographic, last coordinate fastest."""
    per_factor = [
        list(itertools.product(range(shape.p), repeat=n)) for n in shape.dims
    ]
    return itertools.product(*per_factor)


def bitmap_points(v) -> list:
    """The points of v in enumeration order, read off its bitmap."""
    mask = variety.variety_bitmap(v)
    return [variety._point_from_index(v.shape, idx) for idx in np.argwhere(mask)]


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


def grid_bias(form) -> Fraction:
    """Bias as the share of points of the support factors but the last at
    which the induced linear form in the last vanishes: one value grid per
    coefficient slice of the last factor, the grids' zero sets ANDed."""
    if form.is_zero():
        return Fraction(1)
    p = form.shape.p
    outer_dims = [form.shape.dims[j] for j in form.support[:-1]]
    kernel = None
    for i in range(form.shape.dims[form.support[-1]]):
        component = np.take(form.coeffs, i, axis=len(form.support) - 1)
        g = forms._value_grid(p, outer_dims, component) == 0
        kernel = g if kernel is None else (kernel & g)
    return Fraction(int(np.count_nonzero(kernel)), p ** sum(outer_dims))


def grid_zero_fiber_count(form) -> int:
    """The zero-fiber count of zero_fiber_identity_check for a nonzero form,
    from its value grid over the support: a fiber is zero where the form
    vanishes at every point of the last support factor, and each zero one
    is scaled by the group of the factors outside the support."""
    sizes = form.shape.group_sizes
    j = form.support[-1]
    outer = math.prod(sizes[l] for l in range(form.shape.k) if l != j)
    fiber_zero = (forms.eval_grid(form) == 0).all(axis=len(form.support) - 1)
    return int(np.count_nonzero(fiber_zero)) * (outer // fiber_zero.size)


def dual_count(v) -> int:
    """|V| = p**-m |G| sum over lambda in F_p^m of bias(lambda . f) for a
    variety whose m forms share one support (Lovett 2019): [f = 0] is the
    average of the phases of the combinations lambda . f, and each phase
    averages to the combination's bias."""
    shape, p = v.shape, v.shape.p
    support = v.forms[0].support
    total = Fraction(0)
    for lam in itertools.product(range(p), repeat=len(v.forms)):
        coeffs = sum(a * f.coeffs.astype(np.int64) for a, f in zip(lam, v.forms))
        total += forms.bias(MultilinearForm(shape, support, coeffs))
    count = total * shape.total_points / p ** len(v.forms)
    assert count.denominator == 1
    return int(count)


def monomial_value(m) -> Fraction:
    """The exact rational 2**two * p**p_exp * c**c_exp of a ledger monomial;
    only for the small exponents of low arities."""
    return Fraction(2) ** m.two * Fraction(m.p) ** m.p_exp * m.c**m.c_exp


def legacy_certificate(obj, version: str) -> dict:
    """A copy of a certificate object in format version 1 to 4: its ledger
    one record per path, parent first, "" at the top and P/i below P in
    direction i, each its v5 node with "path" in place of "children", and in
    "1" and "2" every ledger monomial written as the rational string it
    equals."""
    legacy = json.loads(json.dumps(obj))
    legacy["format_version"] = version
    if version == "1":
        legacy["containment_verified"] = True
    nodes, p = legacy["ledger"], Fraction(obj["output"]["shape"]["p"])

    def records(i, path):
        record = {"path": path, **nodes[i]}
        children = record.pop("children")
        for key in ("c_prime", "c_double_prime", "epsilon"):
            m = record[key]
            if version in ("1", "2") and m is not None:
                value = Fraction(m["coef"]) * p ** m["p_exp"] * Fraction(record["c"]) ** m["c_exp"]
                record[key] = str(value)
        yield record
        for d, j in enumerate(children):
            yield from records(j, f"{path}/{d}" if path else f"{d}")

    legacy["ledger"] = list(records(len(nodes) - 1, "")) if nodes else []
    return legacy


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


def brute_external_approx(source, s):
    """(survivors_per_step, error_count, phi component keys) of the external
    approximation greedy, on a histogram of value vectors built point by
    point over the whole group with eval_form.  Each step scans the
    functionals in itertools order and takes the first that leaves the
    fewest survivors; once none is left, the zero functional repeats."""
    shape, p = source.shape, source.shape.p
    support_total = p ** sum(shape.dims[j] for j in source.support)
    outside_mult = shape.total_points // support_total
    hist = collections.Counter(
        tuple(eval_form(f, point) for f in source.components)
        for point in enumerate_points(shape)
    )
    alive = {v: n for v, n in hist.items() if any(v)}
    functionals = list(itertools.product(range(p), repeat=source.codomain_dim))

    def kills(psi, v):
        return sum(a * x for a, x in zip(psi, v)) % p == 0

    per_step, keys = [], []
    for _ in range(s):
        psi = functionals[0]
        if alive:
            left = [sum(n for v, n in alive.items() if kills(f, v)) for f in functionals]
            psi = functionals[left.index(min(left))]
            alive = {v: n for v, n in alive.items() if kills(psi, v)}
        per_step.append(sum(alive.values()) // outside_mult)
        coeffs = sum(
            (a * f.coeffs.astype(np.int64) for a, f in zip(psi, source.components)),
            np.zeros([shape.dims[j] for j in source.support], dtype=np.int64),
        )
        keys.append(MultilinearForm(shape, source.support, coeffs).key())
    return tuple(per_step), sum(alive.values()), keys


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


def factorizable_tensors_by_products(shape, support):
    """The distinct nonzero product tensors on the support as flat digit rows,
    built one product_form at a time over every split of the support (left
    side holding the first factor) and every pair (beta, gamma) with beta's
    first nonzero coefficient 1, in first-seen order."""
    p = shape.p
    seen, rows = set(), []
    for left, right in forms._splits(support):
        ldim = int(np.prod([shape.dims[j] for j in left]))
        rdim = int(np.prod([shape.dims[j] for j in right]))
        for beta in itertools.product(range(p), repeat=ldim):
            if next((c for c in beta if c), None) != 1:
                continue
            for gamma in itertools.product(range(p), repeat=rdim):
                if not any(gamma):
                    continue
                f = forms.product_form(shape, left, beta, right, gamma)
                key = f.coeffs.tobytes()
                if key not in seen:
                    seen.add(key)
                    rows.append(f.coeffs.reshape(-1))
    return np.array(rows, dtype=np.int64)


def searched_rank(form):
    """(rank, points charged) of partition_rank_search with its bias bound
    forced to 0 (bias 1) and its flattening bound raised by one, so on any
    nonzero form the breadth-first search runs and must reach the target
    itself instead of returning the upper bound."""
    flattening = forms.matricization_rank_bound
    with unittest.mock.patch.object(
        forms, "matricization_rank_bound", lambda f: flattening(f) + 1
    ):
        budget.reset_work()
        rank = forms.partition_rank_search(form, Fraction(1))
    return rank, budget.work_points()


def _pivots(rows):
    return [next(i for i, c in enumerate(row) if c) for row in rows]


def subspace_contains(rows, p, n, v) -> bool:
    """True iff v in F_p^n reduces to zero against the reduced echelon rows."""
    coords = [int(c) % p for c in v]
    assert len(coords) == n
    for row, pivot in zip(rows, _pivots(rows)):
        coeff = coords[pivot]
        if coeff:
            coords = [(x - coeff * int(c)) % p for x, c in zip(coords, row)]
    return not any(coords)


def subspace_points(rows, p, n):
    """All p**len(rows) points of the span of the rows in F_p^n, one per
    combination of them."""
    for combo in itertools.product(range(p), repeat=len(rows)):
        yield tuple(
            sum(a * int(row[i]) for a, row in zip(combo, rows)) % p
            for i in range(n)
        )


def annihilator(rows, p, n):
    """Reduced echelon rows of the vectors w with w . v = 0 for every v in
    the span of the reduced echelon rows in F_p^n: n - len(rows) of them."""
    pivots = _pivots(rows)
    out = []
    for free in range(n):
        if free in pivots:
            continue
        w = [0] * n
        w[free] = 1
        for row, pcol in zip(rows, pivots):
            w[pcol] = -int(row[free]) % p
        out.append(w)
    return rref(out, p, width=n)


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


def scan_offsets(shape, bases, allowed):
    """The witness search's offsets (variety._fill_scan) by a full search
    over the offset tuples, quadratic in |allowed|, for the no-witness
    floods where a brute-force search is too slow.

    It runs on one copy of `allowed` with its axes reversed, where the
    tie-break order is C order, so the first witness is one argmax over the
    flattened offset mask.  After the round for a direction, the surviving
    offsets have both the plain and the shifted corner in the set for every
    combination of the directions processed so far.  The rounds for
    directions 0..k-2 are shared by the bases of one prefix; only the last
    direction's round runs once per base.
    """
    k = shape.k
    rev = allowed.T.copy()
    offsets = np.full(bases.shape, -1, dtype=np.int64)
    shared, prefix = None, None
    for row, base in enumerate(bases.tolist()):
        if base[:-1] != prefix:
            prefix, shared = base[:-1], rev
            for i, t in enumerate(prefix):
                perm = shift_rows(shape.p, shape.dims[i], t)
                shared = shared & np.take(shared, perm, axis=k - 1 - i)
        out = (shared & shared[shift_rows(shape.p, shape.dims[-1], base[-1])]).reshape(-1)
        first = int(out.argmax())
        if out[first]:
            offsets[row] = np.unravel_index(first, rev.shape)[::-1]
    return offsets


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


def coordinate_products(shape, w: int):
    """The forms x_i y_j for i < w and every j on a two-factor shape: their
    variety is {x_1 = ... = x_w = 0} union {y = 0}."""
    products = []
    for i, j in itertools.product(range(w), range(shape.dims[1])):
        coeffs = np.zeros(shape.dims, dtype=int)
        coeffs[i, j] = 1
        products.append(MultilinearForm(shape, (0, 1), coeffs))
    return products


def planted_cylinder(rng, shape, m: int, w: int):
    """m full-support forms f_i = sum over j < w of l_j(x_1) g_ij(x_2, ...),
    with l_1, ..., l_w independent random linear forms on the first factor
    and the g_ij random multilinear forms on the others: every f_i vanishes
    on the codimension-w cylinder {l = 0}."""
    p, dims = shape.p, shape.dims
    while True:
        ells = [[rng.randrange(p) for _ in range(dims[0])] for _ in range(w)]
        if brute_rank_mod(ells, p) == w:
            break
    rest = dims[1:]
    products = []
    for _ in range(m):
        coeffs = np.zeros(dims, dtype=np.int64)
        for ell in ells:
            g = np.array([rng.randrange(p) for _ in range(math.prod(rest))]).reshape(rest)
            coeffs += np.multiply.outer(np.array(ell), g)
        products.append(MultilinearForm(shape, tuple(range(shape.k)), coeffs % p))
    return products


def reduced_echelon_matrices(p: int, n: int):
    """Every reduced row echelon matrix over F_p with n columns and no zero
    row, once each, so one per subspace of F_p^n."""
    for rank in range(n + 1):
        for pivots in itertools.combinations(range(n), rank):
            free = [(i, j) for i, col in enumerate(pivots)
                    for j in range(col + 1, n) if j not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                m = np.zeros((rank, n), dtype=np.int64)
                m[range(rank), pivots] = 1
                for (i, j), x in zip(free, values):
                    m[i, j] = x
                yield m


def canonical_varieties(shape, max_codim=math.inf):
    """Every canonical variety of shape with at most max_codim forms in all,
    once: one reduced echelon basis of a subspace of each nonempty
    support's coefficient space, the supports in the order
    Variety.canonical sorts them.  The empty support is left out, since a
    nonzero constant form cuts out the empty set."""
    families = []
    for support in sorted(
        s for r in range(1, shape.k + 1) for s in itertools.combinations(range(shape.k), r)
    ):
        width = math.prod(shape.dims[j] for j in support)
        families.append([
            [MultilinearForm(shape, support, row) for row in m]
            for m in reduced_echelon_matrices(shape.p, width)
        ])

    def choices(i, room):
        # the bases of families i, i+1, ... in product order, room forms at most
        if i == len(families):
            yield ()
            return
        for forms in families[i]:
            if len(forms) <= room:
                for rest in choices(i + 1, room - len(forms)):
                    yield (*forms, *rest)

    for forms in choices(0, max_codim):
        yield Variety(shape, forms)


def mask_image_histogram(fib, components):
    """construct._image_histogram by closing a B x p**m mask: the image of
    M(x) holds code 0 and is closed one pivot column v at a time, a set S
    going to the union of S + a v over a in F_p, p - 1 gathers of S
    shifted by v (field.shift_rows), and each code of it is hit
    p**(n - rank M(x)) times."""
    p, m, b, n = fib.p, len(components), fib.b, fib.n
    # the codes of the columns of M(x), (n, B); none without j
    columns = np.zeros((n, b), dtype=np.int64)
    if fib.j is not None:
        for rows in fib.values(components):
            columns = columns * p + rows
    basis = fib.system(components).basis
    size = p**m
    image = np.zeros((b, size), dtype=bool)
    image[:, 0] = True
    flat = image.reshape(-1)
    cells = np.arange(0, b * size, size)[:, None]
    for pivot in basis.pivots:
        # where the pair is zero its pivot column still lies in the image
        ahead = shift_rows(p, m, columns[pivot, np.arange(b)]) + cells
        for _ in range(p - 1):
            image |= flat.take(ahead)
    weight = np.array([p ** (n - r) for r in range(len(basis.pivots) + 1)],
                      dtype=np.int64 if b * p**n < 2**63 else object)
    return weight[basis.rank] @ image


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


def count_bitmap_passes(monkeypatch):
    """List of the points charged by every variety bitmap that is built,
    in order."""
    passes = []
    original = budget.charge

    def recording(points, what):
        if what == "variety bitmap":
            passes.append(points)
        original(points, what)

    monkeypatch.setattr(budget, "charge", recording)
    return passes


# The process-wide memos of a level's exact ledger arithmetic.
LEDGER_MEMOS = (ledger._fiber_constants, ledger._fiber_thresholds, ledger._level_constants,
                ledger._clamps, ledger.codim_budget)


def count_log_signs(monkeypatch):
    """List that gains one entry per exact sign decision of the ledger's
    monomials (monomial._log_sign), the unit of their arithmetic's work.
    The ledger's memos are emptied first, so no earlier call saves work."""
    for memo in LEDGER_MEMOS:
        memo.cache_clear()
    calls = []
    original = monomial._log_sign

    def recording(powers):
        calls.append(1)
        return original(powers)

    monkeypatch.setattr(monomial, "_log_sign", recording)
    return calls


def miss_every_memo_lookup(monkeypatch):
    """Give every finder call a sub-problem key no other call shares, so the
    memo never hits and every sub-problem is solved afresh."""
    monkeypatch.setattr(construct, "_variety_key", lambda v: object())


def skip_zero_offset_precheck(monkeypatch):
    """Make the witness search's zero-offset pre-check accept no base, so
    every base goes to the row pass."""
    monkeypatch.setattr(
        variety, "_zero_offset_hits",
        lambda shape, bases, allowed: np.zeros(len(bases), dtype=bool),
    )


def count_row_pass_bases(monkeypatch):
    """Counter from each row r of the witness search's row pass to the
    bases that read it, over all chunks: a row's last-direction translation
    (cell r of each base's table) is the one shift_rows call in the
    variety module that names a cell."""
    read = collections.Counter()
    original = variety.shift_rows

    def recording(p, n, shifts, cells=None):
        if cells is not None:
            read[int(cells)] += np.size(shifts)
        return original(p, n, shifts, cells)

    monkeypatch.setattr(variety, "shift_rows", recording)
    return read


def replace_shift_tables(monkeypatch, table):
    """Make every translation table the witness search reads equal
    table(p, n), whatever the shift: the batched kernel's rows, or the
    cells of them it asks for, are copies of that one table."""
    monkeypatch.setattr(
        variety, "shift_rows",
        lambda p, n, shifts, cells=slice(None): np.add.outer(
            np.zeros(np.shape(shifts), dtype=np.int64), table(p, n)[cells]
        ),
    )


def constant_shift_tables(monkeypatch, rank):
    """Make every translation the witness search uses land on the vector of
    the given rank, so a set missing that rank leaves no witness anywhere.
    The row pass takes all its translations from these tables, the last
    direction's r + x_last included.  The zero-offset pre-check uses no
    translation table and would still find real witnesses, so it is made
    to accept no base."""
    skip_zero_offset_precheck(monkeypatch)
    replace_shift_tables(monkeypatch, lambda p, n: np.full(p**n, rank, dtype=np.int64))


def approximate_with_no_functionals(monkeypatch):
    """Make the finder run its external approximation with s = 0, so the
    candidate keeps only the cylinder constraints and strictly exceeds a
    target cut out by a full-support form."""
    original = construct.external_approx
    monkeypatch.setattr(construct, "external_approx", lambda source, s: original(source, 0))


def contracting_slice(v, factors, coords):
    """slice_variety with every form contracted at the fixed vectors: a form
    that holds a factor fixed at zero is kept as the zero form it slices to,
    and only a form supported inside the fixed factors is evaluated, its
    zero constants dropped and a nonzero one giving the empty variety."""
    fixed = dict(zip(factors, coords))
    remaining = [j for j in range(v.shape.k) if j not in fixed]
    reduced = Shape(v.shape.p, tuple(v.shape.dims[j] for j in remaining))
    if v.is_empty:
        return Variety.empty(reduced)
    out = []
    for f in v.forms:
        hit = [j for j in f.support if j in fixed]
        if len(hit) == len(f.support):
            point = [fixed.get(j, (0,) * n) for j, n in enumerate(v.shape.dims)]
            if eval_form(f, point):
                return Variety.empty(reduced)
            continue
        g = slice_form(f, hit, [fixed[j] for j in hit]) if hit else f
        support = tuple(remaining.index(j) for j in g.support)
        out.append(MultilinearForm(reduced, support, g.coeffs))
    return Variety(reduced, out)


def slice_by_contracting(monkeypatch):
    """Make the finder slice with contracting_slice, and return the list of
    (forms it kept, forms slice_variety keeps) over every slice it takes."""
    kept = []

    def contracting(v, factors, coords):
        out = contracting_slice(v, factors, coords)
        kept.append((len(out.forms), len(variety.slice_variety(v, factors, coords).forms)))
        return out

    monkeypatch.setattr(construct, "slice_variety", contracting)
    return kept
