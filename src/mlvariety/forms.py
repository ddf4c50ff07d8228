"""Multilinear forms and maps as dense coefficient tensors over F_p.

A form carries a support: the subset of factors it actually depends on.  It
is multilinear as a function of those factors and ignores the rest.  Bias,
analytic rank and the partition-rank oracles all work with exact rational
arithmetic; floating point appears only in the reported log value of the
analytic rank, never in a decision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import budget
from .errors import ConstructionError, PreconditionError, ZeroBiasError
from .field import (
    MAX_DIM_SUM,
    all_vectors,
    as_coords,
    batched_echelon,
    rref,
    shift_rows,
    validate_prime,
)


@dataclass(frozen=True)
class Shape:
    """The ambient product group: k factors F_p^{n_1} x ... x F_p^{n_k}.

    k and the group sizes are computed on first use and kept; a shape
    whose dimensions sum past MAX_DIM_SUM is refused before any power of p
    is formed.
    """

    p: int
    dims: tuple[int, ...]

    def __post_init__(self):
        validate_prime(self.p)
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if len(self.dims) < 1:
            raise PreconditionError("a shape needs at least one factor")
        if any(n < 0 for n in self.dims):
            raise PreconditionError("factor dimensions must be non-negative")
        if sum(self.dims) > MAX_DIM_SUM:
            raise PreconditionError(
                f"factor dimensions sum to {sum(self.dims)}, over the limit of {MAX_DIM_SUM}"
            )

    @functools.cached_property
    def k(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(self.p**n for n in self.dims)

    @functools.cached_property
    def total_points(self) -> int:
        return self.p ** sum(self.dims)


def coerce_support(shape: Shape, support: Iterable[int]) -> tuple[int, ...]:
    """The distinct factors of a support, sorted, refused outside the shape."""
    support = tuple(sorted({int(j) for j in support}))
    if any(j < 0 or j >= shape.k for j in support):
        raise PreconditionError(f"support {support} outside factors of {shape}")
    return support


def coerce_point(shape: Shape, point) -> tuple[tuple[int, ...], ...]:
    """Validate and reduce a full point, one coordinate tuple per factor."""
    pt = tuple(point)
    if len(pt) != shape.k:
        raise PreconditionError(f"point has {len(pt)} factors, shape has {shape.k}")
    return tuple(as_coords(x, shape.p, n) for x, n in zip(pt, shape.dims))


@dataclass(frozen=True, slots=True, eq=False)
class MultilinearForm:
    """A coefficient tensor with one axis per support factor.

    Entries are reduced mod p.  Empty support is allowed only for the
    canonical zero form; a form in zero variables is identically zero by
    convention.  The coefficients are a read-only view, which cannot be
    made writeable again, so the key and the zero flag are computed once,
    at construction.
    """

    shape: Shape
    support: tuple[int, ...]
    coeffs: np.ndarray
    _key: tuple = field(init=False, repr=False)
    _zero: bool = field(init=False, repr=False)

    def __post_init__(self):
        support = coerce_support(self.shape, self.support)
        expected = tuple(self.shape.dims[j] for j in support)
        arr = np.asarray(self.coeffs, dtype=np.int64)
        if arr.shape != expected:
            if arr.size != math.prod(expected):
                raise PreconditionError(
                    f"coefficient tensor has {arr.size} entries, expected "
                    f"{math.prod(expected)} for support {support}"
                )
            arr = arr.reshape(expected)
        arr = (arr % self.shape.p).astype(np.uint8)
        zero = not arr.any()
        if not support and not zero:
            raise PreconditionError("empty-support forms must be identically zero")
        arr.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", arr.view())
        object.__setattr__(self, "_key", (support, arr.tobytes()))
        object.__setattr__(self, "_zero", zero)

    def is_zero(self) -> bool:
        return self._zero

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearForm)
            and self.shape == other.shape
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._key))

    def __repr__(self) -> str:
        return (
            f"MultilinearForm(p={self.shape.p}, dims={self.shape.dims}, "
            f"support={self.support}, coeffs={self.coeffs.tolist()})"
        )


def product_form(
    shape: Shape,
    left_support: Iterable[int],
    left_coeffs,
    right_support: Iterable[int],
    right_coeffs,
) -> MultilinearForm:
    """The form beta(x_I) * gamma(x_J) for disjoint supports I and J."""
    left_support = coerce_support(shape, left_support)
    right_support = coerce_support(shape, right_support)
    if set(left_support) & set(right_support):
        raise PreconditionError("product factors must use disjoint supports")
    if not left_support or not right_support:
        raise PreconditionError("both factors of a product form need variables")
    beta = np.asarray(left_coeffs, dtype=np.int64).reshape(
        tuple(shape.dims[j] for j in left_support)
    )
    gamma = np.asarray(right_coeffs, dtype=np.int64).reshape(
        tuple(shape.dims[j] for j in right_support)
    )
    outer = np.multiply.outer(beta, gamma) % shape.p
    combined = left_support + right_support
    order = np.argsort(combined, kind="stable")
    return MultilinearForm(shape, sorted(combined), np.transpose(outer, order))


@dataclass(frozen=True, slots=True)
class MultilinearMap:
    """A stack of forms sharing shape and support; codomain F_p^m."""

    shape: Shape
    support: tuple[int, ...]
    components: tuple[MultilinearForm, ...]

    def __post_init__(self):
        support = coerce_support(self.shape, self.support)
        components = tuple(self.components)
        for f in components:
            if f.shape != self.shape or f.support != support:
                raise PreconditionError("map components must share shape and support")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "components", components)

    @property
    def codomain_dim(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_form(form: MultilinearForm, point) -> int:
    """Contract the coefficient tensor with the point's support coordinates."""
    return int(_contracted(form, dict(enumerate(coerce_point(form.shape, point))))[1])


def _fixed_vectors(shape: Shape, factors: Iterable[int], coords) -> dict:
    """A partial point as {factor: reduced vector}, in factor order.

    Each factor pairs with the vector given next to it.  A count mismatch,
    a factor outside the shape and a factor given twice are refused.
    """
    factors = tuple(int(j) for j in factors)
    coords = tuple(coords)
    if len(coords) != len(factors):
        raise PreconditionError("one coordinate vector per sliced factor")
    if any(j < 0 or j >= shape.k for j in factors):
        raise PreconditionError("slice factors outside the shape")
    if len(set(factors)) != len(factors):
        raise PreconditionError(f"slice factors {factors} name a factor twice")
    return {j: as_coords(x, shape.p, shape.dims[j])
            for j, x in sorted(zip(factors, coords))}


def _contracted(form: MultilinearForm, fixed: dict):
    """(remaining support, coefficient tensor) of the form with the support
    factors that `fixed` names fixed at their reduced vectors; the tensor is
    0-d, the form's value, when every support factor is fixed."""
    t = form.coeffs
    # the last axes first, so the axes of the earlier ones stay in place
    for axis in range(len(form.support) - 1, -1, -1):
        x = fixed.get(form.support[axis])
        if x is not None:
            t = np.moveaxis(t, axis, -1) @ np.asarray(x, dtype=np.int64) % form.shape.p
    return tuple(j for j in form.support if j not in fixed), t


def _value_grid(p: int, axis_dims: Sequence[int], coeffs) -> np.ndarray:
    """Values over the product of the given factors, one axis per factor.

    Axis t has size p**axis_dims[t] and is indexed by vector rank in
    enumeration order.

    Each factor is expanded by additive extension: its coefficient axis is
    moved last and replaced by a value axis that starts at size 1; for each
    coordinate i, from the last down to the first, the axis grows into p
    copies, copy a holding the previous copy plus c_i.  So coordinate i
    varies slower than those already placed, the last coordinate fastest.
    For p > 2, sums of n terms below p stay exact and unreduced in the
    narrowest unsigned type holding n (p-1)**2, and each factor is reduced
    mod p once.  At p = 2 the copies are grown by XOR, which is addition
    mod 2 on {0, 1}, so values never leave {0, 1}: there is no reduction
    pass, and the peak memory is about one uint8 grid.  Axes of coeffs after
    the first len(axis_dims) are kept, in front of the value axes.  The
    callers charge the points they build.
    """
    grow = np.bitwise_xor if p == 2 else np.add
    t = np.asarray(coeffs, dtype=np.int64) % p
    for n in axis_dims:
        acc = np.min_scalar_type(n * (p - 1) ** 2)
        c = np.moveaxis(t, 0, -1).astype(acc)
        t = np.zeros(c.shape[:-1] + (p**n,), dtype=acc)
        size = 1
        for i in range(n - 1, -1, -1):
            for a in range(1, p):
                grow(t[..., (a - 1) * size : a * size], c[..., i : i + 1],
                     out=t[..., a * size : (a + 1) * size])
            size *= p
        if p > 2:
            q = t // p
            q *= p
            t -= q
    return t.astype(np.uint8, copy=False)


def eval_grid(form: MultilinearForm) -> np.ndarray:
    """Values of the form at every point of its support product group,
    charged as many points."""
    p = form.shape.p
    dims = [form.shape.dims[j] for j in form.support]
    budget.charge(math.prod(p**n for n in dims), "evaluation grid")
    return _value_grid(p, dims, form.coeffs)


def fiber_values(forms: Sequence[MultilinearForm], j: int,
                 others: Sequence[int]) -> list[np.ndarray]:
    """Each form over the points x of the factors `others`, listed in
    enumeration order, with factor j left free: when its support holds j,
    its (n_j, B) row of M(x), whose column x is the linear form in factor
    j the form restricts to at x, the layout field.batched_echelon takes;
    else its (B,) values, constants at x.  B is the product of the group
    sizes of `others`, and every support lies inside `others` and j.

    The forms that share a support are one stack and one _value_grid call,
    over the support factors other than j, with the stack and j's
    coefficient axes kept; the factors of `others` outside the support are
    broadcast.  Rows are views whose entries lie contiguously along x.
    The budget admits B, then the B * n_j entries of each form with j and
    the B of each other form are charged, before anything is built.
    """
    if not forms:
        return []
    shape = forms[0].shape
    p, dims = shape.p, shape.dims
    b = math.prod(p ** dims[l] for l in others)
    budget.ensure(b, "fiber rows")
    budget.charge(sum(b * (dims[j] if j in f.support else 1) for f in forms), "fiber rows")
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, f in enumerate(forms):
        groups.setdefault(f.support, []).append(pos)
    out: list = [None] * len(forms)
    for support, members in groups.items():
        rest = [l for l in support if l != j]
        t = np.moveaxis(np.stack([forms[pos].coeffs for pos in members]), 0, -1)
        tail = []
        if j in support:
            t = np.moveaxis(t, support.index(j), -1)
            tail = [dims[j]]
        # (stack, [n_j,] value axes of rest), the rows contiguous along x
        grid = _value_grid(p, [dims[l] for l in rest], t)
        lead = [len(members)] + tail
        grown = lead + [p ** dims[l] if l in rest else 1 for l in others]
        full = lead + [p ** dims[l] for l in others]
        grid = np.broadcast_to(grid.reshape(grown), full).reshape(lead + [b])
        for pos, values in zip(members, grid):
            out[pos] = values
    return out


def slice_form(form: MultilinearForm, factors: Iterable[int], coords) -> MultilinearForm:
    """Partial evaluation: fix the given support factors at the given vectors,
    each factor at the vector given next to it (_fixed_vectors).

    The result keeps the ambient shape with support shrunk to the remaining
    factors.  Slicing away the whole support is rejected; use eval_form.
    """
    fixed = _fixed_vectors(form.shape, factors, coords)
    if not fixed.keys() <= set(form.support):
        raise PreconditionError(
            f"slice factors {tuple(fixed)} must lie inside the support {form.support}"
        )
    if len(fixed) == len(form.support):
        raise PreconditionError("slicing away the whole support; use eval_form")
    return MultilinearForm(form.shape, *_contracted(form, fixed))


# ---------------------------------------------------------------------------
# Bias and analytic rank
# ---------------------------------------------------------------------------

def bias(form: MultilinearForm) -> Fraction:
    """Exact bias of a multilinear form, as a rational in [0, 1]: the mean of
    p**-rank S(z) (Lovett 2019), where a and b are the two largest support
    factors, z runs over the B' points of the other support factors and
    S(z) is the n_a x n_b matrix of the form at z.  Row i of every S(z) is
    the fiber row in b of the slice at x_a = e_i (fiber_values, B' * n_a *
    n_b entries), and one batched elimination ranks them all.  A zero form
    has bias 1, a nonzero form on one factor bias 0.
    """
    if form.is_zero():
        return Fraction(1)
    if len(form.support) < 2:
        return Fraction(0)
    shape, support = form.shape, form.support
    a, b = sorted(support, key=shape.dims.__getitem__)[-2:]
    rest = tuple(l for l in support if l != a)
    slices = [MultilinearForm(shape, rest, np.take(form.coeffs, i, axis=support.index(a)))
              for i in range(shape.dims[a])]
    rows = fiber_values(slices, b, [l for l in rest if l != b])
    rank = batched_echelon(rows, shape.p).rank
    per_rank = np.bincount(rank).tolist()
    return sum(Fraction(m, shape.p**r) for r, m in enumerate(per_rank)) / len(rank)


def analytic_rank(b: Fraction, p: int) -> float:
    """log_p of the reciprocal of a form's bias b over F_p."""
    if p < 2:
        raise PreconditionError(f"analytic rank needs p >= 2, got {p}")
    if b == 0:
        raise ZeroBiasError(
            "bias is zero (support is a single factor and the form is nonzero); "
            "the analytic rank is infinite"
        )
    return (math.log(b.denominator) - math.log(b.numerator)) / math.log(p)


def ceil_log(p: int, value: Fraction | int) -> int:
    """Least t >= 0 with p**t >= value, by exact comparison."""
    if p < 2:
        raise PreconditionError(f"a logarithm needs a base of at least 2, got {p}")
    value = Fraction(value)
    t, power = 0, 1
    while power < value:
        power *= p
        t += 1
    return t


def prank_lower_bound(b: Fraction, p: int) -> int:
    """ceil(log_p 1/b) for a form of bias b over F_p: no decomposition into
    fewer factorizable summands can exist, because r summands force
    bias >= p**-r."""
    if b == 0:
        raise ZeroBiasError("bias is zero; no finite partition rank bound applies")
    return ceil_log(p, 1 / b)


# ---------------------------------------------------------------------------
# Partition rank
# ---------------------------------------------------------------------------

def matricization_rank_bound(form: MultilinearForm) -> int:
    """Upper bound: min over support factors of the flattening matrix rank.

    Expanding along the factor achieving the minimum writes the form as that
    many factorizable summands.  For a form in two variables it is exact:
    every factorizable summand is then a rank-one matrix, so the partition
    rank is the matrix rank (and the bias is exactly p**-rank).
    """
    if form.is_zero():
        return 0
    t = form.coeffs
    flattenings = (np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1) for axis in range(t.ndim))
    return min(len(rref(mat.tolist(), form.shape.p)) for mat in flattenings)


def _splits(support: tuple[int, ...]):
    """Yield the splits (left, right) of the support into two nonempty parts,
    left holding the first support factor: swapping the parts only swaps the
    two factors of a product."""
    others = support[1:]
    for mask in range(2 ** len(others)):
        left = (support[0],) + tuple(j for t, j in enumerate(others) if mask >> t & 1)
        right = tuple(j for j in support if j not in left)
        if right:
            yield left, right


def _factorizable_tensors(shape: Shape, support: tuple[int, ...]) -> np.ndarray:
    """All distinct nonzero product tensors on the support, as flat digit rows
    in sorted order.

    Each split from _splits gives one outer product of the two sides' vector
    tables.  beta's first nonzero coefficient is pinned to 1 (other scalars
    are absorbed into gamma), and _distinct_rows drops the products that
    several splits share.
    """
    p = shape.p
    blocks = []
    for left, right in _splits(support):
        betas = all_vectors(p, math.prod(shape.dims[j] for j in left))[1:].astype(np.int64)
        betas = betas[betas[np.arange(len(betas)), (betas != 0).argmax(axis=1)] == 1]
        gammas = all_vectors(p, math.prod(shape.dims[j] for j in right))[1:]
        outer = (betas[:, None, :, None] * gammas[None, :, None, :]) % p
        outer = outer.reshape((-1,) + tuple(shape.dims[j] for j in left + right))
        order = np.argsort(left + right, kind="stable")
        blocks.append(np.transpose(outer, (0, *(order + 1))).reshape(len(outer), -1))
    return _distinct_rows(np.concatenate(blocks))


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """np.unique(rows, axis=0) from a sort and a compare of neighbours: the
    distinct entries of a 1-d array in increasing order, or the distinct
    rows of a 2-d array in lexicographic order.  np.unique's first call in
    a process imports numpy.ma, 11-14 ms."""
    keep = np.ones(len(rows), dtype=bool)
    if rows.ndim == 1:
        rows = np.sort(rows)
        keep[1:] = rows[1:] != rows[:-1]
    else:
        rows = rows[np.lexsort(rows.T[::-1])]
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def partition_rank_search(form: MultilinearForm, b: Fraction) -> int | tuple[int, int]:
    """Least number of factorizable summands equal to the form of bias b.

    b is the form's bias as bias(form) gives it.  The rank lies between the
    bias lower bound prank_lower_bound(b, p) and the flattening rank
    matricization_rank_bound(form); when the two meet, that value is
    returned and nothing is searched.  Otherwise a breadth-first search runs
    over the whole coefficient-tensor space: sums of r factorizable tensors
    are exactly the points at distance r from zero in the Cayley graph
    generated by the factorizable tensors, so the graph distance of the
    target is its partition rank.  A layer's images are its frontier
    translated by every generator, one field.shift_rows call.  Layers are
    expanded only for distances below the upper bound, which is returned if
    the target has not appeared by then.  The space is charged once and each
    layer's frontier times generators as it is expanded; the interval
    (lower, upper) is returned where the space, the generator table or the
    next layer would pass the point budget.
    """
    if form.is_zero():
        return 0
    support = form.support
    if len(support) < 2:
        raise PreconditionError("partition rank needs at least two support factors")
    p = form.shape.p
    lower, upper = prank_lower_bound(b, p), matricization_rank_bound(form)
    if lower == upper:
        return lower
    entry_count = math.prod(form.shape.dims[j] for j in support)
    space = p**entry_count
    # generator count before the beta/gamma dedup, one term per split
    gen_estimate = sum(
        (p ** math.prod(form.shape.dims[j] for j in left) - 1)
        * (p ** math.prod(form.shape.dims[j] for j in right) - 1)
        // (p - 1)
        for left, right in _splits(support)
    )
    if max(space, gen_estimate * entry_count) > budget.point_budget():
        return (lower, upper)
    gens = _factorizable_tensors(form.shape, support)
    budget.charge(space, "partition rank search")
    powers = np.array([p ** (entry_count - 1 - t) for t in range(entry_count)],
                      dtype=np.int64)
    target = int(form.coeffs.reshape(-1).astype(np.int64) @ powers)
    gen_codes = gens @ powers
    visited = np.zeros(space, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    for dist in range(1, upper):
        if len(frontier) * len(gens) > budget.point_budget():
            return (lower, upper)
        budget.charge(len(frontier) * len(gens), "partition rank search")
        images = _distinct_rows(shift_rows(p, entry_count, frontier, gen_codes).ravel())
        fresh = images[~visited[images]]
        if target in fresh:
            return dist
        if fresh.size == 0:
            # expanding along any support factor writes every tensor as a sum
            # of factorizable ones, so the generators span the space
            raise ConstructionError("factorizable generators failed to span the space")
        visited[fresh] = True
        frontier = fresh
    return upper
