"""Seeded instance generators.

Uniform coefficient tensors at a given shape, planted products of random
subspaces (known density, known structure), and planted low partition rank
forms (a sum of r random factorizable terms).  All randomness flows from one
random.Random instance handed in by the caller; the stream identifier below
is recorded in every output artifact so runs can be replayed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .field import rref, validate_prime
from .forms import MultilinearForm, MultilinearMap, Shape, coerce_support, product_form
from .variety import PointSet, Variety

RNG_ID = "python-random-mt19937"


def random_form(rng: random.Random, shape: Shape, support=None) -> MultilinearForm:
    """Uniform coefficient tensor on the given support (full by default)."""
    if support is None:
        support = range(shape.k)
    size = math.prod(shape.dims[j] for j in coerce_support(shape, support))
    coeffs = [rng.randrange(shape.p) for _ in range(size)]
    return MultilinearForm(shape, support, coeffs)


def random_support(rng: random.Random, k: int) -> tuple[int, ...]:
    """A uniformly random nonempty subset of the factors."""
    while True:
        s = tuple(j for j in range(k) if rng.randrange(2))
        if s:
            return s


def random_map(rng: random.Random, shape: Shape, codomain_dim: int) -> MultilinearMap:
    """codomain_dim uniform full-support forms as one map."""
    comps = [random_form(rng, shape) for _ in range(codomain_dim)]
    return MultilinearMap(shape, range(shape.k), comps)


def random_subspace(rng: random.Random, p: int, n: int, dim: int) -> np.ndarray:
    """A uniformly-seeded subspace of F_p^n of exactly the given dimension,
    as the (dim, n) uint8 rows of its reduced echelon basis: uniform
    candidate rows are drawn and kept while they raise the rank."""
    if not 0 <= dim <= n:
        raise PreconditionError("subspace dimension out of range")
    validate_prime(p)
    rows: list[tuple[int, ...]] = []
    while len(rows) < dim:
        candidate = tuple(rng.randrange(p) for _ in range(n))
        if len(rref(rows + [candidate], p, width=n)) > len(rows):
            rows.append(candidate)
    return rref(rows, p, width=n)


def planted_product_variety(
    rng: random.Random, shape: Shape, codims
) -> tuple[Variety, Fraction]:
    """A product of per-factor subspaces with the given codimensions.

    The defining forms are codims[i] independent linear forms per factor, so
    the density is exactly p ** -(sum of codims).
    """
    codims = tuple(int(c) for c in codims)
    if len(codims) != shape.k:
        raise PreconditionError("one codimension per factor")
    forms = []
    for i, r in enumerate(codims):
        if not 0 <= r <= shape.dims[i]:
            raise PreconditionError(f"codimension {r} out of range for factor {i}")
        for row in random_subspace(rng, shape.p, shape.dims[i], r):
            forms.append(MultilinearForm(shape, (i,), row))
    return Variety(shape, forms), Fraction(1, shape.p ** sum(codims))


def planted_low_prank_form(rng: random.Random, shape: Shape, r: int) -> MultilinearForm:
    """A full-support sum of r random factorizable terms; partition rank at
    most r."""
    support = tuple(range(shape.k))
    if len(support) < 2:
        raise PreconditionError("planted factorizable terms need two support factors")
    acc = np.zeros(tuple(shape.dims[j] for j in support), dtype=np.int64)
    for _ in range(r):
        split = rng.randrange(1, 2 ** len(support) - 1)
        left = tuple(j for t, j in enumerate(support) if split >> t & 1)
        right = tuple(j for j in support if j not in left)
        beta = [rng.randrange(shape.p) for _ in range(
            math.prod(shape.dims[j] for j in left))]
        gamma = [rng.randrange(shape.p) for _ in range(
            math.prod(shape.dims[j] for j in right))]
        # a side with no coefficients (a factor of dimension 0) makes the
        # term zero; every other side gets a nonzero entry
        if beta and not any(beta):
            beta[rng.randrange(len(beta))] = 1 + rng.randrange(shape.p - 1)
        if gamma and not any(gamma):
            gamma[rng.randrange(len(gamma))] = 1 + rng.randrange(shape.p - 1)
        term = product_form(shape, left, beta, right, gamma)
        acc = (acc + term.coeffs.astype(np.int64)) % shape.p
    return MultilinearForm(shape, support, acc)


def random_variety(
    rng: random.Random, shape: Shape, n_forms: int, full_support_only: bool = False
) -> Variety:
    """A variety cut out by random forms with random (or full) supports."""
    forms = []
    for _ in range(n_forms):
        if full_support_only or rng.randrange(2):
            support = tuple(range(shape.k))
        else:
            support = random_support(rng, shape.k)
        forms.append(random_form(rng, shape, support))
    return Variety(shape, forms)


def random_point_subset(
    rng: random.Random, shape: Shape, mask: np.ndarray, count: int
) -> PointSet:
    """count distinct points sampled from the masked set: draws of
    rng.randrange over the set's flat cells in C order until count distinct
    ones are drawn."""
    if count < 0:
        raise PreconditionError(f"cannot sample a negative number of points ({count})")
    pool = np.flatnonzero(mask)
    if count > len(pool):
        raise PreconditionError(f"cannot sample {count} points from {len(pool)}")
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randrange(len(pool)))
    out = np.zeros(shape.group_sizes, dtype=bool)
    out.reshape(-1)[pool[list(chosen)]] = True
    return PointSet(shape, out)
