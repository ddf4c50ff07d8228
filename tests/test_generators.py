import random
from fractions import Fraction

import numpy as np
import pytest

from mlvariety.errors import PreconditionError
from mlvariety.fibers import density
from mlvariety.forms import Shape, bias, prank_lower_bound
from mlvariety.generators import (
    planted_low_prank_form,
    planted_product_variety,
    random_form,
    random_point_subset,
    random_subspace,
    random_variety,
)
from mlvariety.variety import variety_bitmap

from helpers import small_dims


def test_random_subspace_exact_dimension():
    rng = random.Random(0)
    for _ in range(20):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 6)
        d = rng.randrange(0, n + 1)
        assert random_subspace(rng, p, n, d).rank == d


def test_planted_product_density_is_exact():
    rng = random.Random(1)
    for _ in range(15):
        p = rng.choice([2, 3])
        dims = small_dims(rng, rng.randrange(1, 4), 6)
        sh = Shape(p, dims)
        codims = tuple(rng.randrange(n + 1) for n in dims)
        v, claimed = planted_product_variety(rng, sh, codims)
        assert claimed == Fraction(1, p ** sum(codims))
        assert density(v) == claimed


def test_planted_low_prank_respects_bias_bound():
    rng = random.Random(2)
    for _ in range(20):
        p = rng.choice([2, 3])
        k = rng.choice([2, 3])
        sh = Shape(p, small_dims(rng, k, 6))
        r = rng.randrange(1, 4)
        f = planted_low_prank_form(rng, sh, r)
        assert bias(f) >= Fraction(1, p**r)
        if not f.is_zero():
            assert prank_lower_bound(bias(f), f.shape.p) <= r


def test_streams_are_reproducible():
    sh = Shape(2, (2, 2))
    a = random_form(random.Random(7), sh)
    b = random_form(random.Random(7), sh)
    assert a == b
    va = random_variety(random.Random(8), sh, 3)
    vb = random_variety(random.Random(8), sh, 3)
    assert va == vb


def test_random_point_subset_counts_and_containment():
    sh = Shape(2, (2, 2))
    rng = random.Random(9)
    v = random_variety(rng, sh, 1)
    mask = variety_bitmap(v)
    want = min(3, int(np.count_nonzero(mask)))
    got = random_point_subset(rng, sh, mask, want)
    assert got.size == want
    assert not np.any(got.mask & ~mask)
    with pytest.raises(PreconditionError):
        random_point_subset(rng, sh, mask, int(np.count_nonzero(mask)) + 1)
    with pytest.raises(PreconditionError):
        random_point_subset(rng, sh, mask, -1)


@pytest.mark.parametrize("seed", range(6))
def test_random_point_subset_places_the_points_it_always_drew(seed):
    rng = random.Random(seed)
    sh = Shape(rng.choice([2, 3]), small_dims(rng, rng.randrange(1, 4), 6))
    mask = variety_bitmap(random_variety(rng, sh, rng.randrange(3)))
    count = rng.randrange(int(np.count_nonzero(mask)) + 1)
    # the per-point placement of earlier releases, on a copy of the stream
    twin = random.Random()
    twin.setstate(rng.getstate())
    pool = np.argwhere(mask)
    chosen = set()
    while len(chosen) < count:
        chosen.add(twin.randrange(len(pool)))
    want = np.zeros(sh.group_sizes, dtype=bool)
    for i in sorted(chosen):
        want[tuple(int(t) for t in pool[i])] = True
    got = random_point_subset(rng, sh, mask, count)
    assert np.array_equal(got.mask, want)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda rng: random_subspace(rng, 2, 2, 3), "subspace dimension out of range",
                 id="subspace-over-ambient"),
    pytest.param(lambda rng: random_subspace(rng, 2, 2, -1), "subspace dimension out of range",
                 id="subspace-negative"),
    pytest.param(lambda rng: planted_product_variety(rng, Shape(2, (2, 2)), (1,)),
                 "one codimension per factor", id="product-codim-count"),
    pytest.param(lambda rng: planted_product_variety(rng, Shape(2, (2, 2)), (1, 3)),
                 "codimension 3 out of range for factor 1", id="product-codim-over-dim"),
    pytest.param(lambda rng: planted_low_prank_form(rng, Shape(2, (3,)), 1),
                 "two support factors", id="low-prank-arity-1"),
])
def test_generators_refuse_impossible_plants(call, message):
    with pytest.raises(PreconditionError, match=message):
        call(random.Random(0))


@pytest.mark.parametrize("support", [(3,), (0, 2), (-1,)])
def test_random_form_refuses_a_support_outside_the_shape(support):
    with pytest.raises(PreconditionError, match="outside factors"):
        random_form(random.Random(0), Shape(2, (2, 2)), support)
