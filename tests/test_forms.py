import dataclasses
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import budget, forms
from mlvariety.errors import PreconditionError, ZeroBiasError
from mlvariety.field import MAX_DIM_SUM
from mlvariety.fibers import zero_fiber_identity_check
from mlvariety.forms import (
    MultilinearForm,
    MultilinearMap,
    Shape,
    analytic_rank,
    bias,
    ceil_log,
    coerce_point,
    eval_form,
    eval_grid,
    matricization_rank_bound,
    partition_rank_search,
    prank_lower_bound,
    product_form,
    slice_form,
)
from mlvariety.construct import find_subvariety
from mlvariety.generators import (
    planted_low_prank_form,
    planted_product_variety,
    random_form,
    random_map,
    random_support,
    random_variety,
)
from mlvariety.jsonio import map_from_obj, map_to_obj, variety_from_obj, variety_to_obj
from mlvariety.ledger import codim_budget
from mlvariety.variety import Variety, slice_variety

from helpers import (
    brute_bias,
    brute_eval,
    brute_rank_mod,
    enumerate_points,
    factorizable_tensors_by_products,
    grid_bias,
    grid_zero_fiber_count,
    searched_rank,
    small_dims,
)


def rand_shape(rng, max_k=3, max_total=6) -> Shape:
    p = rng.choice([2, 3])
    k = rng.randrange(1, max_k + 1)
    return Shape(p, small_dims(rng, k, max_total))


# ---------------------------------------------------------------------------
# Construction and evaluation
# ---------------------------------------------------------------------------

def test_empty_support_must_be_zero():
    sh = Shape(2, (1, 1))
    assert MultilinearForm(sh, (), 0).is_zero()
    with pytest.raises(PreconditionError):
        MultilinearForm(sh, (), np.ones(()))


_SH = Shape(2, (1, 1))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Shape(2, ()), "at least one factor", id="shape-no-factors"),
    pytest.param(lambda: Shape(2, (1, -1)), "non-negative", id="shape-negative-dim"),
    pytest.param(lambda: coerce_point(_SH, ((1,),)), "point has 1 factors, shape has 2",
                 id="point-factor-count"),
    pytest.param(lambda: MultilinearForm(_SH, (0, 2), [[1]]), "outside factors",
                 id="form-support-outside"),
    pytest.param(lambda: MultilinearForm(Shape(2, (2, 2)), (0, 1), [1, 0, 1]),
                 "3 entries, expected 4", id="form-coefficient-count"),
    pytest.param(lambda: product_form(_SH, (0,), [1], (0, 1), [[1]]), "disjoint",
                 id="product-overlapping-sides"),
    pytest.param(lambda: product_form(_SH, (), [], (0, 1), [[1]]), "need variables",
                 id="product-empty-side"),
    pytest.param(lambda: slice_form(MultilinearForm(_SH, (0, 1), [[1]]), (0,), ()),
                 "one coordinate vector per sliced factor", id="slice-coordinate-count"),
    pytest.param(lambda: zero_fiber_identity_check(
        MultilinearForm(Shape(2, (2,)), (0,), [1, 0]), Fraction(0)),
        "at least two factors", id="zero-fiber-arity-1"),
    pytest.param(lambda: partition_rank_search(MultilinearForm(_SH, (1,), [1]), Fraction(0)),
                 "at least two support factors", id="search-one-factor"),
])
def test_forms_refuse_inputs_outside_their_contract(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_eval_zero_form_anywhere():
    sh = Shape(3, (2, 1))
    assert eval_form(MultilinearForm(sh, (), 0), ((1, 2), (2,))) == 0


def test_eval_single_monomial():
    sh = Shape(2, (1, 1))
    f = MultilinearForm(sh, (0, 1), [[1]])
    assert eval_form(f, ((1,), (1,))) == 1
    assert eval_form(f, ((1,), (0,))) == 0


def test_eval_dot_product_mod3():
    sh = Shape(3, (2, 2))
    f = MultilinearForm(sh, (0, 1), np.eye(2, dtype=int))
    assert eval_form(f, ((1, 2), (2, 2))) == 0  # 1*2 + 2*2 = 6 = 0 mod 3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_eval_matches_bruteforce(seed):
    rng = random.Random(seed)
    sh = rand_shape(rng)
    f = random_form(rng, sh, random_support(rng, sh.k))
    point = tuple(
        tuple(rng.randrange(sh.p) for _ in range(n)) for n in sh.dims
    )
    assert eval_form(f, point) == brute_eval(f, point)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_multilinearity_in_each_slot(seed):
    rng = random.Random(seed)
    sh = rand_shape(rng)
    f = random_form(rng, sh, random_support(rng, sh.k))
    slot = rng.choice(f.support) if f.support else 0
    base = [tuple(rng.randrange(sh.p) for _ in range(n)) for n in sh.dims]
    a = tuple(rng.randrange(sh.p) for _ in range(sh.dims[slot]))
    b = tuple(rng.randrange(sh.p) for _ in range(sh.dims[slot]))
    lam = rng.randrange(sh.p)

    def at(vec):
        pt = list(base)
        pt[slot] = vec
        return eval_form(f, pt)

    summed = tuple((x + y) % sh.p for x, y in zip(a, b))
    assert at(summed) == (at(a) + at(b)) % sh.p
    scaled = tuple((lam * x) % sh.p for x in a)
    assert at(scaled) == (lam * at(a)) % sh.p


# (p, dims, support): p in {2, 3, 5, 7, 17}, arity 1-4, proper-subset
# supports, a factor of dimension 0 (at p = 2, where grids grow by XOR, and
# at p = 3), and p = 17 where sums of two terms need more than eight bits.
GRID_CASES = [
    (2, (2, 2), (0, 1)),
    (2, (5,), (0,)),
    (2, (2, 1, 2), (0, 2)),
    (2, (3, 0, 2), (0, 1, 2)),
    (2, (2, 2, 2), (0, 1, 2)),
    (2, (1, 2, 1, 2), (0, 1, 2, 3)),
    (3, (2, 0, 2), (0, 1, 2)),
    (3, (1, 1, 1, 1), (0, 1, 2, 3)),
    (3, (2, 2, 1), (1, 2)),
    (5, (2, 2), (0, 1)),
    (5, (1, 1, 1), (0, 1, 2)),
    (7, (1, 2), (0, 1)),
    (17, (2,), (0,)),
    (17, (2, 1), (0, 1)),
    (17, (1, 3, 1), (1,)),
]


def test_eval_grid_matches_pointwise():
    """The grid kernel against eval_form's independent contraction at every
    point, the points decoded from ranks in itertools order; each case runs
    with random coefficients and with every coefficient p - 1, the largest
    unreduced sums."""
    rng = random.Random(11)
    for p, dims, support in GRID_CASES:
        sh = Shape(p, dims)
        random_coeffs = random_form(rng, sh, support).coeffs
        for coeffs in (random_coeffs, np.full(random_coeffs.shape, p - 1)):
            f = MultilinearForm(sh, support, coeffs)
            grid = eval_grid(f)
            assert grid.dtype == np.uint8
            assert grid.shape == tuple(p ** dims[j] for j in support)
            vectors = [list(itertools.product(range(p), repeat=n)) for n in dims]
            for idx in np.ndindex(grid.shape):
                point = [rng.choice(vecs) for vecs in vectors]
                for j, rank in zip(support, idx):
                    point[j] = vectors[j][rank]
                assert int(grid[idx]) == eval_form(f, point), (f, point)


def test_eval_grid_of_the_zero_form_is_one_zero():
    grid = eval_grid(MultilinearForm(Shape(3, (2, 1)), (), 0))
    assert grid.shape == () and grid.dtype == np.uint8 and int(grid) == 0


def test_value_grid_peak_memory_stays_near_the_grid():
    """At (2,(11,11)) the grid is 4 MiB of uint8; grown by XOR, it needs no
    reduction temporary, so the kernel holds less than two grids at once."""
    f = random_form(random.Random(15), Shape(2, (11, 11)))
    tracemalloc.start()
    try:
        grid = forms._value_grid(2, [11, 11], f.coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nbytes == 2**22
    assert peak < 2 * grid.nbytes


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------

def test_slice_to_empty_support_rejected():
    sh = Shape(2, (1, 1))
    f = MultilinearForm(sh, (0, 1), [[1]])
    with pytest.raises(PreconditionError):
        slice_form(f, (0, 1), ((1,), (1,)))


def test_slice_fix_zero_kills_product():
    sh = Shape(2, (1, 1))
    f = MultilinearForm(sh, (0, 1), [[1]])
    g = slice_form(f, (0,), ((0,),))
    assert g.support == (1,) and g.is_zero()


def test_slice_dot_product():
    sh = Shape(2, (2, 2))
    f = MultilinearForm(sh, (0, 1), np.eye(2, dtype=int))
    g = slice_form(f, (0,), ((1, 0),))
    assert g.support == (1,)
    assert g.coeffs.tolist() == [1, 0]


def test_slice_outside_support_rejected():
    sh = Shape(2, (1, 1, 1))
    f = MultilinearForm(sh, (0, 1), [[1]])
    with pytest.raises(PreconditionError):
        slice_form(f, (2,), ((1,),))


def test_slice_refuses_a_factor_given_twice():
    f = MultilinearForm(Shape(2, (1, 1, 1)), (0, 1, 2), [[[1]]])
    with pytest.raises(PreconditionError, match=r"slice factors \(1, 1\) name a factor twice"):
        slice_form(f, (1, 1), ((1,), (0,)))


def test_slice_pairs_each_factor_with_the_vector_given_next_to_it():
    rng = random.Random("slice-form-order")
    sh = Shape(3, (1, 2, 3))
    f = random_form(rng, sh)
    x0, x2 = (2,), (1, 0, 2)
    g = slice_form(f, (2, 0), (x2, x0))
    assert g == slice_form(f, (0, 2), (x0, x2))
    assert g.support == (1,)
    for y in itertools.product(range(3), repeat=2):
        assert eval_form(g, ((0,), y, (0, 0, 0))) == eval_form(f, (x0, y, x2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_slice_eval_coherence_exhaustive(seed):
    rng = random.Random(seed)
    sh = rand_shape(rng, max_k=3, max_total=5)
    support = random_support(rng, sh.k)
    f = random_form(rng, sh, support)
    if len(f.support) < 2:
        return
    fix = (f.support[0],)
    x = tuple(rng.randrange(sh.p) for _ in range(sh.dims[fix[0]]))
    g = slice_form(f, fix, (x,))
    for point in enumerate_points(sh):
        pt = list(point)
        pt[fix[0]] = x
        assert eval_form(g, pt) == eval_form(f, pt)


# ---------------------------------------------------------------------------
# Bias, analytic rank, zero fibers
# ---------------------------------------------------------------------------

def test_bias_examples():
    assert bias(MultilinearForm(Shape(2, (1, 1)), (), 0)) == 1
    f = MultilinearForm(Shape(2, (1, 1)), (0, 1), [[1]])
    assert bias(f) == Fraction(1, 2)
    g = MultilinearForm(Shape(2, (2, 2)), (0, 1), np.eye(2, dtype=int))
    assert bias(g) == Fraction(1, 4)


def test_bias_single_factor_support_can_vanish():
    f = MultilinearForm(Shape(2, (2, 2)), (0,), [1, 0])
    assert bias(f) == 0
    with pytest.raises(ZeroBiasError):
        analytic_rank(bias(f), f.shape.p)
    with pytest.raises(ZeroBiasError):
        prank_lower_bound(bias(f), f.shape.p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bias_matches_value_distribution(seed):
    rng = random.Random(seed)
    sh = rand_shape(rng, max_k=3, max_total=5)
    f = random_form(rng, sh, random_support(rng, sh.k))
    b = bias(f)
    assert 0 <= b <= 1
    assert b == brute_bias(f)


@pytest.mark.parametrize("dims, support", [((1, 1), (0, 1)), ((2, 1), (0, 1)),
                                            ((1, 2, 1), (0, 2))])
def test_bias_matches_value_distribution_p17(dims, support):
    f = random_form(random.Random(16), Shape(17, dims), support)
    assert bias(f) == brute_bias(f)


def _grid_oracle_battery(p):
    """Seeded forms over F_p at arity 1 to 4: random ones with random
    supports, planted low partition rank, zero and single-factor ones, on
    shapes of which every third has a factor of dimension 0."""
    rng = random.Random(f"grid-oracle/{p}")
    for k in (1, 2, 3, 4):
        for trial in range(6):
            dims = list(small_dims(rng, k, max(k, {2: 8, 3: 6, 5: 5, 17: 3}[p])))
            if trial % 3 == 2:
                dims[rng.randrange(k)] = 0
            sh = Shape(p, dims)
            yield random_form(rng, sh, random_support(rng, k))
            yield MultilinearForm(sh, (), 0)
            yield random_form(rng, sh, (rng.randrange(k),))
            if k >= 2 and 0 not in dims:
                yield planted_low_prank_form(rng, sh, rng.randint(1, 3))


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_bias_and_zero_fibers_match_the_grid_oracles(p):
    """Slice-matrix ranks against the per-slice grid count of the bias, and
    zero fiber rows against the zero fibers of the value grid."""
    for f in _grid_oracle_battery(p):
        b = bias(f)
        assert b == grid_bias(f), f
        if f.shape.k >= 2 and not f.is_zero():
            rep = zero_fiber_identity_check(f, b)
            assert rep.zero_fiber_count == grid_zero_fiber_count(f), f
            assert rep.holds


def test_bias_charges_the_slice_matrices_past_the_grids_reach():
    # B' = 2**14 points z of factor 0, each a 16 x 16 matrix; a value grid
    # per coefficient slice would need 2**30 points, past the default budget
    f = random_form(random.Random(17), Shape(2, (14, 16, 16)))
    budget.reset_work()
    bias(f)
    assert budget.work_points() == 2**14 * 16 * 16


def test_zero_fiber_identity_charges_the_fiber_rows():
    # the zero fibers are the variety of the n_3 = 2 slices f(., e_i) on
    # Shape(3, (2, 1)): point_count reads B = 3 points of factor 1, rows of
    # n_0 = 2 entries, for each of the 2 forms
    f = random_form(random.Random(18), Shape(3, (2, 1, 1, 2)), (0, 1, 3))
    b = bias(f)
    budget.reset_work()
    assert zero_fiber_identity_check(f, b).holds
    assert budget.work_points() == 2 * 3 * 2


def test_analytic_rank_examples():
    assert analytic_rank(bias(MultilinearForm(Shape(2, (1, 1)), (), 0)), 2) == 0.0
    f = MultilinearForm(Shape(2, (1, 1)), (0, 1), [[1]])
    assert (analytic_rank(bias(f), f.shape.p), bias(f)) == (1.0, Fraction(1, 2))
    g = MultilinearForm(Shape(2, (2, 2)), (0, 1), np.eye(2, dtype=int))
    assert analytic_rank(bias(g), g.shape.p) == 2.0


@pytest.mark.parametrize("call", [
    lambda: ceil_log(1, 2),
    lambda: ceil_log(0, 2),
    lambda: prank_lower_bound(Fraction(1, 2), 1),
    lambda: codim_budget(2, 1, Fraction(1, 2)),
    lambda: analytic_rank(Fraction(1, 2), 1),
], ids=["ceil_log", "ceil_log-base-0", "prank_lower_bound", "codim_budget", "analytic_rank"])
def test_rank_helpers_refuse_a_base_below_two(call):
    # no power of a base below 2 ever reaches a value above 1: the search
    # for one would never end, and log 1 is a zero divisor
    with pytest.raises(PreconditionError):
        call()


def test_zero_fiber_identity_examples():
    z = MultilinearForm(Shape(2, (1, 1)), (), 0)
    rep = zero_fiber_identity_check(z, bias(z))
    assert rep.holds and rep.zero_fiber_count == 2 and rep.expected == 2
    f = MultilinearForm(Shape(2, (1, 1)), (0, 1), [[1]])
    rep = zero_fiber_identity_check(f, bias(f))
    assert rep.holds and rep.zero_fiber_count == 1 and rep.expected == 1
    g = MultilinearForm(Shape(2, (2, 2)), (0, 1), np.eye(2, dtype=int))
    rep = zero_fiber_identity_check(g, bias(g))
    assert rep.holds and rep.zero_fiber_count == 1 and rep.expected == 1


def test_zero_fiber_identity_partial_support_inside_k3():
    # support {0, 1} inside three factors: the identity curries factor 1 and
    # counts over factors 0 and 2
    sh = Shape(2, (1, 1, 2))
    f = MultilinearForm(sh, (0, 1), [[1]])
    rep = zero_fiber_identity_check(f, bias(f))
    assert rep.factor == 1
    assert rep.outer_points == 8  # |G_0| * |G_2|
    assert rep.zero_fiber_count == 4  # x_0 = 0, any x_2
    assert rep.holds


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_zero_fiber_identity_always_holds(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.choice([2, 3])
    sh = Shape(p, small_dims(rng, k, 6))
    f = random_form(rng, sh, random_support(rng, k))
    assert zero_fiber_identity_check(f, bias(f)).holds


# ---------------------------------------------------------------------------
# Partition rank
# ---------------------------------------------------------------------------

def test_prank_lower_bound_examples():
    assert prank_lower_bound(bias(MultilinearForm(Shape(2, (1, 1)), (), 0)), 2) == 0
    g = MultilinearForm(Shape(2, (2, 2)), (0, 1), np.eye(2, dtype=int))
    assert prank_lower_bound(bias(g), g.shape.p) == 2
    h = MultilinearForm(Shape(3, (1, 1)), (0, 1), [[1]])
    assert bias(h) == Fraction(1, 3)
    assert prank_lower_bound(bias(h), h.shape.p) == 1


def test_bilinear_rank_examples():
    sh = Shape(2, (2, 2))
    assert matricization_rank_bound(MultilinearForm(sh, (0, 1), np.zeros((2, 2)))) == 0
    assert matricization_rank_bound(MultilinearForm(sh, (0, 1), np.eye(2, dtype=int))) == 2
    outer = np.outer([1, 1], [1, 0])
    assert matricization_rank_bound(MultilinearForm(sh, (0, 1), outer)) == 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_bilinear_rank_matches_elimination_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
    sh = Shape(p, (n1, n2))
    f = random_form(rng, sh)
    assert matricization_rank_bound(f) == brute_rank_mod(f.coeffs.tolist(), p)


def test_search_rank_examples():
    sh = Shape(2, (1, 1, 1))
    single = MultilinearForm(sh, (0, 1, 2), [1])
    assert partition_rank_search(single, bias(single)) == 1
    sh2 = Shape(2, (2, 2, 2))
    t = np.zeros((2, 2, 2), dtype=int)
    t[0, 0, 0] = 1
    t[1, 1, 1] = 1
    diag = MultilinearForm(sh2, (0, 1, 2), t)
    assert partition_rank_search(diag, bias(diag)) == 2
    assert prank_lower_bound(bias(diag), diag.shape.p) <= 2


def test_search_rank_zero():
    assert partition_rank_search(MultilinearForm(Shape(2, (1, 1, 1)), (), 0), Fraction(1)) == 0
    zero = MultilinearForm(Shape(3, (2, 1, 2)), (0, 1, 2), np.zeros((2, 1, 2), dtype=int))
    assert matricization_rank_bound(zero) == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_search_agrees_with_matrix_rank_on_bilinear(seed):
    rng = random.Random(seed)
    sh = Shape(2, (rng.randrange(1, 3), rng.randrange(1, 3)))
    f = random_form(rng, sh)
    rank, points = searched_rank(f)
    assert (points > 0) == (not f.is_zero())
    assert rank == matricization_rank_bound(f)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_search_agrees_with_matrix_rank_mod3(seed):
    # exercises the general digit-arithmetic path of the search (p != 2)
    rng = random.Random(seed)
    sh = Shape(3, (rng.randrange(1, 3), rng.randrange(1, 3)))
    f = random_form(rng, sh)
    rank, points = searched_rank(f)
    assert (points > 0) == (not f.is_zero())
    assert rank == brute_rank_mod(f.coeffs.tolist(), 3)


@pytest.mark.parametrize("p", [3, 5])
def test_search_agrees_with_matrix_rank_on_every_2x2_form(p):
    # reaches distance 2 through the digit arithmetic on every form
    for coeffs in itertools.product(range(p), repeat=4):
        f = MultilinearForm(Shape(p, (2, 2)), (0, 1), coeffs)
        assert searched_rank(f)[0] == brute_rank_mod(f.coeffs.tolist(), p)


def test_search_agrees_with_matrix_rank_on_sampled_2x2_forms_mod7():
    # digit sums up to 12 in the search's translations, on seeded samples
    rng = random.Random("search-mod7")
    ranks = set()
    for trial in range(12):
        a, b, c, d = (rng.randrange(7) for _ in range(4))
        # every third form is an outer product, of rank at most 1
        coeffs = [a * c, a * d, b * c, b * d] if trial % 3 == 0 else [a, b, c, d]
        f = MultilinearForm(Shape(7, (2, 2)), (0, 1), coeffs)
        rank = brute_rank_mod(f.coeffs.tolist(), 7)
        assert searched_rank(f)[0] == rank
        ranks.add(rank)
    assert ranks == {1, 2}


def test_search_rank_interval_over_budget():
    # e000 + e111: bias 5/8 bounds the rank below by 1, the flattenings by 2
    t = np.zeros((2, 2, 2), dtype=int)
    t[0, 0, 0] = t[1, 1, 1] = 1
    f = MultilinearForm(Shape(2, (2, 2, 2)), (0, 1, 2), t)
    b = bias(f)
    assert (prank_lower_bound(b, 2), matricization_rank_bound(f)) == (1, 2)
    assert partition_rank_search(f, b) == 2
    budget.set_point_budget(64)
    assert partition_rank_search(f, b) == (1, 2)


def test_search_finds_a_rank_below_the_flattening_bound():
    # (x0 y0 + x1 y1)(z0 w0 + z1 w1): one product over the split {0,1}|{2,3},
    # while every single-factor flattening has rank 2
    t = np.einsum("ij,kl->ijkl", np.eye(2, dtype=int), np.eye(2, dtype=int))
    f = MultilinearForm(Shape(2, (2, 2, 2, 2)), (0, 1, 2, 3), t)
    b = bias(f)
    assert (prank_lower_bound(b, 2), matricization_rank_bound(f)) == (1, 2)
    # the 2**16 space once, then one layer of 2,601 generator images
    budget.reset_work()
    assert partition_rank_search(f, b) == 1
    assert budget.work_points() == 2**16 + 2601
    budget.set_point_budget(2**16 - 1)
    assert partition_rank_search(f, b) == (1, 2)


def test_search_returns_the_interval_before_a_layer_past_the_budget():
    # the identity at (2,(2,2)), searched with its bounds moved to (0, 3):
    # a space of 16, 9 generators, and a second layer of 9 * 9 images
    f = MultilinearForm(Shape(2, (2, 2)), (0, 1), np.eye(2, dtype=int))
    budget.set_point_budget(81)
    assert searched_rank(f) == (2, 16 + 9 + 81)
    budget.set_point_budget(80)
    assert searched_rank(f)[0] == (0, 3)


def test_search_stops_where_the_bounds_meet():
    # one planted factorizable term at (3,(2,2,2)): both bounds are 1, so no
    # generator is built and no point is charged
    f = planted_low_prank_form(random.Random(3), Shape(3, (2, 2, 2)), 1)
    b = bias(f)
    assert prank_lower_bound(b, 3) == matricization_rank_bound(f) == 1
    budget.reset_work()
    assert partition_rank_search(f, b) == 1
    assert budget.work_points() == 0


@pytest.mark.parametrize("p, dims, support", [
    (2, (2, 3), (0, 1)),
    (2, (2, 2, 2), (0, 1, 2)),
    (2, (1, 2, 1, 2), (0, 1, 2, 3)),
    (2, (2, 1, 2), (0, 2)),
    (3, (2, 2), (0, 1)),
    (3, (1, 2, 2), (0, 1, 2)),
    (3, (1, 1, 1, 2), (0, 1, 2, 3)),
    (3, (2, 1, 1, 2), (1, 2, 3)),
    (5, (1, 2), (0, 1)),
    (5, (1, 1, 2), (0, 1, 2)),
    (5, (1, 1, 1, 1), (0, 1, 2, 3)),
])
def test_factorizable_tensors_match_the_per_product_builder(p, dims, support):
    shape = Shape(p, dims)
    got = forms._factorizable_tensors(shape, support)
    want = factorizable_tensors_by_products(shape, support)
    assert got.shape == want.shape
    assert set(map(tuple, got.tolist())) == set(map(tuple, want.tolist()))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_product_form_bias_at_least_one_over_p(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.choice([2, 3])
    sh = Shape(p, small_dims(rng, k, 5))
    f = planted_low_prank_form(rng, sh, 1)
    if f.is_zero():
        return
    assert bias(f) >= Fraction(1, p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_bias_respects_exact_prank(seed):
    rng = random.Random(seed)
    sh = Shape(2, (2, 2))
    f = random_form(rng, sh)
    if f.is_zero():
        return
    r = matricization_rank_bound(f)
    assert bias(f) >= Fraction(1, 2**r)
    assert prank_lower_bound(bias(f), f.shape.p) <= r


def test_map_requires_shared_support():
    sh = Shape(2, (1, 1))
    a = MultilinearForm(sh, (0, 1), [[1]])
    b = MultilinearForm(sh, (0,), [1])
    with pytest.raises(PreconditionError):
        MultilinearMap(sh, (0, 1), (a, b))


@pytest.mark.parametrize("left, right", [((0,), (5,)), ((2,), (1,)), ((-1,), (1,))])
def test_product_form_refuses_a_support_outside_the_shape(left, right):
    with pytest.raises(PreconditionError, match="outside factors"):
        product_form(Shape(2, (2, 2)), left, [1, 0], right, [1, 0])


def test_product_form_matches_manual_outer():
    sh = Shape(3, (2, 1, 2))
    f = product_form(sh, (0, 2), np.arange(4), (1,), [2])
    assert f.support == (0, 1, 2)
    beta = np.arange(4).reshape(2, 2) % 3
    for point in enumerate_points(sh):
        b_val = sum(
            int(beta[i, j]) * point[0][i] * point[2][j]
            for i in range(2)
            for j in range(2)
        ) % 3
        g_val = (2 * point[1][0]) % 3
        assert eval_form(f, point) == (b_val * g_val) % 3


# ---------------------------------------------------------------------------
# Facts computed once
# ---------------------------------------------------------------------------

def _built_forms(monkeypatch, p, k, seed):
    """Every form the finder, slicing, canonical lists, the generators and
    the JSON readers construct on one small instance."""
    built = []
    post_init = MultilinearForm.__post_init__

    def record(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(MultilinearForm, "__post_init__", record)
    rng = random.Random(seed)
    sh = Shape(p, small_dims(rng, k, 4 if p == 2 else k + 1))
    v = random_variety(rng, sh, rng.randrange(1, 3))
    product = planted_product_variety(rng, sh, [1] + [0] * (k - 1))[0]
    zero = Variety(sh, [MultilinearForm(sh, range(k), np.zeros(sh.dims, dtype=int))])
    for w in (v, product, zero):
        find_subvariety(w)
        w.canonical()
        variety_from_obj(json.loads(json.dumps(variety_to_obj(w))))
        if k > 1:
            slice_variety(w, [0], [[rng.randrange(p) for _ in range(sh.dims[0])]])
    map_from_obj(map_to_obj(random_map(rng, sh, 2)))
    if k > 1:
        planted_low_prank_form(rng, sh, 1)
    return built


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_key_and_zero_flag_match_the_coefficients(monkeypatch, p, k):
    built = []
    for seed in range(3):
        built += _built_forms(monkeypatch, p, k, seed)
    assert any(f.is_zero() for f in built) and not all(f.is_zero() for f in built)
    for f in built:
        assert f.key() == (f.support, f.coeffs.tobytes())
        assert f.is_zero() == (not f.coeffs.any())
        twin = MultilinearForm(f.shape, f.support, f.coeffs.copy())
        assert twin == f and hash(twin) == hash(f)


def test_coefficients_stay_read_only():
    f = MultilinearForm(Shape(3, (2, 2)), (0, 1), [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 0
    with pytest.raises(ValueError):
        f.coeffs.reshape(-1)[0] = 0
    assert f.key() == ((0, 1), bytes([1, 2, 0, 1])) and not f.is_zero()


def test_shape_sizes_are_kept_without_changing_its_value():
    sh = Shape(3, [2, 1])
    fresh = Shape(3, (2, 1))
    assert (sh.k, sh.group_sizes, sh.total_points) == (2, (9, 3), 27)
    # a shape whose sizes were read is the same value as one whose were not
    assert sh == fresh and hash(sh) == hash(fresh) == hash((3, (2, 1)))
    assert repr(sh) == repr(fresh) == "Shape(p=3, dims=(2, 1))"
    assert sh != Shape(3, (1, 2)) and sh != Shape(2, (2, 1))
    wider = dataclasses.replace(sh, dims=(1, 1, 3))
    assert (wider.k, wider.group_sizes, wider.total_points) == (3, (3, 3, 27), 243)
    assert (sh.k, sh.group_sizes, sh.total_points) == (2, (9, 3), 27)


def test_shape_refuses_a_dimension_sum_past_the_limit():
    assert Shape(2, (MAX_DIM_SUM - 1, 1)).k == 2
    with pytest.raises(PreconditionError, match="over the limit"):
        Shape(2, (MAX_DIM_SUM, 1))
    with pytest.raises(PreconditionError, match="over the limit"):
        Shape(17, (10**30,))
