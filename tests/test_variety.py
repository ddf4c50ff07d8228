import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import budget, variety
from mlvariety.errors import ConstructionError, PreconditionError
from mlvariety.field import shift_permutation, vector_index
from mlvariety.fibers import density
from mlvariety.forms import MultilinearForm, MultilinearMap, Shape
from mlvariety.generators import (
    planted_product_variety,
    random_form,
    random_point_subset,
    random_support,
    random_variety,
)
from mlvariety.variety import (
    Parallelepiped,
    PointSet,
    Variety,
    _fill_scan,
    _point_from_index,
    _point_index,
    _ranks,
    conv_fill_check,
    directional_convolution,
    intersect,
    iterated_conv_witness,
    membership,
    slice_variety,
    variety_bitmap,
)

from helpers import (
    bitmap_points,
    brute_density,
    brute_eval,
    brute_first_witness,
    constant_shift_tables,
    contracting_slice,
    count_row_pass_bases,
    enumerate_points,
    planted_cylinder,
    replace_shift_tables,
    scan_offsets,
    skip_zero_offset_precheck,
    small_dims,
)


def dot_form(p, n1, n2):
    sh = Shape(p, (n1, n2))
    return MultilinearForm(sh, (0, 1), np.eye(n1, n2, dtype=int))


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

def _form_value():
    sh = Shape(3, (2, 2))
    f = MultilinearForm(sh, [1, 0, 1], [[4, -1], [3, 5]])
    assert f.support == (0, 1)
    assert f.coeffs.dtype == np.uint8 and f.coeffs.tolist() == [[1, 2], [0, 2]]
    assert not f.coeffs.flags.writeable
    same = MultilinearForm(sh, (0, 1), np.array([[1, 2], [0, 2]], dtype=np.int16))
    assert f == same and len({f, same}) == 1
    assert f != MultilinearForm(sh, (0, 1), [[1, 2], [0, 1]])
    assert repr(f) == "MultilinearForm(p=3, dims=(2, 2), support=(0, 1), coeffs=[[1, 2], [0, 2]])"
    return f


def _map_value():
    sh = Shape(2, (1, 2))
    rows = [[1, 0], [1, 1]]
    m = MultilinearMap(sh, [1, 0], [MultilinearForm(sh, (0, 1), [r]) for r in rows])
    assert m.support == (0, 1) and isinstance(m.components, tuple)
    again = MultilinearMap(sh, (0, 1), (MultilinearForm(sh, (0, 1), [r]) for r in rows))
    assert m == again and len({m, again}) == 1
    assert m != MultilinearMap(sh, (0, 1), m.components[:1])
    return m


def _variety_value():
    sh = Shape(2, (1, 1))
    v = Variety(sh, [MultilinearForm(sh, (0, 1), [[1]])])
    assert isinstance(v.forms, tuple)
    again = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    assert v == again and len({v, again, Variety.full(sh)}) == 2
    assert Variety(sh, is_empty=1) == Variety.empty(sh) != Variety.full(sh)
    assert Variety(sh, is_empty=1).is_empty is True
    assert repr(Variety.empty(sh)) == "Variety.empty(p=2, dims=(1, 1))"
    assert repr(v) == "Variety(p=2, dims=(1, 1), forms=1)"
    with pytest.raises(TypeError):
        Variety(sh, (), True)
    return v


def _point_set_value():
    sh = Shape(2, (1, 1))
    mask = np.zeros(sh.group_sizes, dtype=int)
    mask[1, 0] = 1
    s = PointSet(sh, mask)
    mask[0, 0] = 1
    assert s.mask.dtype == bool and s.mask.tolist() == [[False, False], [True, False]]
    assert not s.mask.flags.writeable
    twin = PointSet(sh, s.mask)
    assert s == s and s != twin and len({s, twin}) == 2
    return s


@pytest.mark.parametrize("build", [_form_value, _map_value, _variety_value, _point_set_value])
def test_value_types_are_frozen_normalized_dataclasses(build):
    value = build()
    assert dataclasses.is_dataclass(value) and not hasattr(value, "__dict__")
    for fld in dataclasses.fields(value):
        with pytest.raises(AttributeError):
            setattr(value, fld.name, getattr(value, fld.name))
        with pytest.raises(AttributeError):
            delattr(value, fld.name)
    # a name that is not a field fails too; CPython 3.11 reports it as a
    # TypeError from the slotted class rebuild, later versions as AttributeError
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1


def test_form_coefficients_cannot_be_made_writeable():
    # the key and the zero flag are computed once, so no write may reach
    # the coefficients after construction
    sh = Shape(2, (2, 2))
    f = MultilinearForm(sh, (0, 1), np.eye(2, dtype=int))
    key = f.key()
    with pytest.raises(ValueError):
        f.coeffs.setflags(write=True)
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 0
    assert f.key() == key and not f.is_zero()
    assert f.coeffs.tolist() == [[1, 0], [0, 1]]


# ---------------------------------------------------------------------------
# Membership and density
# ---------------------------------------------------------------------------

_SH = Shape(2, (1, 1))
_XY = MultilinearForm(_SH, (0, 1), [[1]])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Variety(_SH, (MultilinearForm(Shape(2, (1, 2)), (0,), [1]),)),
                 "share the shape", id="variety-form-of-another-shape"),
    pytest.param(lambda: Variety(_SH, (_XY,), is_empty=True), "carries no forms",
                 id="empty-marker-with-forms"),
    pytest.param(lambda: Variety.empty(_SH).codim, "no representation codimension",
                 id="empty-marker-codim"),
    pytest.param(lambda: slice_variety(Variety(_SH, (_XY,)), (0,), ()),
                 "one coordinate vector per sliced factor", id="slice-coordinate-count"),
    pytest.param(lambda: slice_variety(Variety(_SH, (_XY,)), (2,), ((1,),)),
                 "outside the shape", id="slice-factor-outside"),
    pytest.param(lambda: slice_variety(Variety(_SH, (_XY,)), (0, 1), ((1,), (1,))),
                 "slicing away every factor", id="slice-every-factor"),
    pytest.param(lambda: PointSet(_SH, np.zeros((2,), dtype=bool)), "bitmap shape",
                 id="point-set-mask-shape"),
    pytest.param(lambda: directional_convolution(PointSet.empty(_SH), 2, ((0,), (0,))),
                 "direction outside the shape", id="convolution-direction-outside"),
])
def test_variety_refuses_inputs_outside_its_contract(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_membership_examples():
    sh = Shape(2, (1, 1))
    assert membership(Variety.full(sh), ((1,), (0,)))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    assert not membership(v, ((1,), (1,)))
    assert membership(v, ((1,), (0,)))
    assert not membership(Variety.empty(sh), ((0,), (0,)))


def test_density_examples():
    sh = Shape(2, (1, 1))
    assert density(Variety.full(sh)) == 1
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    assert density(v) == Fraction(3, 4)
    w = Variety(sh, (MultilinearForm(sh, (0,), [1]),))
    assert density(w) == Fraction(1, 2)
    assert density(Variety.empty(sh)) == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_density_matches_bruteforce(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.randrange(1, 4)
    sh = Shape(p, small_dims(rng, k, 5))
    v = random_variety(rng, sh, rng.randrange(3))
    assert density(v) == brute_density(v)


def test_variety_points_in_lex_order():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    assert bitmap_points(v) == [((0,), (0,)), ((0,), (1,)), ((1,), (0,))]
    assert bitmap_points(Variety.empty(sh)) == []


def test_point_from_index_inverts_point_index():
    sh = Shape(3, (1, 2, 1))
    sizes = sh.group_sizes
    for rank, point in enumerate(enumerate_points(sh)):
        idx = np.unravel_index(rank, sizes)
        assert _point_index(sh, point) == idx
        assert _point_from_index(sh, idx) == point


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------

def test_slice_full_variety():
    sh = Shape(2, (1, 2))
    got = slice_variety(Variety.full(sh), (0,), ((1,),))
    assert got.shape.dims == (2,) and not got.forms and not got.is_empty


def test_slice_product_form():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    got = slice_variety(v, (0,), ((1,),))
    assert density(got) == Fraction(1, 2)


def test_slice_constant_obstruction_gives_empty():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0,), [1]),))
    got = slice_variety(v, (0,), ((1,),))
    assert got.is_empty
    assert density(got) == 0
    # the empty marker slices to the empty marker on the reduced shape
    got = slice_variety(Variety.empty(Shape(3, (1, 2))), (0,), ((2,),))
    assert got.is_empty and got.shape == Shape(3, (2,))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_slice_density_coherence(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.randrange(2, 4)
    sh = Shape(p, small_dims(rng, k, 5))
    v = random_variety(rng, sh, rng.randrange(3))
    factor = rng.randrange(k)
    x = tuple(rng.randrange(p) for _ in range(sh.dims[factor]))
    sliced = slice_variety(v, (factor,), (x,))
    rest = sliced.shape.total_points
    fiber = 0
    for point in enumerate_points(sh):
        if point[factor] != x:
            continue
        if all(brute_eval(f, point) == 0 for f in v.forms):
            fiber += 1
    assert density(sliced) * rest == fiber


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_slice_codim_does_not_grow(seed):
    rng = random.Random(seed)
    sh = Shape(2, (2, 2, 1))
    v = random_variety(rng, sh, rng.randrange(1, 4))
    sliced = slice_variety(v, (2,), ((rng.randrange(2),),))
    if sliced.is_empty:
        return
    assert sliced.codim <= v.codim


_SH22 = Shape(2, (2, 2))


@pytest.mark.parametrize("v", [
    pytest.param(Variety(_SH22, (MultilinearForm(_SH22, (1,), [1, 0]),)), id="form-avoids-factor"),
    pytest.param(Variety(_SH22, (MultilinearForm(_SH22, (0,), [1, 0]),)), id="form-holds-factor"),
    pytest.param(Variety.full(_SH22), id="full"),
    pytest.param(Variety.empty(_SH22), id="empty"),
])
@pytest.mark.parametrize("x", [(0, 0, 0), (5,)])
def test_slice_refuses_a_coordinate_vector_of_another_dimension(v, x):
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        slice_variety(v, (0,), (x,))


def _zero_slice_battery(rng):
    """Random-support, partial-support and full-support varieties over
    p in {2, 3, 5} and arity 2 to 4."""
    for p in (2, 3, 5):
        for k in (2, 3, 4):
            dims = small_dims(rng, k, 6)
            while Shape(p, dims).total_points > 1000:
                dims = tuple(max(n - 1, 1) for n in dims)
            sh = Shape(p, dims)
            count = rng.randint(1, 3)
            yield random_variety(rng, sh, count)
            yield random_variety(rng, sh, count, full_support_only=True)
            partial = []
            for _ in range(count):
                support = random_support(rng, k)
                while len(support) == k:
                    support = random_support(rng, k)
                partial.append(random_form(rng, sh, support))
            yield Variety(sh, partial)


def _zero_coords(rng, p, n):
    # multiples of p: the zero vector once reduced
    return tuple(p * rng.randrange(-1, 3) for _ in range(n))


@pytest.mark.parametrize("seed", range(3))
def test_slice_at_a_zero_coordinate_is_the_bitmap_restriction(seed):
    rng = random.Random(f"zero-slice/{seed}")
    for v in _zero_slice_battery(rng):
        sh = v.shape
        mask = variety_bitmap(v)
        for factor in range(sh.k):
            zero = _zero_coords(rng, sh.p, sh.dims[factor])
            sliced = slice_variety(v, (factor,), (zero,))
            assert np.array_equal(variety_bitmap(sliced), mask.take(0, axis=factor))
            # only the forms that avoid the factor are left, as they were
            remaining = [j for j in range(sh.k) if j != factor]
            assert [f.key() for f in sliced.forms] == [
                (tuple(remaining.index(j) for j in f.support), f.coeffs.tobytes())
                for f in v.forms
                if factor not in f.support
            ]
        if sh.k < 3:
            continue
        # a zero coordinate beside a nonzero one
        a, b = rng.sample(range(sh.k), 2)
        fixed = {
            a: _zero_coords(rng, sh.p, sh.dims[a]),
            b: tuple(rng.randrange(sh.p) for _ in range(sh.dims[b])),
        }
        sliced = slice_variety(v, sorted(fixed), [fixed[j] for j in sorted(fixed)])
        at = [slice(None)] * sh.k
        at[a], at[b] = 0, vector_index(sh.p, fixed[b])
        assert np.array_equal(variety_bitmap(sliced), mask[tuple(at)])
        if not sliced.is_empty:
            zeroed = {j for j, x in fixed.items() if not any(c % sh.p for c in x)}
            assert len(sliced.forms) == sum(
                not zeroed & set(f.support) and not set(f.support) <= {a, b} for f in v.forms
            )


def _order_battery(rng):
    """Varieties of 1 to 3 random forms over p in {2, 3} and arity 3 to 4,
    whose factor dimensions are not all equal, three per (p, arity)."""
    for p in (2, 3):
        for k in (3, 4):
            for _ in range(3):
                dims = (1,) * k
                while len(set(dims)) == 1 or Shape(p, dims).total_points > 1000:
                    dims = tuple(rng.randint(1, 3) for _ in range(k))
                yield random_variety(rng, Shape(p, dims), rng.randint(1, 3))


def test_slice_in_any_factor_order_is_the_bitmap_restriction():
    rng = random.Random("slice-order")
    cases = 0
    for v in _order_battery(rng):
        sh = v.shape
        mask = variety_bitmap(v)
        for size in (2, 3):
            if size >= sh.k:
                continue
            for factors in itertools.permutations(range(sh.k), size):
                # unreduced coordinates, each factor's vector next to it
                coords = [tuple(rng.randrange(-sh.p, 2 * sh.p) for _ in range(sh.dims[j]))
                          for j in factors]
                sliced = slice_variety(v, factors, coords)
                at = [slice(None)] * sh.k
                for j, x in zip(factors, coords):
                    at[j] = vector_index(sh.p, x)
                assert np.array_equal(variety_bitmap(sliced), mask[tuple(at)]), (
                    v.forms, factors, coords
                )
                cases += 1
    assert cases == 252


def test_a_slice_does_not_depend_on_the_order_of_its_factors():
    # factor 0 at 1 and factor 1 at 0 leave x_0 = 1 on no point
    sh = Shape(2, (1, 1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0,), [1]),))
    assert slice_variety(v, (1, 0), ((0,), (1,))).is_empty
    assert slice_variety(v, (0, 1), ((1,), (0,))).is_empty


def test_the_contracting_reference_slice_pairs_each_factor_with_its_vector():
    # probe H in both orders, then every order of two fixed factors of the
    # order battery, against slice_variety
    sh = Shape(2, (1, 1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0,), [1]),))
    for factors, coords in (((1, 0), ((0,), (1,))), ((0, 1), ((1,), (0,)))):
        assert contracting_slice(v, factors, coords) == slice_variety(v, factors, coords)
    rng = random.Random("reference-slice-order")
    for v in _order_battery(rng):
        for factors in itertools.permutations(range(v.shape.k), 2):
            coords = [tuple(rng.randrange(v.shape.p) for _ in range(v.shape.dims[j]))
                      for j in factors]
            assert np.array_equal(variety_bitmap(contracting_slice(v, factors, coords)),
                                  variety_bitmap(slice_variety(v, factors, coords)))


@pytest.mark.parametrize("coords", [((1,), (1,)), ((1,), (0,))])
def test_slice_variety_refuses_a_factor_given_twice(coords):
    sh = Shape(2, (1, 1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0, 2), [[1]]),))
    with pytest.raises(PreconditionError, match=r"slice factors \(0, 0\) name a factor twice"):
        slice_variety(v, (0, 0), coords)


# ---------------------------------------------------------------------------
# Intersections and canonical form
# ---------------------------------------------------------------------------

def test_intersect_with_full_keeps_set():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    got = intersect(v, Variety.full(sh))
    assert np.array_equal(variety_bitmap(got), variety_bitmap(v))


def test_intersect_with_the_empty_marker_and_a_shape_mismatch():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    assert intersect(v, Variety.empty(sh)).is_empty
    assert intersect(Variety.empty(sh), v).is_empty
    with pytest.raises(PreconditionError, match="common shape"):
        intersect(v, Variety.full(Shape(2, (1, 2))))


def test_intersect_dedups_repeated_form():
    sh = Shape(2, (1, 1))
    f = MultilinearForm(sh, (0, 1), [[1]])
    got = intersect(Variety(sh, (f,)), Variety(sh, (f,)))
    assert len(got.forms) == 1


def test_intersect_two_axes():
    sh = Shape(2, (1, 1))
    a = Variety(sh, (MultilinearForm(sh, (0,), [1]),))
    b = Variety(sh, (MultilinearForm(sh, (1,), [1]),))
    assert density(intersect(a, b)) == Fraction(1, 4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_intersect_commutative_idempotent_as_sets(seed):
    rng = random.Random(seed)
    sh = Shape(2, (2, 2))
    v1 = random_variety(rng, sh, rng.randrange(3))
    v2 = random_variety(rng, sh, rng.randrange(3))
    ab = variety_bitmap(intersect(v1, v2))
    ba = variety_bitmap(intersect(v2, v1))
    aa = variety_bitmap(intersect(v1, v1))
    assert np.array_equal(ab, ba)
    assert np.array_equal(ab, variety_bitmap(v1) & variety_bitmap(v2))
    assert np.array_equal(aa, variety_bitmap(v1))


def test_canonical_removes_scalar_multiples():
    sh = Shape(3, (2, 1))
    f = MultilinearForm(sh, (0, 1), [[1], [2]])
    g = MultilinearForm(sh, (0, 1), [[2], [1]])  # 2*f
    v = Variety(sh, (f, g))
    assert v.codim == 1


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_canonical_keeps_the_zero_set(p, seed):
    # a support family with a dependent form, a duplicate and the zero form,
    # beside forms of random supports
    rng = random.Random(f"canonical/{p}/{seed}")
    for k in (1, 2, 3):
        dims = small_dims(rng, k, 4)
        while Shape(p, dims).total_points > 400:
            dims = tuple(max(n - 1, 1) for n in dims)
        shape = Shape(p, dims)
        support = random_support(rng, k)
        f, g = random_form(rng, shape, support), random_form(rng, shape, support)
        a, b = rng.randrange(p), rng.randrange(p)
        dependent = MultilinearForm(shape, support, (a * f.coeffs + b * g.coeffs) % p)
        v = Variety(shape, (f, dependent, MultilinearForm(shape, (), 0), g, f)
                    + random_variety(rng, shape, 2).forms)
        canon = v.canonical()
        assert len(canon.forms) < len(v.forms)
        assert np.array_equal(variety_bitmap(canon), variety_bitmap(v))
        assert brute_density(canon) == brute_density(v)


def test_canonical_drops_zero_forms():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (), 0), MultilinearForm(sh, (0, 1), [[1]])))
    assert v.codim == 1
    empty = Variety.empty(sh)
    assert empty.canonical() is empty


# ---------------------------------------------------------------------------
# Convolutions and witnesses
# ---------------------------------------------------------------------------

def test_directional_conv_full_set():
    sh = Shape(2, (1, 1))
    s = PointSet(sh, np.ones(sh.group_sizes, dtype=bool))
    assert directional_convolution(s, 0, ((0,), (0,))) == 1


def test_directional_conv_subspace_line():
    sh = Shape(2, (3,))
    inside = {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}  # kernel of x1+x2+x3
    mask = np.zeros(sh.group_sizes, dtype=bool)
    for c in inside:
        mask[c[0] * 4 + c[1] * 2 + c[2]] = True
    s = PointSet(sh, mask)
    assert directional_convolution(s, 0, ((1, 1, 0),)) == Fraction(1, 2)
    assert directional_convolution(s, 0, ((1, 0, 0),)) == 0


def test_directional_conv_reads_and_charges_one_line():
    # at (2,(4,4)) the line through a point holds 16 of the 256 points
    sh = Shape(2, (4, 4))
    mask = np.random.default_rng(3).random(sh.group_sizes) < 0.5
    s = PointSet(sh, mask)
    point = _point_from_index(sh, (5, 9))
    want = Fraction(int(np.count_nonzero(mask[:, 9] & mask[[t ^ 5 for t in range(16)], 9])), 16)
    budget.set_point_budget(64)
    budget.reset_work()
    assert directional_convolution(s, 0, point) == want
    assert budget.work_points() == 16


@pytest.mark.parametrize("p, dims", [(2, (3, 4)), (3, (2, 3))])
def test_directional_convolution_keeps_no_translation_table(p, dims):
    # every point in both directions, against the count of y with both
    # points inside, leaves the translation memo empty
    sh = Shape(p, dims)
    rng = random.Random(f"conv/{p}")
    mask = np.array([rng.randrange(2) for _ in range(sh.total_points)], dtype=bool)
    s = PointSet(sh, mask.reshape(sh.group_sizes))
    shift_permutation.cache_clear()
    for point in enumerate_points(sh):
        for i, n in enumerate(dims):
            both = 0
            for y in itertools.product(range(p), repeat=n):
                moved = tuple((a + b) % p for a, b in zip(y, point[i]))
                both += (s.contains(point[:i] + (y,) + point[i + 1:])
                         and s.contains(point[:i] + (moved,) + point[i + 1:]))
            assert directional_convolution(s, i, point) == Fraction(both, p**n)
    assert shift_permutation.cache_info().currsize == 0


def test_witness_full_space_zero_offsets():
    sh = Shape(2, (1, 1))
    full = PointSet(sh, np.ones(sh.group_sizes, dtype=bool))
    got = iterated_conv_witness(full, ((1,), (1,)))
    assert got is not None
    assert got.offsets == ((0,), (0,))
    assert len(got.corners()) == 4


def test_witness_k1_subspace():
    sh = Shape(2, (3,))
    w = Variety(sh, (MultilinearForm(sh, (0,), [1, 1, 1]),))
    x = ((1, 1, 0),)
    got = iterated_conv_witness(PointSet(sh, variety_bitmap(w)), x)
    assert got is not None
    for corner in got.corners():
        assert membership(w, corner)


def test_witness_requires_bad_inside():
    # the filling check searches the variety minus the bad set, so it
    # rejects a bad set off the variety's shape or outside the variety
    sh = Shape(2, (1, 1))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    outside = PointSet.from_points(sh, [((1,), (1,))])
    with pytest.raises(PreconditionError, match="bad set must be a subset of the variety"):
        conv_fill_check(w, outside, variety_bitmap(w), w.codim)
    other_shape = PointSet.empty(Shape(2, (1, 2)))
    with pytest.raises(PreconditionError, match="bad set must live on the variety's shape"):
        conv_fill_check(w, other_shape, variety_bitmap(w), w.codim)


@pytest.mark.parametrize("mask_of", [
    pytest.param(lambda mask: mask[:1], id="a-slice-of-the-bitmap"),
    pytest.param(lambda mask: mask.astype(np.uint8), id="a-uint8-bitmap"),
])
def test_conv_fill_refuses_a_bitmap_it_cannot_check_every_point_of(mask_of):
    # a (1, 8) slice broadcasts against the bad set, and the check would
    # report success on the points of its one row
    sh = Shape(2, (3, 3))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(3, dtype=int)),))
    with pytest.raises(PreconditionError, match=r"bool array of shape \(8, 8\)"):
        conv_fill_check(w, PointSet.empty(sh), mask_of(variety_bitmap(w)), w.codim)


@pytest.mark.parametrize("codim", [-1, 1.0, "1"])
def test_conv_fill_refuses_a_codimension_that_is_not_a_non_negative_int(codim):
    sh = Shape(2, (3, 3))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(3, dtype=int)),))
    with pytest.raises(PreconditionError, match="codimension must be a non-negative int"):
        conv_fill_check(w, PointSet.empty(sh), variety_bitmap(w), codim)


def test_witness_every_point_dot_variety():
    sh = Shape(2, (3, 3))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(3, dtype=int)),))
    mask = variety_bitmap(w)
    bad = random_point_subset(random.Random(5), sh, mask, 1)
    allowed = PointSet(sh, mask & ~bad.mask)
    for point in bitmap_points(w):
        got = iterated_conv_witness(allowed, point)
        assert got is not None
        for corner in got.corners():
            assert membership(w, corner)
            assert not bad.contains(corner)


def test_conv_fill_empty_bad_set():
    sh = Shape(2, (2, 1))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), [[1], [0]]),))
    report = conv_fill_check(w, PointSet.empty(sh), variety_bitmap(w), w.codim)
    assert report.success
    assert report.checked == int(np.count_nonzero(variety_bitmap(w)))


def test_conv_fill_full_space_two_bad_points():
    sh = Shape(2, (3,))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),)])
    report = conv_fill_check(w, bad, variety_bitmap(w), w.codim)
    assert report.success and report.bad_cap == 2


def test_conv_fill_rejects_oversized_bad_set():
    sh = Shape(2, (3,))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),), ((1, 0, 0),)])
    with pytest.raises(PreconditionError):
        conv_fill_check(w, bad, variety_bitmap(w), w.codim)


def test_conv_fill_corner_recheck_is_independent_of_shift_tables(monkeypatch):
    sh = Shape(2, (3,))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),)])
    assert conv_fill_check(w, bad, variety_bitmap(w), w.codim).success
    # a search whose translations are all the identity accepts the offset
    # (0,0,0) at base (0,0,1), whose shifted corner (0,0,1) is bad
    replace_shift_tables(monkeypatch, lambda p, n: np.arange(p**n))
    with pytest.raises(ConstructionError, match="witness corner escaped the allowed set"):
        conv_fill_check(w, bad, variety_bitmap(w), w.codim)


def test_iterated_conv_witness_rechecks_the_row_pass(monkeypatch):
    sh = Shape(2, (3,))
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),)])
    allowed = PointSet(sh, ~bad.mask)
    # the bad (0,0,1) fails the pre-check at base (0,0,1), and identity
    # translations make the row pass accept the offset (0,0,0) there, whose
    # shifted corner is (0,0,1)
    replace_shift_tables(monkeypatch, lambda p, n: np.arange(p**n))
    with pytest.raises(ConstructionError, match="witness corner escaped the allowed set"):
        iterated_conv_witness(allowed, ((0, 0, 1),))


def test_conv_fill_checks_pre_check_witnesses_once(monkeypatch):
    # the pre-check settles every point of the full space, so its own
    # corner pass is the only one
    sh = Shape(2, (2, 2))
    passes = []
    original = variety._corners_allowed

    def recording(allowed, cells, steps):
        passes.append(len(cells))
        return original(allowed, cells, steps)

    monkeypatch.setattr(variety, "_corners_allowed", recording)
    w = Variety.full(sh)
    report = conv_fill_check(w, PointSet.empty(sh), variety_bitmap(w), 0)
    assert report.success and report.corners_checked == sh.total_points * 4
    assert passes == [sh.total_points]


def test_conv_fill_corner_recheck_is_independent_of_shift_tables_p3_k2(monkeypatch):
    sh = Shape(3, (2, 2))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0), (2, 2)), ((2, 2), (0, 0))])
    report = conv_fill_check(w, bad, variety_bitmap(w), w.codim)
    assert report.success
    assert report.corners_checked == sh.total_points * 4
    # with identity translations the search accepts the zero offsets at the
    # base ((0,0),(2,2)), whose corner shifted in direction 1 is bad; the
    # re-check must rank that corner in base 3 to see it
    replace_shift_tables(monkeypatch, lambda p, n: np.arange(p**n))
    with pytest.raises(ConstructionError, match="witness corner escaped the allowed set"):
        conv_fill_check(w, bad, variety_bitmap(w), w.codim)


@pytest.mark.parametrize("dims", [(2, 2), (2, 1, 2)])
def test_conv_fill_corner_recheck_ranks_the_moved_digits_p3(monkeypatch, dims):
    # bad: the origin, which fails every base's zero-offset pre-check, and
    # the point with (0,2) in factor 0 and zeros elsewhere
    sh = Shape(3, dims)
    w = Variety.full(sh)
    zeros = tuple((0,) * n for n in dims[1:])
    bad = PointSet.from_points(sh, [((0, 0),) + zeros, ((0, 2),) + zeros])
    mask = variety_bitmap(w)
    assert conv_fill_check(w, bad, mask, 0).success
    # with identity translations the row pass, which the bad origin sends
    # every base to, accepts offset (0,1) in direction 0 and zero offsets in
    # the others at every base; at a base with (0,1) in factor 0 the corner
    # shifted in direction 0 alone is (0,1) + (0,1) = (0,2), bad, which only
    # digits added mod 3 and ranked in base 3 reach
    replace_shift_tables(monkeypatch, lambda p, n: np.arange(p**n))
    offsets = variety._row_offsets(sh, np.argwhere(mask), mask & ~bad.mask)
    assert (offsets == [1] + [0] * (sh.k - 1)).all()
    with pytest.raises(ConstructionError, match="witness corner escaped the allowed set"):
        conv_fill_check(w, bad, mask, 0)


@pytest.mark.parametrize("p, dims", [
    (2, (3,)), (3, (0,)), (3, (2, 1)), (2, (0, 2)), (2, (1, 2, 1)), (5, (1, 0, 1)),
    (2, (1, 1, 1, 1)), (3, (1, 0, 1, 1)),
])
def test_flat_corner_gathers_match_tuple_indexing(p, dims):
    sh = Shape(p, dims)
    gen = np.random.default_rng(sum(dims) + 10 * p + len(dims))
    allowed = gen.random(sh.group_sizes) < 0.9
    # the zero offset is a witness at base 0 and none at the last base
    allowed.flat[0], allowed.flat[-1] = True, sh.total_points == 1
    bases = np.argwhere(np.ones(sh.group_sizes, dtype=bool))
    offsets = gen.integers(sh.group_sizes, size=bases.shape)
    moved = gen.integers(sh.group_sizes, size=bases.shape)
    subsets = range(2**sh.k)

    def picked(high, low, r, subset):
        return tuple(int(high[r, i] if subset >> i & 1 else low[r, i]) for i in range(sh.k))

    zero = np.zeros_like(bases)
    want_hits = [all(allowed[picked(bases, zero, r, s)] for s in subsets) for r in range(len(bases))]
    want = [all(allowed[picked(moved, offsets, r, s)] for s in subsets) for r in range(len(bases))]
    strides = variety._flat_strides(sh)
    assert variety._zero_offset_hits(sh, bases, allowed).tolist() == want_hits
    got = variety._corners_allowed(allowed, offsets @ strides, (moved - offsets) * strides)
    assert got.tolist() == want


def test_conv_fill_reports_every_point_without_a_witness(monkeypatch):
    # x_0[1] = 0: factor-0 vectors of rank 1 lie outside the variety
    sh = Shape(2, (2, 2))
    w = Variety(sh, (MultilinearForm(sh, (0,), [0, 1]),))
    constant_shift_tables(monkeypatch, 1)
    report = conv_fill_check(w, PointSet.empty(sh), variety_bitmap(w), w.codim)
    assert not report.success
    assert report.failures == tuple(bitmap_points(w))
    assert report.checked == len(report.failures) == 8
    assert report.corners_checked == 0


@pytest.mark.parametrize("sizes", [(5,), (4, 8), (3, 1, 9), (2, 3, 1, 4), (1,), (1, 1)])
@pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
def test_ranks_of_a_flat_index_pass_are_argwhere(sizes, share):
    mask = np.random.default_rng(len(sizes)).random(sizes) < share
    ranks = _ranks(np.flatnonzero(mask), mask.shape)
    assert ranks.dtype == np.argwhere(mask).dtype
    assert np.array_equal(ranks, np.argwhere(mask))
    assert ranks.shape == (np.count_nonzero(mask), len(sizes))


@pytest.mark.parametrize("p, dims, point_share", [
    (2, (4,), 0.7), (3, (2,), 0.7), (2, (2, 2), 0.7), (3, (1, 2), 0.7),
    (2, (1, 2, 1), 0.7), (3, (1, 1, 1), 0.7), (2, (1, 1, 1, 1), 0.7), (5, (1, 1), 0.7),
    (2, (2, 2), 0.0),
])
def test_fill_scan_rows_match_bruteforce_and_iterated_conv_witness(p, dims, point_share):
    sh = Shape(p, dims)
    rng = random.Random(f"{p}{dims}")
    outcomes = set()
    for fill in (0.1, 0.3, 0.6, 0.9):
        points = np.array([rng.random() < point_share for _ in range(sh.total_points)])
        allowed = np.array([rng.random() < fill for _ in range(sh.total_points)])
        points = points.reshape(sh.group_sizes)
        allowed = allowed.reshape(sh.group_sizes)
        allowed_points = {
            _point_from_index(sh, idx) for idx in np.argwhere(allowed).tolist()
        }
        bases = np.argwhere(points)
        before = budget.work_points()
        offsets = _fill_scan(sh, bases, allowed, "test scan")
        assert budget.work_points() - before == len(bases) * sh.k
        assert offsets.dtype == np.int64
        assert offsets.shape == bases.shape
        for idx, offs in zip(bases.tolist(), offsets.tolist()):
            base = _point_from_index(sh, idx)
            brute = brute_first_witness(sh, allowed_points, base)
            outcomes.add(brute is None)
            if brute is None:
                assert offs == [-1] * sh.k
            else:
                assert _point_from_index(sh, offs) == brute
            # one base of the same search, charged k points, no bitmap built
            before = budget.work_points()
            witness = iterated_conv_witness(PointSet(sh, allowed), base)
            assert budget.work_points() - before == sh.k
            if brute is None:
                assert witness is None
            else:
                assert witness.base == base and witness.offsets == brute
                assert all(corner in allowed_points for corner in witness.corners())
    assert outcomes == ({True, False} if point_share else set())


@pytest.mark.parametrize("p, dims", [
    (2, (4,)), (3, (2,)), (5, (2,)), (2, (2, 2)), (3, (1, 2)), (5, (1, 1)),
    (2, (1, 2, 1)), (3, (1, 1, 1)), (2, (1, 1, 1, 1)),
])
def test_zero_offset_precheck_is_only_a_shortcut(monkeypatch, p, dims):
    # the pre-check accepts exactly the rows whose first witness is the
    # zero offset, and switching it off changes no row
    sh = Shape(p, dims)
    rng = random.Random(f"precheck {p}{dims}")
    zero = tuple((0,) * n for n in dims)
    kinds = set()
    for fill in (0.1, 0.3, 0.5, 0.7, 0.9):
        points = np.array([rng.random() < 0.7 for _ in range(sh.total_points)])
        allowed = np.array([rng.random() < fill for _ in range(sh.total_points)])
        points = points.reshape(sh.group_sizes)
        allowed = allowed.reshape(sh.group_sizes)
        allowed_points = {
            _point_from_index(sh, idx) for idx in np.argwhere(allowed).tolist()
        }
        bases = np.argwhere(points).astype(np.int64)
        hits = variety._zero_offset_hits(sh, bases, allowed)
        with_precheck = _fill_scan(sh, bases, allowed, "test scan")
        with monkeypatch.context() as m:
            skip_zero_offset_precheck(m)
            without = _fill_scan(sh, bases, allowed, "test scan")
        assert with_precheck.dtype == without.dtype == np.int64
        assert np.array_equal(with_precheck, without)
        for idx, hit, offs in zip(bases.tolist(), hits.tolist(), with_precheck.tolist()):
            brute = brute_first_witness(sh, allowed_points, _point_from_index(sh, idx))
            assert hit == (brute == zero)
            if brute is None:
                assert offs == [-1] * sh.k
            else:
                assert _point_from_index(sh, offs) == brute
            kinds.add("hit" if hit else "no witness" if brute is None else "scanned")
    assert kinds == {"hit", "scanned", "no witness"}


@pytest.mark.parametrize("p, dims", [
    (2, (4,)), (3, (2,)), (5, (2,)), (2, (2, 2)), (3, (1, 2)), (5, (1, 1)),
    (2, (1, 2, 1)), (3, (1, 1, 1)), (2, (1, 1, 1, 1)),
])
def test_first_row_pass_is_only_a_shortcut(monkeypatch, p, dims):
    # row 0 of the row pass settles exactly the bases whose first witness
    # has last offset 0, and a base reads row r only while the rows before
    # it hold no witness there
    sh = Shape(p, dims)
    rng = random.Random(f"first row {p}{dims}")
    zero = tuple((0,) * n for n in dims)
    kinds = set()
    for fill in (0.1, 0.3, 0.5, 0.7, 0.9) * 2:
        points = np.array([rng.random() < 0.7 for _ in range(sh.total_points)])
        allowed = np.array([rng.random() < fill for _ in range(sh.total_points)])
        points = points.reshape(sh.group_sizes)
        allowed = allowed.reshape(sh.group_sizes)
        allowed_points = {
            _point_from_index(sh, idx) for idx in np.argwhere(allowed).tolist()
        }
        bases = np.argwhere(points).astype(np.int64)
        with monkeypatch.context() as m:
            read = count_row_pass_bases(m)
            offsets = _fill_scan(sh, bases, allowed, "test scan")
        assert offsets.dtype == np.int64
        # the last row each base of the row pass reads
        last_rows = []
        for idx, offs in zip(bases.tolist(), offsets.tolist()):
            brute = brute_first_witness(sh, allowed_points, _point_from_index(sh, idx))
            if brute is None:
                assert offs == [-1] * sh.k
                last_rows.append(sh.group_sizes[-1] - 1)
            else:
                assert _point_from_index(sh, offs) == brute
                if brute != zero:
                    last_rows.append(offs[-1])
            kinds.add(
                "no witness" if brute is None else "zero offset" if brute == zero
                else "first row" if not offs[-1] else "later row"
            )
        assert read == collections.Counter(r for last in last_rows for r in range(last + 1))
    # at arity 1 the only offset with last offset 0 is the zero offset
    assert kinds == {"zero offset", "first row", "later row", "no witness"} - (
        {"first row"} if sh.k == 1 else set()
    )


@pytest.mark.parametrize("p, dims", [(2, (6, 6)), (3, (3, 3)), (2, (2, 2, 2, 2))])
def test_no_witness_flood_matches_the_full_scan(p, dims):
    # sets with at most a tenth of the points allowed: almost no base has a
    # witness, so most bases read every row of the row pass
    sh = Shape(p, dims)
    rng = np.random.default_rng(sh.total_points)
    for share in (0.01, 0.05, 0.1):
        allowed = rng.random(sh.group_sizes) < share
        bases = np.argwhere(rng.random(sh.group_sizes) < 0.5)
        offsets = _fill_scan(sh, bases, allowed, "test scan")
        assert np.array_equal(offsets, scan_offsets(sh, bases, allowed))
        assert np.count_nonzero(offsets[:, 0] < 0) > len(bases) // 2


@pytest.mark.parametrize("p, dims", [(2, (3, 3)), (3, (2, 1, 1)), (5, (1, 1))])
def test_full_variety_takes_the_zero_offset_without_a_scan(monkeypatch, p, dims):
    # the pre-check settles every base, so the row pass never runs
    sh = Shape(p, dims)
    passes = []
    monkeypatch.setattr(variety, "_row_offsets", lambda *args: passes.append(args))
    mask = np.ones(sh.group_sizes, dtype=bool)
    offsets = _fill_scan(sh, np.argwhere(mask), mask, "test scan")
    assert len(offsets) == sh.total_points and not offsets.any()
    report = conv_fill_check(Variety.full(sh), PointSet.empty(sh), mask, 0)
    assert report.success and report.checked == sh.total_points
    assert report.corners_checked == sh.total_points * 2**sh.k
    assert passes == []


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_zero_offset_corners_of_a_variety_point_stay_in_the_variety(seed):
    # a zero-offset corner sets some coordinates of the point to zero: a
    # form whose support holds a zeroed factor vanishes there, and any other
    # form takes its value at the point, so the pre-check accepts every
    # point of V when nothing is bad
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    k = rng.randint(1, 4)
    sh = Shape(p, small_dims(rng, k, {2: 8, 3: 6, 5: 4}[p]))
    kind = rng.choice(("random", "partial support", "planted"))
    if kind == "random":
        v = random_variety(rng, sh, rng.randint(1, 3), full_support_only=True)
    elif kind == "partial support":
        supports = [random_support(rng, k) for _ in range(rng.randint(1, 3))]
        v = Variety(sh, [random_form(rng, sh, support) for support in supports])
    elif k >= 2 and rng.randrange(2):
        v = Variety(sh, planted_cylinder(rng, sh, rng.randint(1, 2), 1))
    else:
        v = planted_product_variety(rng, sh, [rng.randint(0, n) for n in sh.dims])[0]
    mask = variety_bitmap(v)
    assert variety._zero_offset_hits(sh, np.argwhere(mask), mask).all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_conv_fill_property_on_seeded_instances(seed):
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        sh = Shape(2, (5,))
        w = random_variety(rng, sh, rng.randrange(3))
    elif kind == 1:
        sh = Shape(2, (3, 3))
        w = random_variety(rng, sh, rng.randrange(2))
    else:
        sh = Shape(2, (2, 2, 2))
        w = Variety.full(sh)
    mask = variety_bitmap(w)
    k, r = sh.k, w.codim
    cap = Fraction(sh.total_points, 2 ** (2 * k) * sh.p ** (k * r))
    count = min(int(cap), int(np.count_nonzero(mask)))
    bad = random_point_subset(rng, sh, mask, rng.randrange(count + 1))
    report = conv_fill_check(w, bad, mask, r)
    assert report.success


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_witness_existence_matches_bruteforce(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.randrange(1, 4)
    sh = Shape(p, small_dims(rng, k, 4))
    w = random_variety(rng, sh, rng.randrange(2))
    mask = variety_bitmap(w)
    hits = int(np.count_nonzero(mask))
    bad = random_point_subset(rng, sh, mask, rng.randrange(hits + 1) if hits else 0)
    allowed = {
        pt
        for pt in enumerate_points(sh)
        if membership(w, pt) and not bad.contains(pt)
    }
    base = tuple(tuple(rng.randrange(p) for _ in range(n)) for n in sh.dims)
    got = iterated_conv_witness(PointSet(sh, mask & ~bad.mask), base)
    assert (None if got is None else got.offsets) == brute_first_witness(sh, allowed, base)
    if got is not None:
        assert all(corner in allowed for corner in got.corners())


def test_witness_tie_break_is_depth_first_lex():
    # several witnesses exist; the reported one must be minimal in
    # (last direction, ..., first direction) lexicographic order
    sh = Shape(2, (1, 2))
    bad = PointSet.from_points(sh, [((0,), (0, 0))])
    base = ((0,), (0, 0))
    got = iterated_conv_witness(PointSet(sh, ~bad.mask), base)
    assert got is not None
    p = sh.p
    valid = []
    for offs in enumerate_points(sh):
        box = Parallelepiped(sh, base, offs)
        if all(not bad.contains(c) for c in box.corners()):
            valid.append(offs)
    best = min(valid, key=lambda offs: tuple(reversed(offs)))
    assert got.offsets == best


def test_parallelepiped_corner_layout():
    sh = Shape(2, (1, 1))
    box = Parallelepiped(sh, ((1,), (1,)), ((0,), (1,)))
    corners = box.corners()
    assert corners[0] == ((0,), (1,))          # no direction shifted
    assert corners[1] == ((1,), (1,))          # direction 0 shifted
    assert corners[2] == ((0,), (0,))          # direction 1 shifted
    assert corners[3] == ((1,), (0,))          # both shifted
