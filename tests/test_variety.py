import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import variety
from mlvariety.errors import PreconditionError
from mlvariety.forms import MultilinearForm, MultilinearMap, Shape, zero_form
from mlvariety.generators import random_point_subset, random_variety
from mlvariety.variety import (
    Parallelepiped,
    PointSet,
    Variety,
    _fill_scan,
    _first_offsets,
    _point_from_index,
    _point_index,
    conv_fill_check,
    density,
    directional_convolution,
    intersect,
    iterated_conv_witness,
    membership,
    slice_variety,
    variety_bitmap,
    variety_points,
)

from helpers import (
    brute_density,
    brute_eval,
    brute_first_witness,
    constant_shift_tables,
    enumerate_points,
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


# ---------------------------------------------------------------------------
# Membership and density
# ---------------------------------------------------------------------------

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
    pts = list(variety_points(v))
    assert pts == [((0,), (0,)), ((0,), (1,)), ((1,), (0,))]


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


# ---------------------------------------------------------------------------
# Intersections and canonical form
# ---------------------------------------------------------------------------

def test_intersect_with_full_keeps_set():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    got = intersect(v, Variety.full(sh))
    assert np.array_equal(variety_bitmap(got), variety_bitmap(v))


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


def test_canonical_drops_zero_forms():
    sh = Shape(2, (1, 1))
    v = Variety(sh, (zero_form(sh), MultilinearForm(sh, (0, 1), [[1]])))
    assert v.codim == 1


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


def test_witness_full_space_zero_offsets():
    sh = Shape(2, (1, 1))
    w = Variety.full(sh)
    bad = PointSet.empty(sh)
    got = iterated_conv_witness(w, bad, ((1,), (1,)))
    assert got is not None
    assert got.offsets == ((0,), (0,))
    assert len(got.corners()) == 4


def test_witness_k1_subspace():
    sh = Shape(2, (3,))
    w = Variety(sh, (MultilinearForm(sh, (0,), [1, 1, 1]),))
    bad = PointSet.empty(sh)
    x = ((1, 1, 0),)
    got = iterated_conv_witness(w, bad, x)
    assert got is not None
    for corner in got.corners():
        assert membership(w, corner)


def test_witness_requires_bad_inside():
    sh = Shape(2, (1, 1))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), [[1]]),))
    outside = PointSet.from_points(sh, [((1,), (1,))])
    with pytest.raises(PreconditionError):
        iterated_conv_witness(w, outside, ((0,), (0,)))


def test_witness_every_point_dot_variety():
    sh = Shape(2, (3, 3))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(3, dtype=int)),))
    mask = variety_bitmap(w)
    bad = random_point_subset(random.Random(5), sh, mask, 1)
    for point in variety_points(w):
        got = iterated_conv_witness(w, bad, point)
        assert got is not None
        for corner in got.corners():
            assert membership(w, corner)
            assert not bad.contains(corner)


def test_conv_fill_empty_bad_set():
    sh = Shape(2, (2, 1))
    w = Variety(sh, (MultilinearForm(sh, (0, 1), [[1], [0]]),))
    report = conv_fill_check(w, PointSet.empty(sh))
    assert report.success
    assert report.checked == int(np.count_nonzero(variety_bitmap(w)))


def test_conv_fill_full_space_two_bad_points():
    sh = Shape(2, (3,))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),)])
    report = conv_fill_check(w, bad)
    assert report.success and report.bad_cap == 2


def test_conv_fill_rejects_oversized_bad_set():
    sh = Shape(2, (3,))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),), ((1, 0, 0),)])
    with pytest.raises(PreconditionError):
        conv_fill_check(w, bad)


def test_conv_fill_corner_recheck_is_independent_of_shift_tables(monkeypatch):
    sh = Shape(2, (3,))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0, 1),), ((1, 1, 1),)])
    assert conv_fill_check(w, bad).success
    # a search whose translations are all the identity accepts the offset
    # (0,0,0) at base (0,0,1), whose shifted corner (0,0,1) is bad
    monkeypatch.setattr(variety, "shift_permutation", lambda p, n, t: np.arange(p**n))
    with pytest.raises(PreconditionError, match="witness corner escaped the allowed set"):
        conv_fill_check(w, bad)


def test_conv_fill_corner_recheck_is_independent_of_shift_tables_p3_k2(monkeypatch):
    sh = Shape(3, (2, 2))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0, 0), (2, 2)), ((2, 2), (0, 0))])
    report = conv_fill_check(w, bad)
    assert report.success
    assert report.corners_checked == sh.total_points * 4
    # with identity translations the search accepts the zero offsets at the
    # base ((0,0),(2,2)), whose corner shifted in direction 1 is bad; the
    # re-check must rank that corner in base 3 to see it
    monkeypatch.setattr(variety, "shift_permutation", lambda p, n, t: np.arange(p**n))
    with pytest.raises(PreconditionError, match="witness corner escaped the allowed set"):
        conv_fill_check(w, bad)


def test_conv_fill_reports_every_point_without_a_witness(monkeypatch):
    # x_0[1] = 0: factor-0 vectors of rank 1 lie outside the variety
    sh = Shape(2, (2, 2))
    w = Variety(sh, (MultilinearForm(sh, (0,), [0, 1]),))
    constant_shift_tables(monkeypatch, 1)
    report = conv_fill_check(w, PointSet.empty(sh))
    assert not report.success
    assert report.failures == tuple(variety_points(w))
    assert report.checked == len(report.failures) == 8
    assert report.corners_checked == 0


@pytest.mark.parametrize("p, dims", [
    (2, (4,)), (3, (2,)), (2, (2, 2)), (3, (1, 2)), (2, (1, 2, 1)), (3, (1, 1, 1)),
])
def test_fill_scan_rows_match_first_offsets_and_bruteforce(p, dims):
    sh = Shape(p, dims)
    rng = random.Random(f"{p}{dims}")
    outcomes = set()
    for fill in (0.1, 0.3, 0.6, 0.9):
        points = np.array([rng.random() < 0.7 for _ in range(sh.total_points)])
        allowed = np.array([rng.random() < fill for _ in range(sh.total_points)])
        points = points.reshape(sh.group_sizes)
        allowed = allowed.reshape(sh.group_sizes)
        allowed_points = {
            _point_from_index(sh, idx) for idx in np.argwhere(allowed).tolist()
        }
        bases, offsets = _fill_scan(sh, points, allowed, "test scan")
        assert bases.dtype == offsets.dtype == np.int64
        assert bases.tolist() == np.argwhere(points).tolist()
        assert offsets.shape == bases.shape
        for idx, offs in zip(bases.tolist(), offsets.tolist()):
            expected = _first_offsets(sh, allowed, idx)
            outcomes.add(expected is None)
            if expected is None:
                assert offs == [-1] * sh.k
            else:
                assert tuple(offs) == expected
            brute = brute_first_witness(sh, allowed_points, _point_from_index(sh, idx))
            assert brute == (None if expected is None else _point_from_index(sh, expected))
    assert outcomes == {True, False}


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
    report = conv_fill_check(w, bad)
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
    got = iterated_conv_witness(w, bad, base)
    assert (None if got is None else got.offsets) == brute_first_witness(sh, allowed, base)
    if got is not None:
        assert all(corner in allowed for corner in got.corners())


def test_witness_tie_break_is_depth_first_lex():
    # several witnesses exist; the reported one must be minimal in
    # (last direction, ..., first direction) lexicographic order
    sh = Shape(2, (1, 2))
    w = Variety.full(sh)
    bad = PointSet.from_points(sh, [((0,), (0, 0))])
    base = ((0,), (0, 0))
    got = iterated_conv_witness(w, bad, base)
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
