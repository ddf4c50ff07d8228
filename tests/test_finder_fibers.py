"""The finder's fiber kernel against oracles, and the guards that keep the
finder off |G|-sized passes and off the verifier's kernel."""

import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mlvariety import budget, construct, fibers, forms, variety
from mlvariety.construct import (
    _Fibers,
    _image_histogram,
    dense_columns,
    find_subvariety,
)
from mlvariety.errors import EmptyVarietyError
from mlvariety.field import batched_echelon, residual, rref, vector_from_index
from mlvariety.forms import MultilinearForm, Shape, eval_grid
from mlvariety.generators import random_form, random_map, random_variety
from mlvariety.ledger import _fiber_constants
from mlvariety.variety import Variety, variety_bitmap

from helpers import (
    brute_eval,
    coordinate_products,
    mask_image_histogram,
    planted_cylinder,
    small_dims,
)


def _battery(p, seed):
    """Varieties over arity 1 to 4 with mixed supports, zero forms, forms
    whose support misses a factor and zero-dimension factors."""
    rng = random.Random(f"finder-fibers/{p}/{seed}")
    for k in (1, 2, 3, 4):
        dims = small_dims(rng, k, 5)
        while Shape(p, dims).total_points > max(300, p**k):
            dims = tuple(max(n - 1, 1) for n in dims)
        for shape in (Shape(p, dims), Shape(p, dims[:-1] + (0,))):
            v = random_variety(rng, shape, rng.randint(1, 3))
            # a form on the first factor alone misses every other factor
            zero = MultilinearForm(shape, (), 0)
            first = random_form(rng, shape, [0]) if shape.dims[0] else zero
            yield Variety(shape, v.forms + (zero, first))


def _others(shape, j):
    return tuple(l for l in range(shape.k) if l != j)


def _points(shape, factors):
    """The points of the given factors, in enumeration order."""
    return itertools.product(*[
        [vector_from_index(shape.p, shape.dims[l], t) for t in range(shape.group_sizes[l])]
        for l in factors
    ])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_fibers_match_brute_force_and_bitmaps(p, seed):
    for v in _battery(p, seed):
        shape = v.shape
        mask = variety_bitmap(v)
        for j in range(shape.k):
            others = _others(shape, j)
            fib = _Fibers(shape, j, others)
            n = shape.dims[j]
            # the rows are the form at each x with factor j at the unit vectors
            for f, values in zip(v.forms, fib.values(v.forms)):
                for x, xs in enumerate(_points(shape, others)):
                    point = dict(zip(others, xs))
                    if j not in f.support:
                        point[j] = (0,) * n
                        full = tuple(point[l] for l in range(shape.k))
                        assert values[x] == brute_eval(f, full)
                        continue
                    for c in range(n):
                        point[j] = tuple(int(i == c) for i in range(n))
                        full = tuple(point[l] for l in range(shape.k))
                        assert values[c, x] == brute_eval(f, full)
            system = fib.system(v.forms)
            assert system.count == int(np.count_nonzero(mask))
            moved = np.moveaxis(mask, j, -1).reshape(fib.b, -1)
            counts = np.where(system.alive, p ** (n - system.basis.rank), 0)
            assert np.array_equal(counts, moved.sum(axis=1))
            for t in range(p**n):
                slice_point = vector_from_index(p, n, t)
                u_mask = system.alive.copy()
                for row in system.basis.rows:
                    u_mask &= np.array(slice_point) @ row.astype(np.int64) % p == 0
                assert np.array_equal(u_mask, moved[:, t])


def _random_maps(p, seed):
    """(shape, support, components) of random maps over arity 1 to 3 with
    up to 3 components, the first of them zero about half the time."""
    rng = random.Random(f"finder-histogram/{p}/{seed}")
    for k in (1, 2, 3):
        dims = small_dims(rng, k, 5)
        while Shape(p, dims).total_points > max(300, p**k):
            dims = tuple(max(n - 1, 1) for n in dims)
        shape = Shape(p, dims)
        for m in range(4):
            source = random_map(rng, shape, m)
            components = list(source.components)
            if m and rng.random() < 0.5:
                components[0] = MultilinearForm(shape, source.support, components[0].coeffs * 0)
            yield shape, source.support, components


@pytest.mark.parametrize("p", [2, 3, 5, 17])
@pytest.mark.parametrize("seed", range(3))
def test_image_histogram_matches_bincount(p, seed):
    for shape, support, components in _random_maps(p, seed):
        codes = np.zeros(p ** sum(shape.dims[l] for l in support), dtype=np.int64)
        for f in components:
            codes = codes * p + eval_grid(f).reshape(-1)
        fib = construct._fibers(shape, support)
        hist = _image_histogram(fib, components)
        assert hist.tolist() == np.bincount(codes, minlength=p ** len(components)).tolist()


def _histogram_battery():
    """The random maps of every prime and seed, the coordinate products at
    (2,(3,5)) and (2,(4,8)), and cylinder-planted forms at (3,(3,3,3))."""
    for p in (2, 3, 5, 17):
        for seed in range(3):
            yield from _random_maps(p, seed)
    for dims in ((3, 5), (4, 8)):
        shape = Shape(2, dims)
        yield shape, (0, 1), coordinate_products(shape, 2)
    shape = Shape(3, (3, 3, 3))
    for seed, (m, w) in enumerate(itertools.product((4, 6), (1, 2))):
        yield shape, (0, 1, 2), planted_cylinder(random.Random(seed), shape, m, w)


def test_image_histogram_matches_the_mask_and_charges_its_codes(monkeypatch):
    """The enumerated histogram equals the closure of the B x p**m image
    mask, and the value images are charged the p**rank(x) codes of each x
    below full rank m plus p**m per rank present."""
    charged = []
    original = budget.charge

    def recording(points, what):
        if what == "value images":
            charged.append(points)
        original(points, what)

    monkeypatch.setattr(budget, "charge", recording)
    for shape, support, components in _histogram_battery():
        p, m = shape.p, len(components)
        fib = construct._fibers(shape, support)
        hist = _image_histogram(fib, components)
        assert hist.tolist() == mask_image_histogram(fib, components).tolist()
        ranks = fib.system(components).basis.rank.tolist()
        assert charged.pop() == sum(p**r for r in ranks if r < m) + p**m * len(set(ranks))


def test_image_histogram_of_many_coordinate_products_charges_its_codes(monkeypatch):
    """The 20 coordinate products x_i y_j, i < 2, at (2,(4,10)): over the 16
    x of factor 0 the image of M(x) is 0 at the 4 x with x_0 = x_1 = 0 and
    has rank 10 elsewhere, 4 + 12 * 2**10 = 12,292 codes and two passes of
    2**20 cells, where the 16 x 2**20 mask took 16,777,216."""
    charged = []
    monkeypatch.setattr(budget, "charge", lambda points, what: charged.append((points, what)))
    shape = Shape(2, (4, 10))
    hist = _image_histogram(construct._fibers(shape, (0, 1)), coordinate_products(shape, 2))
    assert charged[-1] == (12_292 + 2 * 2**20, "value images")
    assert int(hist.sum()) == shape.total_points and int(hist[0]) == 4 * 2**10 + 12


def _rref_rank(rows, x, p, n):
    """The rref rank of the given (n, B) rows at x."""
    return len(rref([row[:, x].tolist() for row in rows], p, width=n))


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_batched_echelon_matches_rref_at_every_x(p):
    rng = np.random.default_rng(p)
    for trial in range(30):
        b, n = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        first, second = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        # some rows are not contiguous along x
        grids = rng.integers(0, p, (first + second, n, b)) * (rng.random((1, 1, b)) < 0.7)
        rows = [g.astype(np.uint8) if i % 2 else np.asfortranarray(g.astype(np.uint8))
                for i, g in enumerate(grids)]
        basis = batched_echelon(np.array(rows[:first]).reshape(first, n, b), p)
        both = batched_echelon(rows[first:], p, basis)
        for extended, kept in zip((both.rows, both.pivots, both.nonzero),
                                  (basis.rows, basis.pivots, basis.nonzero)):
            assert np.array_equal(extended[:first], kept)
        for x in range(b):
            for record, count in ((basis, first), (both, first + second)):
                assert record.rank[x] == _rref_rank(rows[:count], x, p, n)
                flags = [bool(row[:, x].any()) for row in record.rows]
                assert record.nonzero[:, x].tolist() == flags
                nonzero = [row[:, x].tolist() for row in record.rows[record.nonzero[:, x]]]
                assert np.array_equal(rref(nonzero, p, width=n),
                                      rref([r[:, x].tolist() for r in rows[:count]], p, width=n))
                for row, pivot in zip(record.rows[record.nonzero[:, x]],
                                      record.pivots[record.nonzero[:, x], x]):
                    assert row[pivot, x] == 1 and not row[pivot + 1:, x].any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residual_is_zero_exactly_where_a_row_joins_the_span(p):
    """A row's residual against a record is zero at x exactly when the row
    leaves the rref rank of the basis rows at x unchanged: over B = 1 and
    n = 1, zero, repeated and dependent rows, an empty basis and no rows."""
    rng = np.random.default_rng(100 + p)
    for trial in range(40):
        b, n = (1, 1) if trial < 4 else (int(rng.integers(1, 30)), int(rng.integers(1, 5)))
        zero = np.zeros((n, b), dtype=np.uint8)

        def rows(count):
            return list(rng.integers(0, p, (count, n, b)).astype(np.uint8))

        def combination(pool):
            return (sum(int(rng.integers(0, p)) * row.astype(np.int64) for row in pool) % p
                    ).astype(np.uint8)

        given = rows(int(rng.integers(0, 4)))
        if given and trial % 2:
            # a zero, a repeated and a dependent basis row
            given += [zero, given[0], combination(given)]
        # zero, repeated and dependent rows, none at all on every fifth trial
        tested = [zero, *given[:1], combination([zero, *given]), *rows(int(rng.integers(0, 3)))]
        if trial % 5 == 0:
            tested = []
        basis = batched_echelon(np.array(given, dtype=np.uint8).reshape(len(given), n, b), p)
        out = residual(np.array(tested, dtype=np.uint8).reshape(len(tested), n, b), p, basis)
        assert out.shape == (len(tested), n, b)
        for row, rest in zip(tested, out):
            for x in range(b):
                joins = _rref_rank([*given, row], x, p, n) == _rref_rank(given, x, p, n)
                assert (not rest[:, x].any()) == joins


def test_dense_columns_takes_a_nonzero_slice():
    """The coordinate products x_i y_j, i < 2, at (2,(4,9)) make direction 1
    skip its zero slice, whose fiber-sparse points are too many; the slice,
    the bad count and the fiber minimum are the bitmap's."""
    shape = Shape(2, (4, 9))
    v = Variety(shape, coordinate_products(shape, 2))
    res = dense_columns(v, 1)
    assert res.slice_point == vector_from_index(2, 9, 1)
    mask = variety_bitmap(v)
    counts = mask.sum(axis=1)
    c = Fraction(int(mask.sum()), shape.total_points)
    c_prime, _ = _fiber_constants(2, c, 2)
    sparse = counts <= math.floor(c_prime * 2**9)
    assert res.bad_count == int(np.count_nonzero(mask[:, 1] & sparse))
    assert res.min_fiber_count == counts[variety_bitmap(res.base_certificate.output)].min()


def test_the_empty_marker_reaches_no_fiber():
    shape = Shape(3, (2, 1, 2))
    with pytest.raises(EmptyVarietyError):
        find_subvariety(Variety.empty(shape))
    with pytest.raises(EmptyVarietyError):
        dense_columns(Variety.empty(shape), 1)


@pytest.mark.parametrize("p, dims", [(2, (10, 10)), (3, (4, 3, 3))])
def test_finder_makes_no_pass_over_g(monkeypatch, p, dims):
    """No refusal check or charge reaches |G|, the functional scan's
    m * p**(m+1) transformed cells included."""
    shape = Shape(p, dims)
    passes = []
    for name in ("ensure", "charge"):
        original = getattr(budget, name)

        def recording(points, what, _original=original):
            passes.append((points, what))
            _original(points, what)

        monkeypatch.setattr(budget, name, recording)
    for seed in range(3):
        find_subvariety(random_variety(random.Random(seed), shape, 2, full_support_only=True))
    assert {what for _, what in passes} >= {"fiber rows", "value images", "functional scan"}
    assert max(points for points, _ in passes) < shape.total_points


def _raise(*args, **kwargs):
    raise AssertionError("the finder reached the verifier's fiber kernel")


@pytest.mark.parametrize("p, dims", [(2, (4, 4)), (3, (2, 2, 1)), (2, (1, 2, 1, 2)), (5, (3,))])
def test_finder_calls_no_fibers_function(monkeypatch, p, dims):
    shape = Shape(p, dims)
    inputs = [random_variety(random.Random(seed), shape, 2) for seed in range(3)]
    expected = [find_subvariety(v) for v in inputs]
    for name, value in vars(fibers).items():
        if inspect.isfunction(value) and value.__module__ == fibers.__name__:
            monkeypatch.setattr(fibers, name, _raise)
    assert [find_subvariety(v) for v in inputs] == expected


def _base_battery():
    """Full-support, partial-support and cylinder-planted varieties at p in
    {2, 3} and arity 2 to 4, two of each kind per (p, arity), and two whose
    base in direction 2 is smaller than its slice: coordinate products
    x_0 y_j on factors 0 and 1, whose own base in direction 1 is taken at a
    nonzero slice (test_dense_columns_takes_a_nonzero_slice)."""
    for p, dims in ((2, (1, 7, 1)), (3, (1, 6, 1))):
        shape = Shape(p, dims)
        yield Variety(shape, [MultilinearForm(shape, (0, 1), f.coeffs)
                              for f in coordinate_products(Shape(p, dims[:2]), 1)])
    rng = random.Random("finder-bases")
    for p in (2, 3):
        for k in (2, 3, 4):
            for _ in range(2):
                shape = Shape(p, small_dims(rng, k, 6 if p == 2 else k + 1))
                yield random_variety(rng, shape, 2, full_support_only=True)
                partial = [random_form(rng, shape, tuple(sorted(rng.sample(range(k), size))))
                           for size in (1, k - 1)]
                yield Variety(shape, partial)
                yield Variety(shape, planted_cylinder(rng, shape, 2, 1))


def _no_bitmap_or_grid(*args, **kwargs):
    raise AssertionError("the finder built a bitmap or a value grid")


def test_finder_builds_no_bitmap_and_no_value_grid(monkeypatch):
    inputs = list(_base_battery())
    expected = [find_subvariety(v) for v in inputs]
    for name in ("variety_bitmap", "eval_grid"):
        for module in (forms, variety, construct):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _no_bitmap_or_grid)
    assert [find_subvariety(v) for v in inputs] == expected


def test_dense_columns_reads_the_base_bitmap_from_its_fibers(monkeypatch):
    """The base points the filling scan starts from are those of the base's
    bitmap, its allowed set lies inside them, and the lifted forms cut out
    that bitmap times the direction's factor."""
    scans = []
    original = construct._fill_scan

    def recording(shape, bases, allowed, what):
        scans.append((bases, allowed))
        return original(shape, bases, allowed, what)

    monkeypatch.setattr(construct, "_fill_scan", recording)
    for v in _base_battery():
        for direction in range(v.shape.k):
            res = dense_columns(v, direction)
            # the base's own recursion scans first
            bases, allowed = scans[-1]
            base = variety_bitmap(res.base_certificate.output)
            assert np.array_equal(bases, np.argwhere(base))
            assert not (allowed & ~base).any()
            lifted = variety_bitmap(Variety(v.shape, res.lifted))
            assert np.array_equal(lifted, np.broadcast_to(np.expand_dims(base, direction),
                                                          lifted.shape))
