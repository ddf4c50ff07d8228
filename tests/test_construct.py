import collections
import dataclasses
import itertools
import json
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import budget, construct, field, forms, ledger, monomial, variety
from mlvariety.construct import dense_columns, external_approx, find_subvariety
from mlvariety.errors import (
    ApproxMismatchError,
    ConstructionError,
    EmptyVarietyError,
    PreconditionError,
)
from mlvariety.fibers import density, verify_certificate
from mlvariety.field import rref, vector_from_index
from mlvariety.forms import MultilinearForm, MultilinearMap, Shape, ceil_log
from mlvariety.monomial import Monomial
from mlvariety.generators import (
    planted_product_variety,
    random_form,
    random_map,
    random_subspace,
    random_variety,
)
from mlvariety.jsonio import certificate_from_obj, certificate_to_obj, dumps
from mlvariety.ledger import (
    _clamps,
    _fiber_constants,
    _fiber_thresholds,
    _level_constants,
    arity_constant,
    budget_line,
    codim_budget,
    ledger_paths,
)
from mlvariety.variety import Variety, membership, variety_bitmap

from helpers import (
    LEDGER_MEMOS,
    annihilator,
    approximate_with_no_functionals,
    bitmap_points,
    brute_eval,
    brute_external_approx,
    brute_rank_mod,
    constant_shift_tables,
    coordinate_products,
    count_bitmap_passes,
    count_log_signs,
    enumerate_points,
    miss_every_memo_lookup,
    monomial_value,
    planted_cylinder,
    slice_by_contracting,
    skip_zero_offset_precheck,
    small_dims,
)


def dot_variety(p, n):
    sh = Shape(p, (n, n))
    return Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(n, dtype=int)),))


def subspace_variety(rows, p, n):
    sh = Shape(p, (n,))
    forms = [MultilinearForm(sh, (0,), row) for row in annihilator(rows, p, n)]
    return Variety(sh, forms)


# ---------------------------------------------------------------------------
# Budget line
# ---------------------------------------------------------------------------

def test_budget_line_base():
    assert budget_line(1) == (1, 0)
    assert arity_constant(1) == 1
    with pytest.raises(PreconditionError, match="arity must be at least 1"):
        budget_line(0)


def test_budget_line_arity_two_frozen():
    # frozen from an independent derivation, the recursion's exponents
    # unwound by hand; arity 2 is 16 L + 29
    assert budget_line(2) == (16, 29)
    assert arity_constant(2) == 45
    assert budget_line(3) == (1524, 3436)
    assert budget_line(4) == (573728, 1269985)
    assert budget_line(5) == (661704240, 1410441166)


def test_budget_line_arity_sixteen_frozen():
    # frozen from the rational-coefficient evaluation, which formed the
    # fiber floor's coefficient 2**-(33 * 2**15) as an integer
    assert budget_line(16) == (
        1877072226340695669597200801398469728561163712933313243599680349667328,
        3754470347737822448853421802837087785435749444371776581282950562054145,
    )


def test_budget_line_hands_no_long_base_to_the_sign_decisions(monkeypatch):
    # the arity-12 fiber floor's coefficient is 2**-47104: kept as an
    # exponent of 2, every base a sign decision sees stays within 64 bits
    for memo in (*LEDGER_MEMOS, budget_line):
        memo.cache_clear()
    bases = []
    original = monomial._log_sign

    def recording(powers):
        bases.extend(b for b, _ in powers)
        return original(powers)

    monkeypatch.setattr(monomial, "_log_sign", recording)
    budget_line(12)
    assert bases and max(b.bit_length() for b in bases) <= 64


@pytest.mark.parametrize("arity", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_constants_stay_under_the_budget_line(p, arity):
    # the line was read off at p = 2 and c = 2**-L; at every p and density
    # c = a/p**n, with r up to the lower arity's budget on a half-dense
    # slice, clamped or not, s plus the cylinder forms must stay under it
    for n in range(3):
        for a in sorted({1, 2, p**n // 2 + 1, p**n - 1, p**n} & set(range(1, p**n + 1))):
            c = Fraction(a, p**n)
            top = codim_budget(arity - 1, p, c / 2)
            for r in sorted({0, 1, top // 2, top}):
                for max_dim in (None, 1, 3):
                    s = _level_constants(p, c, arity, r, max_dim).s
                    assert s + arity**2 * r <= codim_budget(arity, p, c)


def test_codim_budget_arity_one_is_exact_log():
    assert codim_budget(1, 2, Fraction(1, 8)) == 3
    assert codim_budget(1, 3, Fraction(1, 9)) == 2
    assert codim_budget(1, 2, Fraction(3, 4)) == 1
    assert codim_budget(1, 2, Fraction(1)) == 0


def test_codim_budget_examples():
    assert codim_budget(2, 2, Fraction(1)) == 29
    assert codim_budget(2, 2, Fraction(3, 4)) == 45


def test_codim_budget_monotone_in_sparsity():
    vals = [codim_budget(2, 2, Fraction(1, 2**t)) for t in range(6)]
    assert vals == sorted(vals)


def test_codim_budget_rejects_bad_density():
    with pytest.raises(PreconditionError):
        codim_budget(2, 2, Fraction(0))
    with pytest.raises(PreconditionError):
        codim_budget(2, 2, Fraction(3, 2))


def _clear_ledger_memos():
    for memo in LEDGER_MEMOS:
        memo.cache_clear()


def _ledger_memo_hits():
    return sum(memo.cache_info().hits for memo in LEDGER_MEMOS)


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_ledger_memos_equal_their_uncached_functions(p, arity, monkeypatch):
    # each signature is asked twice, a miss and then a hit, and both answers
    # must be the value of the uncached function, whose own calls to
    # _fiber_constants and _fiber_thresholds are uncached too
    _clear_ledger_memos()
    signatures = [
        (c, r, max_dim, n, m)
        for c in (Fraction(1), Fraction(3, 4), Fraction(1, p), Fraction(7, p**3))
        for r in (0, 1, 3)
        for max_dim in (None, 3)
        for n, m in ((1, 0), (3, 2))
    ]
    cached = [
        [(codim_budget(arity, p, c), _fiber_constants(p, c, arity),
          _fiber_thresholds(p, c, arity, n, m), _level_constants(p, c, arity, r, max_dim),
          _clamps(p, c, arity, (n, 2)))
         for c, r, max_dim, n, m in signatures]
        for _ in range(2)
    ]
    assert all(memo.cache_info().hits for memo in LEDGER_MEMOS)
    monkeypatch.setattr(ledger, "_fiber_constants", _fiber_constants.__wrapped__)
    monkeypatch.setattr(ledger, "_fiber_thresholds", _fiber_thresholds.__wrapped__)
    fresh = [
        (codim_budget.__wrapped__(arity, p, c), _fiber_constants.__wrapped__(p, c, arity),
         _fiber_thresholds.__wrapped__(p, c, arity, n, m),
         _level_constants.__wrapped__(p, c, arity, r, max_dim),
         _clamps.__wrapped__(p, c, arity, (n, 2)))
        for c, r, max_dim, n, m in signatures
    ]
    assert cached[0] == cached[1] == fresh


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_thresholds_match_the_written_out_constants(p, arity):
    # c' and the fiber floor as exact rationals, from the formulas of
    # _level_constants, which the low arities keep small: the sparse rank is
    # the least r <= n with c' p**r >= 1 (n + 1 if none), the bad-count limit
    # 2 c' b / c over b = p**m points, which an integer count is at most
    # exactly when it is at most its floor, and a direction clamps when
    # floor * p**n < 1
    k = arity - 1
    big_k = arity_constant(k)
    for c in (Fraction(1), Fraction(3, 4), Fraction(1, p), Fraction(7, p**3)):
        c_prime = c ** (k * big_k + 1) / (2 ** (2 * k + 1) * p ** (2 * k * big_k))
        floor = c_prime ** (2**k)
        for n in (1, 2, 5):
            sparse_rank = next((r for r in range(n + 1) if c_prime * p**r >= 1), n + 1)
            for m in (0, 1, 4):
                rank, limit = _fiber_thresholds(p, c, arity, n, m)
                bound = 2 * c_prime * p**m / c
                assert (rank, monomial_value(limit)) == (sparse_rank, bound)
                assert math.floor(bound) <= limit < math.floor(bound) + 1
            assert _clamps(p, c, arity, (n, 2)) == (floor * p**n < 1, floor * p**2 < 1)


def test_clamps_compare_exponents_without_an_invented_base(monkeypatch):
    # the floor against one point of each direction only: no comparison
    # forms a count over the 2**300 points of the other direction
    calls = count_log_signs(monkeypatch)
    assert _clamps(2, Fraction(5, 8), 2, (1, 300)) == (True, False)
    assert len(calls) <= 100


def test_level_constants_are_read_only():
    signature = (3, Fraction(1, 3), 3, 1, 4)
    first = _level_constants(*signature)
    expected = dataclasses.replace(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.s = -1
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.extra = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del first.c_prime
    assert _level_constants(*signature) == expected


# ---------------------------------------------------------------------------
# External approximation
# ---------------------------------------------------------------------------

def test_approx_zero_map():
    sh = Shape(2, (1, 1))
    source = MultilinearMap(sh, (0, 1), ())
    res = external_approx(source, 2)
    assert res.error_count == 0


def test_approx_s_zero_vacuous():
    sh = Shape(2, (1, 1))
    f = MultilinearForm(sh, (0, 1), [[1]])
    res = external_approx(MultilinearMap(sh, (0, 1), (f,)), 0)
    assert res.phi.codomain_dim == 0
    assert res.error_count == 1  # |G| - |{f = 0}| = 4 - 3
    assert res.error_cap == 4
    with pytest.raises(PreconditionError, match="non-negative"):
        external_approx(MultilinearMap(sh, (0, 1), (f,)), -1)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("s", [0, 1, 3])
def test_approx_empty_codomain(p, s):
    sh = Shape(p, (1, 2, 1))
    res = external_approx(MultilinearMap(sh, (0, 1), ()), s)
    assert res.phi.support == (0, 1) and res.phi.codomain_dim == s
    assert all(f.support == (0, 1) and f.is_zero() for f in res.phi.components)
    assert res.error_count == 0
    assert res.survivors_per_step == (0,) * s
    assert res.error_cap == Fraction(sh.total_points, p**s)


@pytest.mark.parametrize("p, dims", [(2, (3, 3)), (3, (2, 1, 1))])
def test_approx_repeated_components_are_charged_and_counted_once(p, dims, monkeypatch):
    """Once no survivor is left the greedy repeats the zero functional.  Each
    distinct functional gives one form object, the containment check
    builds the fiber rows of each distinct nonzero component once, the zero
    component needs no rows, rows equal to a source component's are not
    built again, and the error count is the brute-force count of points
    where phi vanishes and the source does not.  The charges are the rows,
    B * n_j entries per form, the p**rank(x) value-image codes of each x
    below full rank m with p**m cells per rank present and, per live step,
    the m * p**(m+1) cells the functional scan transforms, p terms each."""
    sh = Shape(p, dims)
    source = random_map(random.Random(18), sh, 2)
    calls = []
    original = construct.fiber_values

    def counting(forms_, j, others):
        calls.extend(f.key() for f in forms_)
        return original(forms_, j, others)

    monkeypatch.setattr(construct, "fiber_values", counting)
    s = 6
    budget.reset_work()
    res = external_approx(source, s)
    folded = calls[source.codomain_dim :]
    assert any(f.is_zero() for f in res.phi.components)
    assert len({id(f) for f in res.phi.components}) == len(set(res.phi.components))
    assert len(calls) == len(set(calls))
    assert calls[: source.codomain_dim] == [f.key() for f in source.components]
    nonzero = {f.key() for f in res.phi.components if not f.is_zero()}
    assert len(nonzero) < s
    assert set(folded) == nonzero - set(calls[: source.codomain_dim])
    live = 1 + sum(1 for n in res.survivors_per_step[:-1] if n)
    m = source.codomain_dim
    scan = m * p ** (m + 2)
    j = max(source.support, key=sh.dims.__getitem__)
    b = sh.total_points // p ** (sh.dims[j] + sum(
        n for l, n in enumerate(sh.dims) if l not in source.support
    ))
    rows = len(calls) * b * sh.dims[j]
    work = budget.work_points()
    ranks = construct._fibers(sh, source.support).system(source.components).basis.rank.tolist()
    images = sum(p**r for r in ranks if r < m) + p**m * len(set(ranks))
    assert work == rows + images + live * scan
    expected = sum(
        1
        for point in enumerate_points(sh)
        if all(brute_eval(f, point) == 0 for f in res.phi.components)
        and any(brute_eval(f, point) for f in source.components)
    )
    assert res.error_count == expected


@pytest.mark.parametrize("p, dims", [(2, (3, 3)), (3, (2, 1, 1))])
def test_approx_steps_after_the_last_survivor_add_zeros_and_charge_nothing(p, dims):
    """Past the step that leaves no survivor, a longer run appends the zero
    form and a survivor count of 0 per step, has the same error count and
    charges exactly what the run stopping at that step charges."""
    source = random_map(random.Random(19), Shape(p, dims), 2)
    s = 40
    budget.reset_work()
    long = external_approx(source, s)
    long_points = budget.work_points()
    live = long.survivors_per_step.index(0) + 1
    assert live < s // 2
    budget.reset_work()
    short = external_approx(source, live)
    assert budget.work_points() == long_points
    assert long.survivors_per_step == short.survivors_per_step + (0,) * (s - live)
    assert long.phi.components[:live] == short.phi.components
    assert all(f.is_zero() and f.support == source.support
               for f in long.phi.components[live:])
    assert long.error_count == short.error_count


def test_approx_pair_of_products():
    sh = Shape(2, (2, 2))
    a = np.zeros((2, 2), dtype=int)
    a[0, 0] = 1
    b = np.zeros((2, 2), dtype=int)
    b[1, 1] = 1
    src = MultilinearMap(
        sh, (0, 1), (MultilinearForm(sh, (0, 1), a), MultilinearForm(sh, (0, 1), b))
    )
    res = external_approx(src, 2)
    assert res.error_count <= 4


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_approx_invariants_random(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.randrange(1, 4)
    sh = Shape(p, small_dims(rng, k, 6))
    m = rng.randrange(4)
    s = rng.randrange(4)
    source = random_map(rng, sh, m)
    res = external_approx(source, s)
    assert res.error_count <= res.error_cap
    # each greedy step cuts the survivor set by at least a factor of p
    values = [
        np.count_nonzero(
            np.stack(
                [
                    np.array([brute_eval(f, pt) for pt in enumerate_points(sh)])
                    for f in source.components
                ]
            ).any(axis=0)
        )
        if m
        else 0
    ]
    prev = values[0]
    for survivors in res.survivors_per_step:
        assert survivors <= prev // p
        prev = survivors
    # containment and the exact error count re-derived with the brute evaluator
    extra = 0
    for pt in enumerate_points(sh):
        src_zero = all(brute_eval(f, pt) == 0 for f in source.components)
        phi_zero = all(brute_eval(f, pt) == 0 for f in res.phi.components)
        if src_zero:
            assert phi_zero
        elif phi_zero:
            extra += 1
    assert extra == res.error_count


def test_approx_deterministic():
    rng = random.Random(3)
    sh = Shape(2, (2, 2))
    source = random_map(rng, sh, 2)
    r1 = external_approx(source, 2)
    r2 = external_approx(source, 2)
    assert r1.phi == r2.phi


def _greedy_oracle_ties(p, m, dims):
    """Brute-force oracle for the greedy step: every survivor count is
    recomputed per functional in enumeration order, and the chosen functional
    must be the first minimizer.  Returns how many live steps had a tie."""
    ties = 0
    for seed in range(6):
        rng = random.Random(seed)
        sh = Shape(p, dims)
        source = random_map(rng, sh, m)
        s = 4
        res = external_approx(source, s)
        points = list(enumerate_points(sh))
        values = [[brute_eval(f, pt) for pt in points] for f in source.components]
        survivors = [any(v[i] for v in values) for i in range(len(points))]
        functionals = list(itertools.product(range(p), repeat=m))

        def kills(psi, i):
            return sum(a * v[i] for a, v in zip(psi, values)) % p == 0

        for step in range(s):
            counts = [
                sum(alive and kills(psi, i) for i, alive in enumerate(survivors))
                for psi in functionals
            ]
            best = counts.index(min(counts)) if any(survivors) else 0
            ties += any(survivors) and counts.count(min(counts)) > 1
            psi = functionals[best]
            expected = sum(
                (a * f.coeffs.astype(np.int64) for a, f in zip(psi, source.components)),
                np.zeros(dims, dtype=np.int64),
            ) % p
            assert np.array_equal(res.phi.components[step].coeffs, expected)
            survivors = [alive and kills(psi, i) for i, alive in enumerate(survivors)]
            assert res.survivors_per_step[step] == sum(survivors)
    return ties


@pytest.mark.parametrize(
    "p, m, dims", [(2, 2, (2, 2)), (2, 3, (1, 3)), (3, 2, (2, 1)), (3, 2, (1, 1, 2))]
)
def test_approx_greedy_picks_first_minimizer(p, m, dims):
    assert _greedy_oracle_ties(p, m, dims) > 0


@pytest.mark.parametrize(
    "p, m, dims",
    [
        (2, 0, (2, 2)), (3, 0, (1, 2)), (2, 1, (2, 2)), (3, 1, (1, 2)),
        # p**m above |G_S|: most value codes never occur
        (2, 4, (1, 1)), (3, 3, (1, 1)),
    ],
)
def test_approx_greedy_oracle_small_and_oversized_codomains(p, m, dims):
    _greedy_oracle_ties(p, m, dims)


@pytest.mark.parametrize(
    "p, m, dims, support, s, live",
    [
        # Value codes go from one byte to two between p**m = 256 and 512,
        # and between 243 and 729.  The first `live` components are random
        # and the rest zero, so with live = 1 only the most significant
        # digit of each code is nonzero.
        (2, 8, (3, 3), (0, 1), 2, 8),
        (2, 9, (3, 3), (0, 1), 2, 9),
        (2, 9, (3, 1, 3), (0, 2), 2, 9),
        (2, 9, (3, 3), (0, 1), 2, 1),
        (3, 5, (2, 2), (0, 1), 1, 5),
        (3, 6, (2, 2), (0, 1), 1, 6),
        (3, 6, (1, 2, 2), (1, 2), 1, 6),
    ],
)
def test_approx_matches_the_pointwise_histogram_where_codes_widen(
    p, m, dims, support, s, live
):
    sh = Shape(p, dims)
    rng = random.Random(31)
    components = [random_form(rng, sh, support) for _ in range(live)]
    components += [MultilinearForm(sh, support, np.zeros([dims[j] for j in support]))] * (
        m - live
    )
    source = MultilinearMap(sh, support, components)
    res = external_approx(source, s)
    per_step, error_count, keys = brute_external_approx(source, s)
    assert res.survivors_per_step == per_step
    assert res.error_count == error_count
    assert [f.key() for f in res.phi.components] == keys


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_zero_counts_equal_the_kill_table_product(p, m):
    """Z[u] = sum over v of live[v] [u . v = 0], for every code u, equals
    the brute-force p**m x (live codes) kill table times the live counts,
    on int64 counts and on object counts past 2**63.  Object input stops
    at 17**3 codes: at 17**4 the transform alone takes seconds."""
    rng = np.random.default_rng(p * 10 + m)
    codes = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64).reshape(p**m, m)
    at = rng.choice(len(codes), size=min(len(codes), 64), replace=False)
    counts = rng.integers(0, 1000, size=len(at))
    kills = codes @ codes[at].T % p == 0
    expected = (kills.astype(np.int64) @ counts).tolist()
    for dtype, scale in ((np.int64, 1), (object, 2**70)):
        if dtype is object and len(codes) > 17**3:
            continue
        live = np.zeros(len(codes), dtype=dtype)
        live[at] = counts.astype(dtype) * scale
        z = construct._zero_counts(live, p, m)
        assert z.dtype == live.dtype
        assert z.tolist() == [n * scale for n in expected]


def test_approx_refuses_the_functional_table_before_any_grid(monkeypatch):
    """A codomain whose p**m vectors are over the budget is refused before
    a single value grid (here, of fiber rows) is evaluated, however small
    the grids are."""
    sh = Shape(2, (1, 1))
    source = random_map(random.Random(32), sh, 7)
    calls = []
    original = forms._value_grid

    def counting(p, axis_dims, coeffs):
        calls.append(p)
        return original(p, axis_dims, coeffs)

    monkeypatch.setattr(forms, "_value_grid", counting)
    budget.set_point_budget(2**7 - 1)
    with pytest.raises(budget.BudgetExceededError, match="vector table"):
        external_approx(source, 1)
    assert calls == []


# ---------------------------------------------------------------------------
# Dense fibers
# ---------------------------------------------------------------------------

def test_dense_columns_full_space():
    sh = Shape(2, (2, 2))
    res = dense_columns(Variety.full(sh), direction=1)
    assert res.slice_point == (0, 0)
    assert res.lifted == ()
    assert res.min_fiber_density == 1
    assert res.bad_count == 0


def test_dense_columns_dot_variety():
    v = dot_variety(2, 2)
    res = dense_columns(v, direction=1)
    # every base point's fiber meets the certified floor, re-measured here
    mask = variety_bitmap(v)
    fibers = mask.sum(axis=res.direction)
    base_mask = variety_bitmap(res.base_certificate.output)
    assert int(fibers[base_mask].min()) == res.min_fiber_count
    _, floor = _fiber_constants(2, density(v), 2)
    assert floor.times(p_exp=2) <= res.min_fiber_count
    # thresholds fall below one point at this scale
    assert find_subvariety(v).ledger.clamped[res.direction]


def test_dense_columns_direction_zero():
    v = dot_variety(2, 2)
    res = dense_columns(v, direction=0)
    assert res.direction == 0
    assert res.base_certificate.output.shape.dims == (2,)


@pytest.mark.parametrize("dims, direction, message", [
    ((2,), None, "at least two factors"),
    ((1, 1), 2, "direction outside the shape"),
    ((1, 1), -1, "direction outside the shape"),
])
def test_dense_columns_rejects_arity_1_and_outside_directions(dims, direction, message):
    with pytest.raises(PreconditionError, match=message):
        dense_columns(Variety.full(Shape(2, dims)), direction)


def test_dense_columns_needs_nonempty():
    sh = Shape(2, (1, 1))
    with pytest.raises(EmptyVarietyError):
        dense_columns(Variety.empty(sh), direction=1)


def test_dense_columns_names_the_first_base_point_without_a_witness(monkeypatch):
    # x_0[1] = 0; the base inside the slice is {x_0[1] = 0}, ranks 0 and 2,
    # and every translation the search uses lands on rank 1, outside it
    sh = Shape(2, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0,), [0, 1]),))
    constant_shift_tables(monkeypatch, 1)
    with pytest.raises(ConstructionError, match=r"no filling witness at base point \(\(0, 0\),\)$"):
        dense_columns(v, direction=1)


def test_dense_columns_rechecks_the_row_pass(monkeypatch):
    # x_0[1] = 0; the base inside the slice is {x_0[1] = 0}, ranks 0 and 2,
    # and a row pass that gives every base the offset of rank 1, outside
    # the base, is caught by the search
    sh = Shape(2, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0,), [0, 1]),))
    skip_zero_offset_precheck(monkeypatch)
    monkeypatch.setattr(
        variety, "_row_offsets", lambda shape, bases, allowed: np.ones_like(bases)
    )
    with pytest.raises(ConstructionError, match="witness corner escaped the allowed set"):
        dense_columns(v, direction=1)


def test_dense_columns_deterministic():
    v = dot_variety(2, 2)
    assert dense_columns(v, direction=1) == dense_columns(v, direction=1)


# ---------------------------------------------------------------------------
# The finder
# ---------------------------------------------------------------------------

def test_base_case_subspace():
    v = subspace_variety(rref([(1, 1, 0), (0, 0, 1)], 2, width=3), 2, 3)
    assert density(v) == Fraction(1, 2)
    cert = find_subvariety(v)
    assert cert.output_codim == 1
    assert np.array_equal(variety_bitmap(cert.output), variety_bitmap(v))
    assert verify_certificate(v, cert).all_ok


def test_full_space_any_arity():
    for dims in [(3,), (2, 2), (2, 1, 2)]:
        v = Variety.full(Shape(2, dims))
        cert = find_subvariety(v)
        assert cert.output_codim == 0
        assert density(cert.output) == 1


def _base_case_inputs():
    rng = random.Random(33)
    for p in (2, 3, 5):
        for k in range(1, 6):
            sh = Shape(p, small_dims(rng, k, {2: 8, 3: 5, 5: 5}[p]))
            zero = MultilinearForm(sh, tuple(range(k)), np.zeros(sh.dims, dtype=int))
            yield "full", Variety.full(sh)
            yield "full", Variety(sh, (zero,))
            yield "forms", random_variety(rng, sh, rng.randrange(1, 3), full_support_only=True)


def test_density_one_is_a_base_case_at_every_arity():
    for kind, v in _base_case_inputs():
        cert = find_subvariety(v)
        assert verify_certificate(v, cert).all_ok
        if kind == "full":
            assert cert.input_density == 1
            assert cert.output == Variety.full(v.shape)
            assert cert.output_codim == 0
            assert cert.budget == codim_budget(v.shape.k, v.shape.p, Fraction(1))
            assert cert.ledger.children == ()
        records = ledger_paths(cert.ledger)
        leaves = [path for path, node in records if node.c == 1]
        for path, node in records:
            if node.c == 1:
                assert node.codim_contribution == 0
                assert not node.slices
            # a density-1 node is a leaf: no node lies below it
            assert not any(path != leaf and (not leaf or path.startswith(leaf + "/")) for leaf in leaves)


def test_dot_variety_certificate():
    v = dot_variety(2, 2)
    cert = find_subvariety(v)
    check = verify_certificate(v, cert)
    assert check.all_ok
    assert cert.output_codim <= codim_budget(2, 2, density(v))
    out_mask = variety_bitmap(cert.output)
    v_mask = variety_bitmap(v)
    assert not np.any(out_mask & ~v_mask)
    assert out_mask.any()


def test_finder_rejects_empty():
    sh = Shape(2, (1, 1))
    with pytest.raises(EmptyVarietyError):
        find_subvariety(Variety.empty(sh))


def test_finder_deterministic_certificates():
    rng = random.Random(9)
    sh = Shape(2, (2, 2, 2))
    v = random_variety(rng, sh, 2)
    c1 = find_subvariety(v)
    c2 = find_subvariety(v)
    assert certificate_to_obj(c1) == certificate_to_obj(c2)


def test_ledger_records_levels():
    v = dot_variety(2, 2)
    cert = find_subvariety(v)
    root = cert.ledger
    assert root.arity == 2
    assert root.c == Fraction(5, 8)
    assert monomial_value(root.constants.c_prime) == Fraction(25, 2048)
    assert [path for path, _ in ledger_paths(root)] == ["", "0", "1"]
    assert [child.arity for child in root.children] == [1, 1]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_finder_invariants_random_k2(seed):
    rng = random.Random(seed)
    sh = Shape(2, small_dims(rng, 2, 6))
    v = random_variety(rng, sh, rng.randrange(3))
    cert = find_subvariety(v)
    check = verify_certificate(v, cert)
    assert check.all_ok
    for point in bitmap_points(cert.output):
        assert membership(v, point)


@pytest.mark.parametrize("p, dims", [(3, (2, 2, 2, 2)), (2, (2, 2, 2, 2, 2))])
def test_finder_at_arity_4_and_5(p, dims):
    v = random_variety(random.Random(5), Shape(p, dims), 2, full_support_only=True)
    cert = find_subvariety(v)
    assert verify_certificate(v, cert).all_ok
    root = cert.ledger.constants
    k = len(dims) - 1
    big_k = arity_constant(k)
    assert (root.c_prime.p_exp, root.c_prime.c_exp) == (-2 * k * big_k, k * big_k + 1)
    # at desk scale c'' is clamped to one point of the largest factor
    assert root.clamped
    assert root.c_double_prime == Monomial(p, cert.ledger.c, p_exp=-max(dims))
    assert root.s == ceil_log(p, 2 * p ** (max(dims) * len(dims)))


def test_ledger_constants_satisfy_their_relations():
    rng = random.Random(31)
    sh = Shape(2, (3, 2))
    v = random_variety(rng, sh, 2)
    cert = find_subvariety(v)
    root = cert.ledger
    constants = root.constants
    c = root.c
    k_lower = root.arity - 1
    big_k = arity_constant(k_lower)
    expected_cp = (
        Fraction(1, 2 ** (2 * k_lower + 1) * sh.p ** (2 * k_lower * big_k))
        * c ** (k_lower * big_k + 1)
    )
    assert monomial_value(constants.c_prime) == expected_cp
    eps = monomial_value(constants.epsilon)
    assert eps == monomial_value(constants.c_double_prime) ** root.arity / 2
    assert constants.s == ceil_log(sh.p, 1 / eps)
    assert root.codim_contribution == cert.output_codim


def test_dense_columns_picks_first_qualifying_slice():
    # replay the scan by hand: the chosen index must be the first one meeting
    # both the half-density and the sparse-fiber conditions
    rng = random.Random(77)
    sh = Shape(2, (3, 3))
    v = random_variety(rng, sh, 1)
    res = dense_columns(v, direction=1)
    mask = variety_bitmap(v)
    c = density(v)
    fibers = mask.sum(axis=1)
    pd = sh.group_sizes[1]
    other = sh.total_points // pd
    import math as _math

    big_k = arity_constant(1)
    c_prime = Fraction(1, 2**3 * sh.p ** (2 * big_k)) * c ** (big_k + 1)
    sparse = fibers <= _math.floor(c_prime * pd)
    first = None
    for t in range(pd):
        u = mask[:, t]
        if Fraction(int(u.sum()), other) < c / 2:
            continue
        if Fraction(int((u & sparse).sum()), other) > 2 * c_prime / c:
            continue
        first = t
        break
    from mlvariety.field import vector_index

    assert first is not None
    assert vector_index(sh.p, res.slice_point) == first


def test_end_to_end_mod3():
    rng = random.Random(12)
    sh = Shape(3, (2, 2))
    v = random_variety(rng, sh, 1)
    cert = find_subvariety(v)
    assert verify_certificate(v, cert).all_ok


def test_planted_product_codim_matches_plant():
    rng = random.Random(21)
    sh = Shape(2, (3, 3))
    v, c = planted_product_variety(rng, sh, (1, 2))
    assert density(v) == c == Fraction(1, 8)
    cert = find_subvariety(v)
    assert cert.output_codim == 3
    assert verify_certificate(v, cert).all_ok


# ---------------------------------------------------------------------------
# Verification flags and negative controls
# ---------------------------------------------------------------------------

def test_verify_tampered_output_fails_containment():
    v = dot_variety(2, 2)
    cert = find_subvariety(v)
    tampered = dataclasses.replace(cert, output=Variety.full(v.shape))
    check = verify_certificate(v, tampered)
    assert not check.containment_ok
    assert not check.all_ok


def test_verify_tampered_codim_fails_budget_flag():
    v = dot_variety(2, 2)
    cert = find_subvariety(v)
    tampered = dataclasses.replace(cert, output_codim=cert.budget + 1)
    check = verify_certificate(v, tampered)
    assert not check.codim_ok


def test_verify_wrong_shape_all_false():
    v = dot_variety(2, 2)
    cert = find_subvariety(v)
    other = Variety.full(Shape(2, (1, 1)))
    check = verify_certificate(other, cert)
    assert not (check.containment_ok or check.nonempty_ok or check.codim_ok)


def test_forced_epsilon_overshoot_diagnostic(monkeypatch):
    v = dot_variety(2, 2)
    approximate_with_no_functionals(monkeypatch)
    with pytest.raises(ApproxMismatchError) as exc:
        find_subvariety(v)
    err = exc.value
    assert err.extra_count == 6  # |G| - |V| = 16 - 10
    assert err.extra_count >= err.extra_floor
    assert str(err) == "approximation strictly exceeds its target by 6 points"


@pytest.mark.parametrize("p, dims, full", [(2, (4, 4), True), (3, (2, 2, 1), False)])
def test_find_subvariety_evaluates_each_form_once(monkeypatch, p, dims, full):
    # the fiber rows of each form are built once per shape and fiber factor,
    # the finder reads the input's canonical forms in every factor, and the
    # scope that shares them closes with the call
    v = random_variety(random.Random(21), Shape(p, dims), 2, full_support_only=full)
    seen = collections.Counter()
    original = construct.fiber_values

    def counting(forms_, j, others):
        seen.update((f.shape, f.key(), j) for f in forms_)
        return original(forms_, j, others)

    monkeypatch.setattr(construct, "fiber_values", counting)
    find_subvariety(v)
    assert seen and max(seen.values()) == 1
    canon = v.canonical().forms
    assert canon and all(seen[(v.shape, f.key(), j)] == 1
                         for f in canon for j in range(v.shape.k))
    assert construct._SCOPE.get() is None


@pytest.mark.parametrize("p, dims, builds, parent_builds", [
    (2, (10, 10), 2, 4),
    (3, (4, 3, 3), 3, 6),
])
def test_find_subvariety_builds_each_system_once(monkeypatch, p, dims, builds, parent_builds):
    # the target and the source restate the input's canonical list, so they
    # read its system; parent_builds is the count when each level rebuilt
    # the system of every restatement in its raw order
    v = random_variety(random.Random(0), Shape(p, dims), 2, full_support_only=True)
    calls = []
    original = construct._Fibers._extend

    def counting(self, system, forms_):
        calls.append(forms_)
        return original(self, system, forms_)

    monkeypatch.setattr(construct._Fibers, "_extend", counting)
    find_subvariety(v)
    assert len(calls) == builds < parent_builds


@pytest.mark.parametrize("make, canonicals, parent_canonicals", [
    *[(lambda seed=seed: random_variety(random.Random(seed), Shape(2, (10, 10)), 2,
                                        full_support_only=True), 2, 4) for seed in range(4)],
    (lambda: Variety(Shape(3, (2, 2, 2)),
                     planted_cylinder(random.Random(0), Shape(3, (2, 2, 2)), 4, 1)), 2, 5),
    # the golden (2,(1,1,1,1,1)) input, whose sub-levels keep forms
    (lambda: random_variety(random.Random(18), Shape(2, (1,) * 5), 1), 12, 29),
])
def test_each_level_echelonizes_only_its_input_and_output(monkeypatch, make, canonicals,
                                                          parent_canonicals):
    # every level reads its input's canonical list once, and a level above
    # the leaf echelonizes its candidate too, reading the cylinder forms off
    # it.  canonicals counts the reads of lists with a nonzero form; the
    # other reads, of density-1 levels, drop every form and run no
    # elimination.  parent_canonicals counts every read when a level also
    # echelonized the cylinder forms and the target
    v = make()
    calls, eliminations, levels = [], [], []
    original, original_rref, original_solve = Variety.canonical, field.rref, construct._solve

    def counting(self):
        calls.append(self)
        return original(self)

    def counting_rref(*args, **kwargs):
        eliminations.append(args)
        return original_rref(*args, **kwargs)

    def solving(u):
        cert = original_solve(u)
        levels.append(bool(cert.ledger.slices))
        return cert

    monkeypatch.setattr(Variety, "canonical", counting)
    for module in (field, forms, variety):
        monkeypatch.setattr(module, "rref", counting_rref)
    monkeypatch.setattr(construct, "_solve", solving)
    find_subvariety(v)
    assert len(calls) == len(levels) + sum(levels) < parent_canonicals
    families = [{f.support for f in u.forms if not f.is_zero()} for u in calls]
    assert sum(map(bool, families)) == canonicals
    # field.rref runs once per same-support family of those lists, so the
    # all-zero reads add none
    assert len(eliminations) == sum(map(len, families))


def test_a_leaf_refuses_a_canonical_list_with_another_zero_set(monkeypatch):
    # a canonical list that drops every form reads as density 1: the leaf's
    # count of the raw list refuses it
    v = random_variety(random.Random(0), Shape(2, (3, 3)), 2, full_support_only=True)
    assert density(v) < 1
    monkeypatch.setattr(Variety, "canonical", lambda self: Variety(self.shape))
    with pytest.raises(ConstructionError, match="echelonized defining forms changed the zero set"):
        find_subvariety(v)


def _span_restatements(rng, v):
    """v's canonical list, its forms in reverse order, and each same-support
    family replaced by a random invertible recombination of it with one
    recombined form listed twice: three more lists with v's per-support
    spans."""
    p = v.shape.p
    families = {}
    for f in v.forms:
        families.setdefault(f.support, []).append(f.coeffs)
    mixed = []
    for support, family in families.items():
        while True:
            a = [[rng.randrange(p) for _ in family] for _ in family]
            if brute_rank_mod(a, p) == len(family):
                break
        coeffs = np.tensordot(np.array(a), np.array(family), axes=1) % p
        recombined = [MultilinearForm(v.shape, support, c) for c in coeffs]
        mixed += recombined + recombined[:1]
    return [v.canonical(), Variety(v.shape, v.forms[::-1]), Variety(v.shape, mixed)]


def _span_battery(p, seed):
    """Random-support, full-support, planted-cylinder and coordinate-product
    varieties over arity 1 to 4."""
    rng = random.Random(f"spans/{p}/{seed}")
    for k in (1, 2, 3, 4):
        dims = small_dims(rng, k, 5)
        while Shape(p, dims).total_points > max(250, p**k):
            dims = tuple(max(n - 1, 1) for n in dims)
        shape = Shape(p, dims)
        yield rng, random_variety(rng, shape, rng.randint(1, 3))
        yield rng, random_variety(rng, shape, rng.randint(1, 3), full_support_only=True)
        if k >= 2:
            yield rng, Variety(shape, planted_cylinder(rng, shape, 2, 1))
        if k == 2:
            yield rng, Variety(shape, coordinate_products(shape, 1))


def _find_outcome(v):
    try:
        cert = find_subvariety(v)
    except ConstructionError as exc:
        return type(exc).__name__, str(exc)
    if cert.ledger.slices:
        # the cylinder forms are read off the output: its forms without full support
        full = tuple(range(v.shape.k))
        assert cert.ledger.cylinder_forms == sum(f.support != full for f in cert.output.forms)
    return certificate_to_obj(cert)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("memo", [True, False])
def test_certificate_depends_only_on_the_per_support_spans(monkeypatch, p, seed, memo):
    if not memo:
        miss_every_memo_lookup(monkeypatch)
    for rng, v in _span_battery(p, seed):
        outcome = _find_outcome(v)
        for other in _span_restatements(rng, v):
            assert _find_outcome(other) == outcome


def test_bitmaps_are_built_afresh_after_the_finder_returns(monkeypatch):
    v = random_variety(random.Random(21), Shape(2, (4, 4)), 2, full_support_only=True)
    passes = count_bitmap_passes(monkeypatch)
    find_subvariety(v)
    built = len(passes)
    mask = variety_bitmap(v)
    assert passes[built:] == [v.shape.total_points]
    assert mask.flags.writeable


def _int64_fiber_reference(v, res):
    """min_fiber_count and bad_count of dense_columns in direction 0, from
    fiber counts summed in int64."""
    vmask = variety_bitmap(v)
    size, other = vmask.shape[0], vmask[0].size
    counts = vmask.sum(axis=0, dtype=np.int64)
    c = density(v)
    c_prime = monomial_value(_fiber_constants(v.shape.p, c, v.shape.k)[0])
    sparse = counts <= math.floor(c_prime * size)
    for t in range(size):
        if Fraction(int(np.count_nonzero(vmask[t])), other) >= c / 2:
            bad = int(np.count_nonzero(vmask[t] & sparse))
            if bad <= math.floor(c_prime * (2 * other / c)):
                break
    assert vector_from_index(v.shape.p, v.shape.dims[0], t) == res.slice_point
    return int(counts[variety_bitmap(res.base_certificate.output)].min()), bad


@pytest.mark.parametrize("p, dims", [(2, (8, 1)), (3, (5, 1))])
@pytest.mark.parametrize("full", [True, False])
def test_fiber_counts_at_the_narrow_type_boundary(p, dims, full):
    # 2**8 = 256 needs uint16, 3**5 = 243 fits in uint8
    sh = Shape(p, dims)
    v = Variety.full(sh) if full else random_variety(random.Random(62), sh, 2)
    assert density(v) > 0
    res = dense_columns(v, direction=0)
    assert (res.min_fiber_count, res.bad_count) == _int64_fiber_reference(v, res)
    if full:
        assert res.min_fiber_count == p ** dims[0]


@pytest.mark.parametrize("p, dims", [(2, (4, 4)), (3, (2, 2, 1))])
def test_finder_reads_base_codims_from_certificates(monkeypatch, p, dims):
    v = random_variety(random.Random(23), Shape(p, dims), 2)

    def no_codim(self):
        raise AssertionError("a base variety was canonicalized again")

    # every base codimension is already in its certificate's output_codim
    monkeypatch.setattr(Variety, "codim", property(no_codim))
    cert = find_subvariety(v)
    assert verify_certificate(v, cert).all_ok


def test_grid_scope_closes_when_the_finder_raises(monkeypatch):
    # the finder's fiber scope closes on a raise
    approximate_with_no_functionals(monkeypatch)
    with pytest.raises(ApproxMismatchError):
        find_subvariety(dot_variety(2, 2))
    assert construct._SCOPE.get() is None


def test_memo_scope_closes_on_return_and_on_raise(monkeypatch):
    find_subvariety(dot_variety(2, 2))
    assert construct._SCOPE.get() is None
    approximate_with_no_functionals(monkeypatch)
    with pytest.raises(ApproxMismatchError):
        find_subvariety(dot_variety(2, 2))
    assert construct._SCOPE.get() is None


def test_finder_scope_belongs_to_the_calling_thread(monkeypatch):
    # while one thread's find is paused inside the finder, a second thread
    # sees no scope, and its own find returns what a lone call returns
    v = random_variety(random.Random(21), Shape(2, (4, 4)), 2, full_support_only=True)
    w = dot_variety(2, 2)
    lone_v, lone_w = find_subvariety(v), find_subvariety(w)
    paused, resume = threading.Event(), threading.Event()
    seen, results = [], []
    original = construct._solve

    def pausing(u):
        if not seen and threading.current_thread() is not threading.main_thread():
            seen.append(construct._SCOPE.get())
            paused.set()
            assert resume.wait(timeout=60)
        return original(u)

    monkeypatch.setattr(construct, "_solve", pausing)
    worker = threading.Thread(target=lambda: results.append(find_subvariety(v)))
    worker.start()
    try:
        assert paused.wait(timeout=60)
        assert construct._SCOPE.get() is None
        assert find_subvariety(w) == lone_w
        assert construct._SCOPE.get() is None
        assert construct._variety_key(w) not in seen[0][0]
    finally:
        resume.set()
        worker.join(timeout=60)
    assert results == [lone_v]


def test_back_to_back_finder_calls_charge_alike():
    v = random_variety(random.Random(24), Shape(2, (2, 1, 2)), 2)
    budget.reset_work()
    first = find_subvariety(v)
    once = budget.work_points()
    assert find_subvariety(v) == first
    assert budget.work_points() == 2 * once


def test_memo_does_not_outlive_the_call(monkeypatch):
    v = random_variety(random.Random(25), Shape(3, (2, 1, 1)), 2)
    passes = []
    original = budget.ensure

    def recording(points, what):
        passes.append(points)
        original(points, what)

    monkeypatch.setattr(budget, "ensure", recording)
    find_subvariety(v)
    budget.set_point_budget(max(passes) - 1)
    with pytest.raises(budget.BudgetExceededError):
        find_subvariety(v)


def _finder_outcome(v):
    budget.reset_work()
    cert = construct.find_subvariety(v)
    return cert.output, certificate_to_obj(cert), budget.work_points()


def _count_calls(monkeypatch, *names):
    counts = collections.Counter()
    for name in names:
        original = getattr(construct, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(construct, name, counting)
    return counts


def _memo_oracle_inputs():
    rng = random.Random(26)
    for k in range(2, 6):
        for p in (2, 3):
            for _ in range(2):
                dims = small_dims(rng, k, k + 2 if p == 2 else k + 1)
                yield random_variety(rng, Shape(p, dims), rng.randrange(1, 4))
    # the form on factor 2 alone slices to a zero constant and is dropped
    sh = Shape(3, (2, 1, 1))
    yield Variety(sh, (
        MultilinearForm(sh, (0, 1, 2), np.ones((2, 1, 1), dtype=int)),
        MultilinearForm(sh, (2,), np.array([1])),
    ))


def test_memo_matches_a_finder_without_it(monkeypatch):
    inputs = list(_memo_oracle_inputs())
    dropped = []
    slicer = construct.slice_variety

    def spying(v, factors, coords):
        out = slicer(v, factors, coords)
        dropped.append(len(out.forms) < len(v.forms))
        return out

    monkeypatch.setattr(construct, "slice_variety", spying)
    counts = _count_calls(monkeypatch, "find_subvariety", "_solve")
    memoized = []
    for v in inputs:
        counts.clear()
        memoized.append((_finder_outcome(v), counts["_solve"] < counts["find_subvariety"]))
    assert any(dropped) and any(hit for _, hit in memoized)
    monkeypatch.undo()
    miss_every_memo_lookup(monkeypatch)
    fewer = []
    for v, ((output, obj, points), hit) in zip(inputs, memoized):
        again_output, again_obj, again_points = _finder_outcome(v)
        assert again_output == output
        assert again_obj == obj
        # without the memo a repeated sub-problem runs its scans again, but
        # every grid and bitmap it reads is already in the scope, so a
        # repeated arity-1 sub-problem charges nothing
        assert points <= again_points if hit else points == again_points
        fewer.append(points < again_points)
    assert any(fewer)


def test_memo_keeps_the_largest_pass(monkeypatch):
    # a hit runs no pass, and every pass it skips already ran once, so a
    # finder with and without the memo refuse at exactly the same budgets
    largest = []
    original = budget.ensure

    def recording(points, what):
        largest[-1] = max(largest[-1], points)
        original(points, what)

    monkeypatch.setattr(budget, "ensure", recording)
    inputs = list(_memo_oracle_inputs())
    for v in inputs:
        largest.append(0)
        find_subvariety(v)
    memoized = list(largest)
    largest.clear()
    miss_every_memo_lookup(monkeypatch)
    for v in inputs:
        largest.append(0)
        find_subvariety(v)
    assert largest == memoized


@pytest.mark.parametrize("p, dims", [(2, (10, 10)), (3, (4, 3, 3)), (3, (2, 2, 2, 2))])
def test_finder_output_does_not_depend_on_the_ledger_memos(p, dims):
    # the same certificate and charge with every ledger memo cleared and
    # with the memos warmed by other instances of the shape, which the
    # warmed find then hits more often; the writer reads the memos too, so
    # only the find's hits are counted
    sh = Shape(p, dims)
    v = random_variety(random.Random(27), sh, 2, full_support_only=True)
    outcomes, hits = [], []
    for warm in (False, True):
        _clear_ledger_memos()
        if warm:
            for seed in range(3):
                find_subvariety(random_variety(random.Random(seed), sh, 2, full_support_only=True))
        before = _ledger_memo_hits()
        budget.reset_work()
        cert = find_subvariety(v)
        hits.append(_ledger_memo_hits() - before)
        outcomes.append((json.dumps(certificate_to_obj(cert)), budget.work_points()))
    assert hits[1] > hits[0]
    assert outcomes[0] == outcomes[1]


def test_factorial_recursion_solves_each_sub_problem_once(monkeypatch):
    v = random_variety(random.Random(0), Shape(2, (1,) * 7), 1, full_support_only=True)
    counts = _count_calls(monkeypatch, "_solve", "dense_columns")
    budget.reset_work()
    cert = find_subvariety(v)
    # every slice at t = 0 zeroes the form, so each arity-6 sub-problem is
    # the full group, one base case shared by the seven directions
    assert counts == {"_solve": 2, "dense_columns": 7}
    # 448 fiber-row entries, 2,688 filling points, 67 value-image codes and
    # cells and one live scan step at the top level, which sums p terms into
    # each of m * p**(m+1) = 4 cells for its one form; each base is the full
    # group, whose fiber system is built before any row, so it costs nothing
    assert budget.work_points() == 448 + 2688 + 67 + 8
    assert len(ledger_paths(cert.ledger)) == 8
    # the top level and the one full-group leaf its seven directions share
    assert len(certificate_to_obj(cert)["ledger"]) == 2
    again = certificate_from_obj(certificate_to_obj(cert))
    assert again.ledger == cert.ledger
    assert verify_certificate(v, again).all_ok


def test_memo_solves_repeated_sub_problems_with_forms_once(monkeypatch):
    # the golden (2,(1,1,1,1,1)) input: its sub-problems keep forms below the
    # top, and many paths slice down to the same ones
    v = random_variety(random.Random(18), Shape(2, (1,) * 5), 1)
    counts = _count_calls(monkeypatch, "_solve")
    distinct = set()
    finder = construct.find_subvariety

    def keying(w):
        distinct.add(construct._variety_key(w))
        return finder(w)

    monkeypatch.setattr(construct, "find_subvariety", keying)
    cert = construct.find_subvariety(v)
    paths = ledger_paths(cert.ledger)
    assert counts["_solve"] == len(distinct) == 10 < len(paths) == 48
    assert sum(node.c < 1 for _, node in paths) == 16
    assert len(certificate_to_obj(cert)["ledger"]) <= 10
    assert verify_certificate(v, cert).all_ok


def test_certificate_writes_each_distinct_sub_problem_once(monkeypatch):
    # a deep arity-9 instance whose 31 distinct sub-problems lie on 7,828
    # paths: the certificate grows with the sub-problems, not the paths
    v = random_variety(random.Random(5), Shape(2, (1,) * 9), 3)
    counts = _count_calls(monkeypatch, "_solve")
    cert = find_subvariety(v)
    obj = certificate_to_obj(cert)
    assert len(obj["ledger"]) <= counts["_solve"] == 31
    assert len(ledger_paths(cert.ledger)) == 7828
    assert len(dumps(obj)) < 64 * 1024
    assert certificate_from_obj(json.loads(dumps(obj))) == cert
    assert verify_certificate(v, cert).all_ok


def _zero_slice_oracle_inputs():
    rng = random.Random(40)
    for p in (2, 3, 5):
        for k in range(2, 6 if p < 5 else 5):
            dims = small_dims(rng, k, k + 2)
            while Shape(p, dims).total_points > 2000:
                dims = tuple(max(n - 1, 1) for n in dims)
            for full in (False, True):
                yield random_variety(rng, Shape(p, dims), rng.randint(1, 3), full_support_only=full)
    # inputs on which a contracting slice misses the memo
    yield random_variety(random.Random(2), Shape(2, (2, 2, 2, 2)), 3)
    yield random_variety(random.Random(2), Shape(2, (1, 1, 2, 1, 2)), 3)


def _charged_outcome(v):
    budget.reset_work()
    try:
        outcome = certificate_to_obj(find_subvariety(v))
    except ConstructionError as exc:
        outcome = type(exc).__name__, str(exc)
    return outcome, budget.work_points()


def test_zero_slice_drops_only_what_a_contracting_slice_keeps_as_zero(monkeypatch):
    # a slice that contracts the forms holding a factor fixed at zero keeps
    # them as zero forms, which every level's canonical list drops: the same
    # certificates, but sub-problems that differ only by zero forms are
    # solved twice, so it never charges less
    inputs = list(_zero_slice_oracle_inputs())
    dropping = [_charged_outcome(v) for v in inputs]
    kept = slice_by_contracting(monkeypatch)
    lower = []
    for v, (outcome, points) in zip(inputs, dropping):
        again, again_points = _charged_outcome(v)
        assert again == outcome
        assert points <= again_points
        lower.append(points < again_points)
    assert any(contracted > dropped for contracted, dropped in kept)
    assert any(lower)


def test_base_case_random_subspaces():
    rng = random.Random(4)
    for _ in range(10):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 6)
        d = rng.randrange(0, n + 1)
        v = subspace_variety(random_subspace(rng, p, n, d), p, n)
        c = density(v)
        assert c == Fraction(1, p ** (n - d))
        cert = find_subvariety(v)
        assert cert.output_codim == n - d == ceil_log(p, 1 / c)
        assert np.array_equal(variety_bitmap(cert.output), variety_bitmap(v))
