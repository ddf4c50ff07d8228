import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety import forms
from mlvariety.construct import (
    arity_constant,
    budget_line,
    codim_budget,
    dense_columns,
    external_approx,
    find_subvariety,
    verify_certificate,
)
from mlvariety.errors import (
    ApproxMismatchError,
    ConstructionError,
    EmptyVarietyError,
    PreconditionError,
)
from mlvariety.field import annihilator, echelonize
from mlvariety.forms import MultilinearForm, MultilinearMap, Shape, ceil_log
from mlvariety.generators import (
    planted_product_variety,
    random_map,
    random_subspace,
    random_variety,
)
from mlvariety.jsonio import certificate_to_obj
from mlvariety.variety import Variety, density, membership, variety_bitmap, variety_points

from helpers import (
    brute_eval,
    constant_shift_tables,
    count_grid_evaluations,
    enumerate_points,
    small_dims,
)


def dot_variety(p, n):
    sh = Shape(p, (n, n))
    return Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(n, dtype=int)),))


def subspace_variety(sub):
    sh = Shape(sub.p, (sub.ambient_dim,))
    forms = [
        MultilinearForm(sh, (0,), np.array(row))
        for row in annihilator(sub).basis
    ]
    return Variety(sh, forms)


# ---------------------------------------------------------------------------
# Budget line
# ---------------------------------------------------------------------------

def test_budget_line_base():
    assert budget_line(1) == (1, 0)
    assert arity_constant(1) == 1


def test_budget_line_arity_two_frozen():
    # unwinding the tracked recursion by hand for arity 2 gives 16 L + 29
    assert budget_line(2) == (16, 29)
    assert arity_constant(2) == 45


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


# ---------------------------------------------------------------------------
# Dense fibers
# ---------------------------------------------------------------------------

def test_dense_columns_full_space():
    sh = Shape(2, (2, 2))
    res = dense_columns(Variety.full(sh))
    assert res.slice_point == (0, 0)
    assert res.base.codim == 0
    assert res.min_fiber_density == 1
    assert res.bad_count == 0


def test_dense_columns_dot_variety():
    v = dot_variety(2, 2)
    res = dense_columns(v)
    # every base point's fiber meets the certified floor, re-measured here
    mask = variety_bitmap(v)
    fibers = mask.sum(axis=res.direction)
    base_mask = variety_bitmap(res.base)
    assert int(fibers[base_mask].min()) == res.min_fiber_count
    assert res.min_fiber_count >= res.fiber_floor_count
    assert res.clamped  # thresholds fall below one point at this scale


def test_dense_columns_direction_zero():
    v = dot_variety(2, 2)
    res = dense_columns(v, direction=0)
    assert res.direction == 0
    assert res.base.shape.dims == (2,)


def test_dense_columns_needs_nonempty():
    sh = Shape(2, (1, 1))
    with pytest.raises(EmptyVarietyError):
        dense_columns(Variety.empty(sh))


def test_dense_columns_names_the_first_base_point_without_a_witness(monkeypatch):
    # x_0[1] = 0; the base inside the slice is {x_0[1] = 0}, ranks 0 and 2,
    # and every translation the search uses lands on rank 1, outside it
    sh = Shape(2, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0,), [0, 1]),))
    constant_shift_tables(monkeypatch, 1)
    with pytest.raises(ConstructionError, match=r"no filling witness at base point \(\(0, 0\),\)$"):
        dense_columns(v, direction=1)


def test_dense_columns_deterministic():
    v = dot_variety(2, 2)
    assert dense_columns(v) == dense_columns(v)


# ---------------------------------------------------------------------------
# The finder
# ---------------------------------------------------------------------------

def test_base_case_subspace():
    sub = echelonize([(1, 1, 0), (0, 0, 1)], p=2, ambient_dim=3)
    v = subspace_variety(sub)
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
    root = cert.ledger[0]
    assert root["arity"] == 2
    assert root["c"] == Fraction(5, 8)
    assert root["c_prime"] == Fraction(25, 2048)
    assert root["epsilon"] is not None
    child_paths = {r["path"] for r in cert.ledger[1:]}
    assert child_paths == {"0", "1"}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_finder_invariants_random_k2(seed):
    rng = random.Random(seed)
    sh = Shape(2, small_dims(rng, 2, 6))
    v = random_variety(rng, sh, rng.randrange(3))
    cert = find_subvariety(v)
    check = verify_certificate(v, cert)
    assert check.all_ok
    for point in variety_points(cert.output):
        assert membership(v, point)


def test_ledger_constants_satisfy_their_relations():
    rng = random.Random(31)
    sh = Shape(2, (3, 2))
    v = random_variety(rng, sh, 2)
    cert = find_subvariety(v)
    root = cert.ledger[0]
    c = root["c"]
    k_lower = root["arity"] - 1
    big_k = arity_constant(k_lower)
    expected_cp = (
        Fraction(1, 2 ** (2 * k_lower + 1) * sh.p ** (2 * k_lower * big_k))
        * c ** (k_lower * big_k + 1)
    )
    assert root["c_prime"] == expected_cp
    assert root["epsilon"] == root["c_double_prime"] ** root["arity"] / 2
    assert root["s"] == ceil_log(sh.p, 1 / root["epsilon"])
    assert root["codim_contribution"] == cert.output_codim


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

    sparse = fibers <= _math.floor(res.c_prime * pd)
    first = None
    for t in range(pd):
        u = mask[:, t]
        if Fraction(int(u.sum()), other) < c / 2:
            continue
        if Fraction(int((u & sparse).sum()), other) > 2 * res.c_prime / c:
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


def test_forced_epsilon_overshoot_diagnostic():
    v = dot_variety(2, 2)
    with pytest.raises(ApproxMismatchError) as exc:
        find_subvariety(v, epsilon_override=Fraction(1))
    err = exc.value
    assert err.extra_count == 6  # |G| - |V| = 16 - 10
    assert err.extra_count >= err.extra_floor
    assert err.point is not None


@pytest.mark.parametrize("p, dims, full", [(2, (4, 4), True), (3, (2, 2, 1), False)])
def test_find_subvariety_evaluates_each_form_once(monkeypatch, p, dims, full):
    v = random_variety(random.Random(21), Shape(p, dims), 2, full_support_only=full)
    seen = count_grid_evaluations(monkeypatch)
    cert = find_subvariety(v)
    assert seen and max(seen.values()) == 1
    assert forms._GRIDS.get() is None
    # the verifier runs outside the scope: every form it needs is evaluated again
    seen.clear()
    assert verify_certificate(v, cert).all_ok
    assert set(seen) == {(f.shape, f.key()) for f in v.forms + cert.output.forms}


@pytest.mark.parametrize("p, dims, full", [(2, (4, 4), True), (3, (2, 2, 1), False)])
def test_verifier_evaluates_each_form_once_per_occurrence(monkeypatch, p, dims, full):
    v = random_variety(random.Random(22), Shape(p, dims), 2, full_support_only=full)
    cert = find_subvariety(v)
    seen = count_grid_evaluations(monkeypatch)
    assert verify_certificate(v, cert).all_ok
    assert seen == collections.Counter(
        (f.shape, f.key()) for f in v.forms + cert.output.forms
    )


@pytest.mark.parametrize("p, dims", [(2, (4, 4)), (3, (2, 2, 1))])
def test_finder_reads_base_codims_from_certificates(monkeypatch, p, dims):
    v = random_variety(random.Random(23), Shape(p, dims), 2)

    def no_codim(self):
        raise AssertionError("a base variety was canonicalized again")

    # every base codimension is already in its certificate's output_codim
    monkeypatch.setattr(Variety, "codim", property(no_codim))
    cert = find_subvariety(v)
    assert verify_certificate(v, cert).all_ok


def test_grid_scope_closes_when_the_finder_raises():
    with pytest.raises(ApproxMismatchError):
        find_subvariety(dot_variety(2, 2), epsilon_override=Fraction(1))
    assert forms._GRIDS.get() is None


def test_base_case_random_subspaces():
    rng = random.Random(4)
    for _ in range(10):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 6)
        d = rng.randrange(0, n + 1)
        sub = random_subspace(rng, p, n, d)
        v = subspace_variety(sub)
        c = density(v)
        assert c == Fraction(1, p ** (n - d))
        cert = find_subvariety(v)
        assert cert.output_codim == n - d == ceil_log(p, 1 / c)
        assert np.array_equal(variety_bitmap(cert.output), variety_bitmap(v))
