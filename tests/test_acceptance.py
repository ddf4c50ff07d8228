"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion with its instance count and elapsed time.
"""

import dataclasses
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mlvariety.construct import external_approx, find_subvariety
from mlvariety.errors import ApproxMismatchError, PreconditionError
from mlvariety.forms import (
    MultilinearForm,
    Shape,
    bias,
    ceil_log,
    prank_lower_bound,
)
from mlvariety.fibers import density, verify_certificate, zero_fiber_identity_check
from mlvariety.generators import (
    planted_low_prank_form,
    planted_product_variety,
    random_form,
    random_map,
    random_point_subset,
    random_subspace,
    random_support,
    random_variety,
)
from mlvariety.ledger import codim_budget
from mlvariety.variety import (
    PointSet,
    Variety,
    conv_fill_check,
    variety_bitmap,
)

from helpers import (
    annihilator,
    approximate_with_no_functionals,
    brute_rank_mod,
    searched_rank,
    small_dims,
)


def _report(name: str, count: int, started: float) -> None:
    print(f"PASS {name}: {count} instances in {time.perf_counter() - started:.2f}s")


def test_acceptance_zero_fiber_identity():
    started = time.perf_counter()
    for i in range(500):
        rng = random.Random(0xA11CE + i)
        p = (2, 3)[rng.randrange(2)]
        k = (2, 3)[rng.randrange(2)]
        sh = Shape(p, small_dims(rng, k, 8))
        support = tuple(range(k)) if rng.randrange(2) else random_support(rng, k)
        form = random_form(rng, sh, support)
        report = zero_fiber_identity_check(form, bias(form))
        assert report.holds, (form, report)
        assert report.expected == report.zero_fiber_count
    _report("bias/zero-fiber identity", 500, started)


def test_acceptance_prank_bias_inequality():
    started = time.perf_counter()
    for i in range(200):
        rng = random.Random(0xB0B + i)
        p = (2, 3)[rng.randrange(2)]
        k = (2, 3)[rng.randrange(2)]
        sh = Shape(p, small_dims(rng, k, 6))
        planted = 1 + rng.randrange(3)
        form = planted_low_prank_form(rng, sh, planted)
        assert bias(form) >= Fraction(1, p**planted)
        assert prank_lower_bound(bias(form), form.shape.p) <= planted
    _report("prank/bias inequality", 200, started)


def test_acceptance_bilinear_prank_oracle():
    started = time.perf_counter()
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for i in range(100):
        rng = random.Random(0xCAFE + i)
        sh = Shape(2, shapes[rng.randrange(len(shapes))])
        form = random_form(rng, sh)
        exhaustive, points = searched_rank(form)
        assert (points > 0) == (not form.is_zero())
        assert isinstance(exhaustive, int)
        assert brute_rank_mod(form.coeffs.tolist(), 2) == exhaustive
    _report("bilinear prank oracle", 100, started)


def test_acceptance_external_approximation():
    started = time.perf_counter()
    for i in range(100):
        rng = random.Random(0xDEED + i)
        p = (2, 3)[rng.randrange(2)]
        k = 1 + rng.randrange(3)
        sh = Shape(p, small_dims(rng, k, 8))
        m = rng.randrange(4)
        s = rng.randrange(4)
        source = random_map(rng, sh, m)
        result = external_approx(source, s)
        assert result.error_count <= result.error_cap
    _report("external approximation", 100, started)


def test_acceptance_filling_witnesses():
    started = time.perf_counter()
    for i in range(100):
        rng = random.Random(0xF111 + i)
        kind = i % 4
        if kind == 0:
            sh = Shape(2, (6,))
            w = random_variety(rng, sh, rng.randrange(3))
        elif kind == 1:
            sh = Shape(2, (3, 3))
            w = random_variety(rng, sh, rng.randrange(2))
        elif kind == 2:
            sh = Shape(2, (2, 2, 2))
            w = Variety.full(sh) if rng.randrange(2) else random_variety(rng, sh, 1)
        else:
            sh = Shape(2, (3, 2))
            w = random_variety(rng, sh, rng.randrange(2))
        mask = variety_bitmap(w)
        cap = Fraction(
            sh.total_points, 2 ** (2 * sh.k) * sh.p ** (sh.k * w.codim)
        )
        allowed = min(int(cap), int(np.count_nonzero(mask)))
        bad = random_point_subset(rng, sh, mask, rng.randrange(allowed + 1))
        report = conv_fill_check(w, bad, mask, w.codim)
        assert report.success, (w, bad.size, report.failures[:3])
        assert report.corners_checked == report.checked * 2**sh.k
    _report("filling witnesses", 100, started)


def test_acceptance_base_case():
    started = time.perf_counter()
    for i in range(50):
        rng = random.Random(0xBA5E + i)
        p = (2, 3)[rng.randrange(2)]
        n = 1 + rng.randrange(6)
        d = rng.randrange(n + 1)
        sub = random_subspace(rng, p, n, d)
        sh = Shape(p, (n,))
        forms = [
            MultilinearForm(sh, (0,), np.array(row))
            for row in annihilator(sub).basis
        ]
        v = Variety(sh, forms)
        c = density(v)
        cert = find_subvariety(v)
        assert cert.output_codim == n - d == ceil_log(p, 1 / c)
        assert np.array_equal(variety_bitmap(cert.output), variety_bitmap(v))
        assert verify_certificate(v, cert).all_ok
    _report("base case (subspaces)", 50, started)


def _end_to_end_dims(rng, k: int) -> tuple[int, ...]:
    dims = []
    left = 10
    cap = 5 if k == 2 else 4
    for i in range(k):
        hi = max(1, min(cap, left - (k - i - 1)))
        n = 1 + rng.randrange(hi)
        dims.append(n)
        left -= n
    return tuple(dims)


def test_acceptance_end_to_end():
    started = time.perf_counter()
    for i in range(50):
        rng = random.Random(0xE2E + i)
        k = (2, 3)[rng.randrange(2)]
        sh = Shape(2, _end_to_end_dims(rng, k))
        if i % 2 == 0:
            codims = tuple(rng.randrange(n + 1) for n in sh.dims)
            v, _ = planted_product_variety(rng, sh, codims)
        else:
            v = random_variety(rng, sh, 1 + rng.randrange(2))
        cert = find_subvariety(v)
        check = verify_certificate(v, cert)
        assert check.containment_ok
        assert check.nonempty_ok
        assert check.codim_ok
        assert cert.output_codim <= codim_budget(sh.k, 2, density(v))
    _report("end-to-end extraction", 50, started)


def test_acceptance_linear_shape_sweep(tmp_path):
    from mlvariety.cli import EXIT_OK, main

    started = time.perf_counter()
    args = [
        "sweep", "--p", "2", "--dims", "3,3", "--gen", "product",
        "--logdensities", "1,2,3,4,5", "--seed", "2718",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(args + ["--output", str(first)]) == EXIT_OK
    assert main(args + ["--output", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    rows = [line.split(",") for line in first.read_text().splitlines()[2:]]
    assert len(rows) == 5
    achieved = [int(row[6]) for row in rows]
    budgets = [int(row[7]) for row in rows]
    assert achieved == sorted(achieved)
    assert all(a <= b for a, b in zip(achieved, budgets))
    assert all(row[8] == "ok" for row in rows)
    _report("linear-shape sweep", 5, started)


def test_acceptance_negative_controls(monkeypatch):
    started = time.perf_counter()
    sh = Shape(2, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(2, dtype=int)),))
    cert = find_subvariety(v)

    tampered_output = dataclasses.replace(cert, output=Variety.full(sh))
    assert not verify_certificate(v, tampered_output).containment_ok

    tampered_codim = dataclasses.replace(cert, output_codim=cert.budget + 1)
    assert not verify_certificate(v, tampered_codim).codim_ok

    full = Variety.full(Shape(2, (3,)))
    oversized = PointSet.from_points(
        Shape(2, (3,)), [((0, 0, 1),), ((0, 1, 0),), ((1, 0, 0),)]
    )
    with pytest.raises(PreconditionError):
        conv_fill_check(full, oversized, variety_bitmap(full), full.codim)

    approximate_with_no_functionals(monkeypatch)
    with pytest.raises(ApproxMismatchError) as excinfo:
        find_subvariety(v)
    err = excinfo.value
    assert err.extra_count == 6  # |G| - |V| = 16 - 10
    assert err.extra_count >= err.extra_floor
    assert str(err) == "approximation strictly exceeds its target by 6 points"
    _report("negative controls", 4, started)
