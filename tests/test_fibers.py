"""The fiber-rank kernel: point counts and containment against brute force
and bitmaps, its edge cases, and its independence from the evaluation code
the finder uses; the verifier's and the ledger's independence from the
finder."""

import ast
import dataclasses
import inspect
import itertools
import random
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mlvariety
from mlvariety import budget, cli, construct, fibers, forms, ledger, variety
from mlvariety.construct import find_subvariety
from mlvariety.fibers import (
    count_and_contains,
    density,
    point_count,
    verify_certificate,
    zero_fiber_identity_check,
)
from mlvariety.forms import MultilinearForm, Shape, bias
from mlvariety.generators import random_form, random_support, random_variety
from mlvariety.ledger import codim_budget
from mlvariety.variety import Variety, variety_bitmap

from helpers import brute_density, brute_eval, dual_count, small_dims

ROOT = Path(__file__).resolve().parent.parent


def _cylinder_variety(rng, shape, count):
    """count random forms whose supports all omit the largest factor, the
    one the kernel takes the fibers of; with one factor, no such form has
    variables, so the variety is full."""
    j = shape.dims.index(max(shape.dims))
    others = [l for l in range(shape.k) if l != j]
    forms_ = []
    for _ in range(count if others else 0):
        support = [others[t] for t in random_support(rng, len(others))]
        forms_.append(random_form(rng, shape, support))
    return Variety(shape, forms_)


def _instances(p, seed):
    """Random varieties with mixed supports, cylinder varieties and their
    intersections, over arity 1 to 4."""
    rng = random.Random(f"fibers/{p}/{seed}")
    for k in (1, 2, 3, 4):
        limit = max(4096, p**k)
        dims = small_dims(rng, k, 6)
        while Shape(p, dims).total_points > limit:
            dims = tuple(max(n - 1, 1) for n in dims)
        shape = Shape(p, dims)
        v = random_variety(rng, shape, rng.randint(1, 3))
        w = _cylinder_variety(rng, shape, rng.randint(1, 2))
        yield v, w, Variety(shape, v.forms + w.forms)


@pytest.mark.parametrize("p", [2, 3, 5, 17])
@pytest.mark.parametrize("seed", range(4))
def test_counts_and_containment_match_bitmaps(p, seed):
    for v, w, both in _instances(p, seed):
        masks = {id(x): variety_bitmap(x) for x in (v, w, both)}
        for x in (v, w, both):
            count = int(np.count_nonzero(masks[id(x)]))
            assert point_count(x) == count
            assert density(x) == Fraction(count, x.shape.total_points)
            if x.shape.total_points <= 256:
                assert density(x) == brute_density(x)
        for big, small in ((v, w), (w, v), (v, both), (w, both), (both, v)):
            escaped = masks[id(small)] & ~masks[id(big)]
            assert count_and_contains(big, small) == (
                int(np.count_nonzero(masks[id(big)])), not escaped.any()
            )


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_dual_count_matches_both_fiber_counts(p, seed):
    """p**-m |G| times the sum of the biases of the combinations of m forms
    of one support, a count from slice-matrix ranks, against the verifier's
    fiber ranks and the finder's fibers, on each same-support family of the
    battery's varieties."""
    for _, _, both in _instances(p, seed):
        families = {}
        for f in both.forms:
            families.setdefault(f.support, []).append(f)
        for family in families.values():
            v = Variety(both.shape, family)
            count = point_count(v)
            assert dual_count(v) == count
            assert construct._fibers(v.shape, range(v.shape.k)).count(v.forms) == count


@pytest.mark.parametrize("dims", [(0,), (3,), (0, 0), (0, 3), (2, 0, 1), (1, 0, 2, 1)])
@pytest.mark.parametrize("p", [2, 3])
def test_zero_forms_and_zero_dimension_factors(p, dims):
    shape = Shape(p, dims)
    assert point_count(Variety.full(shape)) == shape.total_points
    zero_only = Variety(shape, (MultilinearForm(shape, (), 0),))
    assert point_count(zero_only) == shape.total_points
    rng = random.Random(f"zero-dims/{p}/{dims}")
    for _ in range(5):
        v = random_variety(rng, shape, 3)
        v = Variety(shape, v.forms + (MultilinearForm(shape, (), 0),))
        count = int(np.count_nonzero(variety_bitmap(v)))
        assert point_count(v) == count
        assert count_and_contains(v, Variety.full(shape)) == (count, count == shape.total_points)
        assert count_and_contains(Variety.full(shape), v) == (shape.total_points, True)


def test_arity_one_counts_a_subspace():
    shape = Shape(5, (3,))
    forms_ = (MultilinearForm(shape, (0,), [1, 2, 0]), MultilinearForm(shape, (0,), [2, 4, 0]))
    assert point_count(Variety(shape, forms_)) == 25
    assert point_count(Variety(shape, forms_ + (MultilinearForm(shape, (0,), [0, 0, 1]),))) == 5


def test_forms_without_the_fiber_factor_are_constants():
    # factor 1 is the largest; x0[0] = 0 cuts half of factor 0 and the
    # bilinear form counts ranks only over the x0 that survive
    shape = Shape(2, (2, 3))
    cylinder = MultilinearForm(shape, (0,), [1, 0])
    bilinear = MultilinearForm(shape, (0, 1), [[1, 0, 0], [0, 1, 0]])
    v = Variety(shape, (cylinder, bilinear))
    # x0 = 00: rank 0, 8 points; x0 = 01: rank 1, 4 points
    assert point_count(v) == 12
    assert point_count(v) == int(np.count_nonzero(variety_bitmap(v)))


def test_the_empty_marker_counts_zero_and_lies_in_everything():
    shape = Shape(3, (2, 2))
    v = random_variety(random.Random(5), shape, 2)
    empty = Variety.empty(shape)
    assert point_count(empty) == 0
    assert density(empty) == 0
    assert count_and_contains(v, empty) == (point_count(v), True)
    assert count_and_contains(empty, empty) == (0, True)
    # every other variety contains the origin, even the full one
    assert count_and_contains(empty, v) == (0, False)
    assert count_and_contains(empty, Variety.full(shape)) == (0, False)


def test_verify_empty_input_holds_only_the_empty_output():
    shape = Shape(2, (2, 2))
    v = random_variety(random.Random(3), shape, 2, full_support_only=True)
    cert = find_subvariety(v)
    empty = Variety.empty(shape)
    floor = codim_budget(2, 2, Fraction(1, shape.total_points))
    check = fibers.CertificateCheck
    # the certificate claims its own input's density, not 0
    assert verify_certificate(empty, cert) == check(False, True, False, floor)
    marker = dataclasses.replace(cert, output=empty)
    assert verify_certificate(empty, marker) == check(True, False, False, floor)


def test_shape_mismatch_reports_the_input_budget():
    v = random_variety(random.Random(8), Shape(3, (2, 3)), 2, full_support_only=True)
    cert = find_subvariety(random_variety(random.Random(8), Shape(3, (3, 2)), 1))
    check = verify_certificate(v, cert)
    assert check == fibers.CertificateCheck(
        False, False, False, codim_budget(2, 3, density(v))
    )
    assert density(v) != 1


def _raise(*args, **kwargs):
    raise AssertionError("the verifier reached evaluation code of the finder")


@pytest.mark.parametrize("p, dims", [(2, (4, 4)), (3, (2, 2, 1)), (2, (1, 2, 1, 2)), (5, (3,))])
def test_verifier_reads_no_value_grid_form_evaluation_or_bitmap(monkeypatch, p, dims):
    shape = Shape(p, dims)
    cases = []
    for seed in range(3):
        v = random_variety(random.Random(seed), shape, 2)
        cert = find_subvariety(v)
        tampered = dataclasses.replace(cert, output=Variety.full(shape))
        vmask = variety_bitmap(v)
        c = Fraction(int(np.count_nonzero(vmask)), shape.total_points)
        cases.append((v, cert, tampered, c, not vmask.all()))
    for name in ("_value_grid", "eval_grid", "eval_form", "_contracted", "variety_bitmap"):
        for module in (forms, variety, construct, cli, fibers):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _raise)
    for v, cert, tampered, c, escapes in cases:
        assert density(v) == c
        assert verify_certificate(v, cert).all_ok
        assert verify_certificate(v, tampered).containment_ok is not escapes


@pytest.mark.parametrize("dims, count", [((3, 4, 1), 8), ((3, 4, 24), 67_108_864)])
def test_zero_fiber_identity_charges_no_factor_outside_the_support(dims, count):
    # of the 4 slices f(., e_i), linear forms on factor 0, one is zero: 3
    # forms of 3 entries at the one point of no other factor, whatever the
    # size of factor 2
    f = random_form(random.Random(5), Shape(2, dims), (0, 1))
    b = bias(f)
    budget.reset_work()
    rep = zero_fiber_identity_check(f, b)
    assert budget.work_points() == 9
    assert rep.holds and rep.zero_fiber_count == count


@pytest.mark.parametrize("p, dims, seed", [
    (2, (20, 20), 71), (5, (5, 5, 5), 1), (2, (12, 12, 12), 1), (2, (14, 16, 16), 17),
    (2, (30, 1), 3),
])
def test_zero_fiber_identity_charges_no_more_than_the_bias(p, dims, seed):
    f = random_form(random.Random(seed), Shape(p, dims))
    budget.reset_work()
    b = bias(f)
    bias_points = budget.work_points()
    budget.reset_work()
    assert zero_fiber_identity_check(f, b).holds
    assert budget.work_points() <= bias_points


def test_fibers_imports_no_evaluation_code():
    tree = ast.parse(inspect.getsource(fibers))
    imported = {
        (node.level, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # from forms only the data types the zero-fiber identity builds, and
    # from ledger only the certificate type and the budget the verifier reads
    assert {name for level, _, name in imported if level} == {
        "budget", "PreconditionError", "all_vectors", "batched_echelon", "residual",
        "MultilinearForm", "Shape", "Variety", "SubvarietyCertificate", "codim_budget",
    }
    assert {module for level, module, _ in imported if level} == {
        None, "errors", "field", "forms", "ledger", "variety"
    }
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(a.name.startswith("mlvariety") for a in node.names)]



def _relative_imports(path):
    """(module, name) of each relative import in a file; the module is None
    in ``from . import name``."""
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def test_import_graph_keeps_the_ledger_and_the_verifier_off_the_finder():
    graph = {path.stem: _relative_imports(path)
             for path in (ROOT / "src" / "mlvariety").glob("*.py")}
    assert graph["ledger"] == {
        ("monomial", "Monomial"), ("errors", "PreconditionError"), ("forms", "ceil_log"),
        ("variety", "Variety"),
    }
    # only cli and the package root import the finder: neither fibers, the
    # verifier's module, nor jsonio
    importers = {module for module, edges in graph.items()
                 if any("construct" in edge for edge in edges)}
    assert importers == {"cli", "__init__"}
    # a name construct imports is imported from its own home, never through
    # construct, by the package and its scripts
    reimported = {name for _, name in graph["construct"]}
    for path in [*(ROOT / "src" / "mlvariety").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("construct", "mlvariety.construct"):
                assert not {alias.name for alias in node.names} & reimported, path.name


def test_certificate_annotations_resolve():
    assert typing.get_type_hints(ledger.SubvarietyCertificate)["output"] is Variety


# The names the package root exports, modules aside.
ROOT_EXPORTS = {
    "ApproxMismatchError", "ApproxResult", "BudgetExceededError", "CertificateCheck",
    "ConstructionError", "ConvFillReport", "DenseColumnsResult", "EmptyVarietyError",
    "InputFormatError", "MultilinearForm", "MultilinearMap", "Parallelepiped", "PointSet",
    "PreconditionError", "Shape", "SubvarietyCertificate", "Variety", "ZeroBiasError",
    "ZeroFiberReport", "analytic_rank", "arity_constant", "bias", "budget_line", "ceil_log",
    "codim_budget", "conv_fill_check", "dense_columns", "density",
    "directional_convolution", "eval_form", "external_approx", "find_subvariety",
    "intersect", "iterated_conv_witness", "matricization_rank_bound", "membership",
    "partition_rank_search", "point_budget", "prank_lower_bound", "product_form",
    "reset_work", "set_point_budget", "slice_form", "slice_variety", "variety_bitmap",
    "verify_certificate", "work_points", "zero_fiber_identity_check",
}


def test_root_exports_the_ledger_and_the_verifier_from_their_homes():
    for home, names in (
        (ledger, ("SubvarietyCertificate", "arity_constant", "budget_line", "codim_budget")),
        (fibers, ("CertificateCheck", "verify_certificate")),
    ):
        for name in names:
            assert getattr(mlvariety, name) is getattr(home, name)
    assert {name for name, value in vars(mlvariety).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == ROOT_EXPORTS


@pytest.mark.parametrize("p, dims", [
    (p, dims)
    for p, ladder in (
        (2, [(3,), (2, 3), (2, 2, 1), (1, 2, 1, 2)]),
        (3, [(2,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]),
        (5, [(2,), (1, 2), (1, 1, 1), (1, 1, 1, 1)]),
    )
    for dims in ladder
])
def test_verifier_calls_no_construct_function(monkeypatch, p, dims):
    shape = Shape(p, dims)
    cases = []
    for seed in range(3):
        v = random_variety(random.Random(seed), shape, 2)
        cert = find_subvariety(v)
        cases += [(v, cert), (v, dataclasses.replace(cert, output=Variety.full(shape)))]
    expected = [fibers.verify_certificate(v, cert) for v, cert in cases]
    for name, value in vars(construct).items():
        if inspect.isfunction(value) and value.__module__ == construct.__name__:
            monkeypatch.setattr(construct, name, _raise)
    assert [fibers.verify_certificate(v, cert) for v, cert in cases] == expected


@pytest.mark.parametrize("p", [2, 3, 5, 17])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_contract_matches_a_naive_contraction(p, n):
    # nonzero coefficients make each half's contraction take every residue,
    # so at p = 17 the half-sum reaches 2 * 16 = 32 before it is reduced
    rng = np.random.default_rng(p * 10 + n)
    t = rng.integers(1, p, size=(2, n, 2))
    table = fibers.all_vectors(p, n).T.astype(np.int64)
    naive = np.moveaxis(t, 1, -1) @ table % p
    out = fibers._contract(t, p, n)
    assert out.dtype == np.uint8
    assert np.array_equal(out, naive)


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_stack_values_match_fiber_values_and_brute_force(p):
    """The verifier's rows and constants entry by entry, at every x and for
    every j, inside and outside each support: counts and containment alone
    miss an x permutation that both varieties share."""
    rng = random.Random(f"stack-values/{p}")
    for k in (1, 2, 3, 4):
        dims = small_dims(rng, k, 6)
        while Shape(p, dims).total_points > max(300, p**k):
            dims = tuple(max(n - 1, 1) for n in dims)
        shape = Shape(p, dims)
        # the full support, one without the last factor and a random one
        supports = (tuple(range(k)), tuple(range(k - 1)), random_support(rng, k))
        for support in dict.fromkeys(s for s in supports if s):
            zero = MultilinearForm(shape, support, np.zeros([dims[l] for l in support], int))
            stack = [random_form(rng, shape, support), zero]
            coeffs = np.stack([f.coeffs for f in stack])
            for j in range(k):
                others = [l for l in range(k) if l != j]
                got = fibers._stack_values(shape, support, coeffs, j, others)
                assert np.array_equal(got, np.stack(forms.fiber_values(stack, j, others)))
                points = itertools.product(*[fibers.all_vectors(p, dims[l]) for l in others])
                for x, xs in enumerate(points):
                    point = dict(zip(others, (v.tolist() for v in xs)))
                    # factor j at each unit vector, or at zero for the constants
                    units = np.eye(dims[j], dtype=int) if j in support else np.zeros((1, dims[j]))
                    for c, unit in enumerate(units.astype(int).tolist()):
                        point[j] = unit
                        full = [point[l] for l in range(k)]
                        expected = [brute_eval(f, full) for f in stack]
                        assert (got[:, c, x] if j in support else got[:, x]).tolist() == expected
