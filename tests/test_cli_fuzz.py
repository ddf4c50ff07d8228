"""A seeded exit-code fuzz of the command line: golden inputs and the
certificates find-sub writes for them, each with a field or two swapped for
an odd value or dropped, and the edge values of the numeric flags.  Every
run must return a documented exit code (0, 2, 3, 4 or 5) and never raise.
A second fuzz edits one ledger field at a time.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from mlvariety.cli import main

from test_cli import _forged_certificate
from test_golden_outputs import _write_inputs

ODD = [None, True, False, -1, 0, 2, 10**30, 1.5, "1/0", "x", "", [], {}, [[1, 2]], [0] * 40]

# (argv with {} for the mutated file, the file) pairs the mutations start from
TARGETS = [
    (["find-sub", "--input", "{}"], "p2_k2.json"),
    (["find-sub", "--input", "{}"], "p3_k3.json"),
    (["find-sub", "--input", "{}", "--format", "json"], "p2_k4.json"),
    (["verify", "--input", "{}", "--certificate", "cert_p2_k2.json"], "p2_k2.json"),
    (["verify", "--input", "p2_k2.json", "--certificate", "{}"], "cert_p2_k2.json"),
    (["verify", "--input", "p3_k3.json", "--certificate", "{}"], "cert_p3_k3.json"),
    (["verify", "--input", "wide_p2_1414.json", "--certificate", "{}"], "cert_wide_p2_1414.json"),
    (["density", "--input", "{}"], "p2_k5.json"),
    (["conv-check", "--input", "{}"], "p2_k2.json"),
    (["approx", "--input", "{}", "--s", "2"], "map_p2.json"),
    (["approx", "--input", "{}", "--s", "1", "--format", "json"], "map_p3.json"),
    (["rank", "--input", "{}"], "form_p2.json"),
    (["rank", "--input", "{}"], "form_p3.json"),
    (["rank", "--input", "{}", "--format", "json"], "form_p5.json"),
]

EDGE_RUNS = [
    ["approx", "--input", "map_p2.json", "--s", "0"],
    ["approx", "--input", "map_p2.json", "--s", "14000"],
    ["approx", "--input", "map_p2.json", "--s", "20000"],
    ["approx", "--input", "map_p2.json", "--s", str(10**9)],
    ["conv-check", "--input", "full_p2_33.json", "--bad-count", "65"],
    ["conv-check", "--input", "p2_k2.json", "--bad-count", "1000"],
    ["find-sub", "--input", "p2_k2.json", "--budget", "1"],
    ["verify", "--input", "p2_k2.json", "--certificate", "cert_p2_k2.json", "--budget", "1"],
    ["conv-check", "--input", "p2_k2.json", "--budget", "1"],
    ["approx", "--input", "map_p2.json", "--s", "1", "--budget", "1"],
    ["rank", "--input", "form_p2.json", "--budget", "1"],
    ["rank", "--input", "zero_dim_factor.json"],
    ["rank", "--input", "wide_outer.json"],
    ["density", "--input", "p3_k3.json", "--budget", "1"],
    ["sweep", "--p", "2", "--dims", "2,2", "--logdensities", "0,1", "--budget", "1"],
    # every command, and each generator, beside a factor of dimension 0
    ["find-sub", "--input", "zero_dim_variety.json", "--output", "cert_zero_dim.json"],
    ["verify", "--input", "zero_dim_variety.json", "--certificate", "cert_zero_dim.json"],
    ["density", "--input", "zero_dim_variety.json"],
    ["conv-check", "--input", "zero_dim_variety.json"],
    ["approx", "--input", "zero_dim_map.json", "--s", "1"],
    ["sweep", "--p", "2", "--dims", "0,2", "--gen", "product", "--logdensities", "0,1"],
    ["sweep", "--p", "3", "--dims", "2,0,1", "--gen", "random-forms", "--count", "2"],
    ["sweep", "--p", "2", "--dims", "0,2", "--gen", "low-prank", "--count", "2"],
    ["sweep", "--p", "3", "--dims", "3,0,2", "--gen", "low-prank", "--count", "2"],
]


def _mutated(rng: random.Random, obj):
    """obj with one field, reached by a random walk that stops at each level
    with probability 1/3, replaced by an odd value or, in an object, dropped."""
    if not isinstance(obj, (dict, list)) or not obj or rng.random() < 1 / 3:
        return rng.choice(ODD)
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    key = rng.choice(list(out) if isinstance(out, dict) else range(len(out)))
    if isinstance(out, dict) and rng.random() < 0.15:
        del out[key]
    else:
        out[key] = _mutated(rng, out[key])
    return out


def _run(argv) -> int:
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # no run here is an argparse usage error
        pytest.fail(f"{argv} raised {exc!r}")
    assert code in (0, 2, 3, 4, 5), argv
    return code


def test_cli_returns_a_documented_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    # a form, a variety and a map beside a factor of dimension 0, and a form
    # on a single factor beside an outer group of 2**30 points
    Path("zero_dim_factor.json").write_text(json.dumps({
        "p": 3, "k": 3, "dims": [2, 0, 2], "support": [1, 3], "coeffs": [1, 2, 0, 1],
    }))
    shape = {"p": 3, "k": 3, "dims": [2, 0, 2]}
    Path("zero_dim_variety.json").write_text(json.dumps({
        "format_version": "4", "shape": shape, "forms": [
            {**shape, "support": [1, 2, 3], "coeffs": []},
            {**shape, "support": [3], "coeffs": [1, 2]},
        ],
    }))
    Path("zero_dim_map.json").write_text(json.dumps({
        "p": 2, "k": 2, "dims": [0, 2], "support": [1, 2], "codomain_dim": 2,
        "components": [[], []],
    }))
    Path("wide_outer.json").write_text(json.dumps({
        "p": 2, "k": 2, "dims": [30, 3], "support": [2], "coeffs": [1, 0, 1],
    }))
    for stem in ("p2_k2", "p3_k3"):
        assert _run(["find-sub", "--input", f"{stem}.json", "--output", f"cert_{stem}.json"]) == 0
    for argv in EDGE_RUNS:
        _run(argv)
    rng = random.Random("cli-fuzz")
    for trial in range(48):
        argv, name = TARGETS[trial % len(TARGETS)]
        obj = json.loads(Path(name).read_text())
        for _ in range(rng.choice((1, 1, 2))):
            obj = _mutated(rng, obj)
        Path("mutated.json").write_text(json.dumps(obj))
        _run([arg.replace("{}", "mutated.json") for arg in argv])


# Values for one ledger field: zero and past-one densities, a huge integer
# and a monomial with huge exponents, besides the odd values and each
# field's neighbours (_nearby)
LEDGER_ODD = ODD + ["0", "3/2", "1/3", {"coef": "1", "p_exp": 10**40, "c_exp": -10**40}]

# The ledger fields a node stores rather than derives; the finder chose or
# measured them, and no formula fixes them (besides the slice points)
STORED = {"c", "codim_contribution", "cylinder_forms", "min_fiber_density"}


def _paths(value, path=()):
    """The path of value and of everything below it, parent first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _nearby(value) -> list:
    if type(value) is bool:
        return [not value]
    if type(value) is int:
        return [value - 1, value + 1]
    return []


def test_single_ledger_field_edits_end_in_exit_0_2_or_5(tmp_path):
    """200 edits of one field of the (3,(4,3,3)) seed-1 certificate's ledger,
    each node, direction, monomial, slice point or child index among them.
    verify refuses (2) or fails (5) every edit that changes a derived field
    or breaks the tree; only a stored field or a slice point may verify."""
    var_path, cert_path = _forged_certificate(tmp_path, lambda top, ledger: None)
    obj = json.loads(cert_path.read_text())
    paths = [("ledger",) + path for path in _paths(obj["ledger"]) if path]
    rng = random.Random("ledger-fuzz")
    codes = []
    for _ in range(200):
        path = rng.choice(paths)
        forged = copy.deepcopy(obj)
        target = forged
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = rng.choice(LEDGER_ODD + _nearby(target[path[-1]]))
        cert_path.write_text(json.dumps(forged))
        code = _run(["verify", "--input", str(var_path), "--certificate", str(cert_path)])
        assert code in (0, 2, 5), path
        if code == 0:
            assert forged == obj or path[-1] in STORED or path[-2] == "slice_point", path
        codes.append(code)
    assert codes.count(2) > 100
