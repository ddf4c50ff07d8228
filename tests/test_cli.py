import argparse
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mlvariety import budget, cli, construct, forms, variety
from mlvariety.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFY,
    build_parser,
    main,
)

from mlvariety.construct import find_subvariety
from mlvariety.fibers import density
from mlvariety.field import echelonize
from mlvariety.forms import MultilinearForm, Shape, product_form
from mlvariety.generators import (
    planted_low_prank_form,
    random_form,
    random_subspace,
    random_variety,
)
from mlvariety.jsonio import (
    certificate_from_obj,
    certificate_to_obj,
    form_to_obj,
    variety_to_obj,
)
from mlvariety.ledger import codim_budget, ledger_paths
from mlvariety.variety import PointSet, Variety, _point_from_index, variety_bitmap

from helpers import (
    annihilator,
    brute_eval,
    constant_shift_tables,
    coordinate_products,
    count_bitmap_passes,
    count_grid_evaluations,
    count_log_signs,
    count_row_pass_bases,
    legacy_certificate,
    planted_cylinder,
    replace_shift_tables,
    scan_offsets,
)

DOT_FORM = {"p": 2, "k": 2, "dims": [2, 2], "support": [1, 2], "coeffs": [1, 0, 0, 1]}
DOT_VARIETY = {
    "format_version": "1",
    "shape": {"p": 2, "k": 2, "dims": [2, 2]},
    "forms": [DOT_FORM],
}


@pytest.fixture
def dot_files(tmp_path):
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(DOT_FORM))
    var_path = tmp_path / "variety.json"
    var_path.write_text(json.dumps(DOT_VARIETY))
    return form_path, var_path


def test_rank_report(dot_files, capsys):
    form_path, _ = dot_files
    assert main(["rank", "--input", str(form_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bias: 1/4" in out
    assert "analytic_rank: 2.0" in out
    assert "prank_lower_bound: 2" in out
    assert "partition_rank: 2" in out
    assert "zero_fiber_identity: holds" in out


def test_rank_zero_form(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [1, 1], "support": [1, 2], "coeffs": [0],
    }))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bias: 1" in out
    assert "partition_rank: 0" in out


def test_rank_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["rank", "--input", str(path)]) == EXIT_PARSE


@pytest.mark.parametrize("fault", [TypeError, KeyError])
def test_a_fault_past_the_readers_is_not_an_input_error(dot_files, tmp_path, monkeypatch, fault):
    """Exit 2 belongs to the readers: the same exception raised inside the
    finder or the verifier ends the call as a traceback."""
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK

    def raising(*args):
        raise fault("injected")

    monkeypatch.setattr(construct, "_solve", raising)
    with pytest.raises(fault, match="injected"):
        main(["find-sub", "--input", str(var_path)])
    monkeypatch.setattr(cli, "verify_certificate", raising)
    with pytest.raises(fault, match="injected"):
        main(["verify", "--input", str(var_path), "--certificate", str(cert_path)])


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000 + "]" * 100000])
def test_json_python_cannot_hold_is_an_input_error(tmp_path, capsys, text):
    """An integer past Python's digit limit, or nesting past its stack,
    raises from json.loads as ValueError or RecursionError, not as a
    decoding error; the reader turns both into input errors."""
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["density", "--input", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("input error: ")


def test_rank_json_format(dot_files, capsys):
    form_path, _ = dot_files
    assert main(["rank", "--input", str(form_path), "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["bias"] == "1/4"
    assert obj["partition_rank"] == 2
    assert obj["zero_fiber_identity"]["holds"] is True


def test_rank_rejects_csv_format(dot_files):
    form_path, _ = dot_files
    assert main(["rank", "--input", str(form_path), "--format", "csv"]) == EXIT_PRECONDITION


@pytest.mark.parametrize("command, flags, file", [
    ("find-sub", [], "variety"),
    ("approx", ["--s", "1"], "map"),
])
def test_report_command_rejects_csv_before_running(
    dot_files, tmp_path, capsys, command, flags, file
):
    # the refusal comes before the command reads its input: nothing is
    # computed, charged or written
    _, var_path = dot_files
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [2, 2], "support": [1, 2],
        "codomain_dim": 1, "components": [[1, 0, 0, 1]],
    }))
    out = tmp_path / "out.json"
    budget.reset_work()
    assert main([
        command, "--input", str(var_path if file == "variety" else map_path),
        "--format", "csv", "--output", str(out), *flags,
    ]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition violated: csv output applies to the sweep command only\n"
    assert not out.exists()
    assert budget.work_points() == 0


# a full-support (2,(3,3,3)) form whose exact search only brackets the
# partition rank
INTERVAL_FORM = {
    "p": 2, "k": 3, "dims": [3, 3, 3], "support": [1, 2, 3],
    "coeffs": [1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0,
               0, 1, 1, 0, 1, 1, 1, 0, 1],
}


def test_rank_reports_a_partition_rank_interval(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(INTERVAL_FORM))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "partition_rank: in [2, 3]" in out
    assert main(["rank", "--input", str(path), "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["partition_rank_interval"] == [2, 3]
    assert "partition_rank" not in obj


def test_rank_reports_an_exact_rank_where_the_bounds_meet(tmp_path, capsys):
    # the space is past the search's reach, but the bias bound and the
    # flattening rank are both 2
    form = planted_low_prank_form(random.Random(1), Shape(2, (3, 3, 3)), 2)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_obj(form)))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "prank_lower_bound: 2" in out
    assert "partition_rank: 2" in out
    assert main(["rank", "--input", str(path), "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["partition_rank"] == 2
    assert "partition_rank_interval" not in obj


@pytest.mark.parametrize("form", [
    pytest.param(DOT_FORM, id="bilinear"),
    pytest.param({"p": 2, "k": 3, "dims": [2, 2, 2], "support": [1, 2, 3],
                  "coeffs": [1, 0, 0, 0, 0, 0, 0, 1]}, id="diagonal"),
    pytest.param(INTERVAL_FORM, id="interval"),
])
def test_rank_computes_the_bias_once(tmp_path, monkeypatch, form):
    # the report, the analytic rank, the search's lower bound, its interval
    # and the zero-fiber identity share one bias
    calls = []
    original = forms.bias

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(cli, "bias", counting)
    monkeypatch.setattr(forms, "bias", counting)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    assert len(calls) == 1


def test_density_command(dot_files, capsys):
    _, var_path = dot_files
    assert main(["density", "--input", str(var_path)]) == EXIT_OK
    assert "density: 5/8" in capsys.readouterr().out


def test_find_sub_writes_verified_certificate(dot_files, tmp_path, capsys):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    code = main(["find-sub", "--input", str(var_path), "--output", str(cert_path)])
    assert code == EXIT_OK
    summary = capsys.readouterr().out
    assert "verified=True" in summary
    obj = json.loads(cert_path.read_text())
    assert obj["format_version"] == "5"
    assert "containment_verified" not in obj
    assert obj["verified"] == {"containment": True, "nonempty": True, "codim": True}
    assert obj["config"]["command"] == "find-sub"

    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_OK


def test_verify_reads_format_1_certificate(dot_files, tmp_path, capsys):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    for version in ("1", "2"):
        legacy = legacy_certificate(obj, version)
        assert [record["path"] for record in legacy["ledger"]] == ["", "0", "1"]
        assert legacy["ledger"][0]["c_prime"] == "25/2048"
        cert_path.write_text(json.dumps(legacy))
        assert main([
            "verify", "--input", str(var_path), "--certificate", str(cert_path),
        ]) == EXIT_OK
        # each monomial, written as the rational it equals, is derived again
        read = certificate_from_obj(legacy)
        assert read == certificate_from_obj(obj)
        assert certificate_to_obj(read)["ledger"] == obj["ledger"]
    # a rational off its monomial's value is refused; the top is the last node rebuilt
    legacy = legacy_certificate(obj, "1")
    legacy["ledger"][0]["c_prime"] = "25/2047"
    cert_path.write_text(json.dumps(legacy))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    message = capsys.readouterr().err
    assert message.startswith("input error: ledger node 2: c_prime '25/2047' is not the derived")


def test_verify_reads_format_3_certificate(dot_files, tmp_path, capsys):
    # "3" and "4" have the monomials of "5" and the ledger one record per path
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    for version in ("3", "4"):
        legacy = legacy_certificate(obj, version)
        assert [record["path"] for record in legacy["ledger"]] == ["", "0", "1"]
        read = certificate_from_obj(legacy)
        assert read == certificate_from_obj(obj)
        assert ledger_paths(read.ledger) == ledger_paths(certificate_from_obj(obj).ledger)
        cert_path.write_text(json.dumps(legacy))
        assert main([
            "verify", "--input", str(var_path), "--certificate", str(cert_path),
        ]) == EXIT_OK
    # a path written twice is refused, though every other path is there
    legacy["ledger"].append(legacy["ledger"][-1])
    cert_path.write_text(json.dumps(legacy))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert "ledger paths ['', '0', '1', '1'] do not make one tree" in capsys.readouterr().err


def test_find_sub_empty_variety_distinct_exit(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "shape": {"p": 2, "k": 2, "dims": [1, 1]},
        "empty": True,
        "forms": [],
    }))
    assert main(["find-sub", "--input", str(path)]) == EXIT_PRECONDITION


def test_verify_against_wrong_variety(dot_files, tmp_path, capsys):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    capsys.readouterr()
    other = tmp_path / "other.json"
    other.write_text(json.dumps({
        "format_version": "1",
        "shape": {"p": 2, "k": 2, "dims": [2, 2]},
        "forms": [
            {"p": 2, "k": 2, "dims": [2, 2], "support": [1], "coeffs": [1, 0]},
            {"p": 2, "k": 2, "dims": [2, 2], "support": [2], "coeffs": [1, 0]},
        ],
    }))
    assert main([
        "verify", "--input", str(other), "--certificate", str(cert_path),
    ]) == EXIT_VERIFY
    assert "containment: False" in capsys.readouterr().out


def test_verify_tampered_codim(dot_files, tmp_path):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    obj["output_codim"] = obj["budget"] + 7
    cert_path.write_text(json.dumps(obj))
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_VERIFY


def test_verify_empty_output_certificate(dot_files, tmp_path, capsys):
    """A certificate whose output is the empty marker is contained in any
    input but is neither nonempty nor priced at a codimension."""
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    capsys.readouterr()
    obj = json.loads(cert_path.read_text())
    obj["output"] = {**DOT_VARIETY, "empty": True, "forms": []}
    cert_path.write_text(json.dumps(obj))
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_VERIFY
    assert capsys.readouterr().out.splitlines() == [
        "containment: True", "nonempty: False", "codim_within_budget: False",
    ]


@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_non_boolean_empty_flag_is_an_input_error(dot_files, tmp_path, capsys, value):
    """Only true, false or no key say whether a variety is the empty marker,
    in a variety file and in a certificate's output alike."""
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    obj["output"]["empty"] = value
    cert_path.write_text(json.dumps(obj))
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps({**DOT_VARIETY, "empty": value}))
    capsys.readouterr()
    assert main(["density", "--input", str(flagged)]) == EXIT_PARSE
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert capsys.readouterr().err.count("input error: empty must be a JSON boolean") == 2
    flagged.write_text(json.dumps({**DOT_VARIETY, "empty": False}))
    assert main(["density", "--input", str(flagged)]) == EXIT_OK
    assert capsys.readouterr().out == "density: 5/8\n"


def test_verify_empty_input_keeps_the_density_floor(dot_files, tmp_path, capsys):
    """An empty-marker input has no points; the verifier still prices its
    budget at one point (density 1/16 here) and reports the flags, rather
    than rejecting the zero density as a precondition failure.  The
    certificate claims its own input's density 5/8, not 0, so the
    codimension flag is false."""
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    capsys.readouterr()
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "format_version": "1",
        "shape": {"p": 2, "k": 2, "dims": [2, 2]},
        "empty": True,
        "forms": [],
    }))
    assert main([
        "verify", "--input", str(empty), "--certificate", str(cert_path),
        "--format", "json",
    ]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out) == {
        "containment": False, "nonempty": True, "codim": False, "budget": 93,
    }


def test_forged_top_level_claims_are_a_verify_exit(dot_files, tmp_path, capsys):
    """A certificate whose input density and budget were edited fails the
    codimension flag, even though its output is the finder's."""
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    assert (obj["input_density"], obj["budget"]) == ("5/8", 45)
    for forged in ({"input_density": "1/1000", "budget": 0}, {"input_density": "1/1000"},
                   {"budget": 0}, {"budget": 46}):
        cert_path.write_text(json.dumps({**obj, **forged}))
        capsys.readouterr()
        assert main([
            "verify", "--input", str(var_path), "--certificate", str(cert_path),
            "--format", "json",
        ]) == EXIT_VERIFY
        assert json.loads(capsys.readouterr().out) == {
            "containment": True, "nonempty": True, "codim": False, "budget": 45,
        }


def test_huge_shape_is_a_budget_exit(tmp_path, capsys):
    """|G| = 2**20001 has more digits than Python converts to str; the
    refusals name a power-of-two bound instead of raising: with one form on
    factor 2, find-sub's fiber rows in factor 1 run over the 2**20000 points
    of factor 0, and conv-check's bitmap runs over all of G.  density counts
    by fiber ranks over the B = 2 points of the small factor, so it answers,
    and find-sub returns the full variety as its own base case."""
    shape = {"p": 2, "k": 2, "dims": [20000, 1]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format_version": "1", "shape": shape, "forms": []}))
    assert main(["find-sub", "--input", str(path)]) == EXIT_OK
    bud = codim_budget(2, 2, Fraction(1))
    assert capsys.readouterr().out == f"density=1 codim=0 budget={bud} verified=True\n"
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps({"format_version": "1", "shape": shape, "forms": [
        {**shape, "support": [2], "coeffs": [1]}
    ]}))
    assert main(["find-sub", "--input", str(cut)]) == EXIT_BUDGET
    assert main(["conv-check", "--input", str(path)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.count("points, over the budget of 16777216") == 2
    if hasattr(sys, "get_int_max_str_digits"):
        assert "fiber rows needs at least 2^20000 points" in err
        assert "variety bitmap needs at least 2^20001 points" in err
    assert main(["density", "--input", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "density: 1\n"


def test_density_over_a_fiber_enumeration_past_the_budget(tmp_path, capsys):
    # B = 2**25 points of the other factor, over the default 2**24 budget
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "format_version": "4",
        "shape": {"p": 2, "k": 2, "dims": [25, 25]},
        "forms": [],
    }))
    assert main(["density", "--input", str(path)]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: fiber enumeration needs 33554432 points, "
        "over the budget of 16777216\n"
    )


def test_running_out_of_memory_is_a_budget_exit(tmp_path):
    # a child lowers its own address-space limit to its size after import
    # plus 256 MiB, then runs density under a 2**30 point budget on two
    # forms at (2,(22,22)): the fiber rows alone take 2 x 22 x 2**22 bytes
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("the child reads its size from /proc/self/statm")
    v = random_variety(random.Random("oom"), Shape(2, (22, 22)), 2, full_support_only=True)
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    child = (
        "import resource, sys\n"
        "from mlvariety import cli\n"
        "with open('/proc/self/statm') as f:\n"
        "    size = int(f.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = size + 256 * 2**20\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    soft = min(soft, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    run = subprocess.run(
        [sys.executable, "-c", child, "density", "--budget", "1073741824", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == EXIT_BUDGET, run.stderr
    assert run.stdout == ""
    assert run.stderr.startswith("out of memory at point budget 1073741824: ")
    assert run.stderr.count("\n") == 1


def test_density_refuses_an_empty_flag_beside_forms(tmp_path, capsys):
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({**DOT_VARIETY, "empty": True}))
    assert main(["density", "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: a variety flagged empty lists forms: ")


def _planted_products(p, dims):
    """Two product forms l_i(x) m_i(y) with l_1, l_2 independent and m_1, m_2
    independent: the zero set is {l_1 = 0 or m_1 = 0} and {l_2 = 0 or m_2 =
    0}, four independent events of probability 1/p, so its density is
    ((2p - 1) / p**2) ** 2 at every dims."""
    shape = Shape(p, dims)
    rng = random.Random(f"planted/{p}/{dims}")
    ls = random_subspace(rng, p, dims[0], 2).basis
    ms = random_subspace(rng, p, dims[1], 2).basis
    v = Variety(shape, [product_form(shape, (0,), l, (1,), m) for l, m in zip(ls, ms)])
    return v, Fraction(2 * p - 1, p**2) ** 2


@pytest.mark.parametrize("p, dims", [(2, (14, 14)), (2, (16, 16)), (3, (10, 10))])
def test_verify_and_density_past_the_point_budget(tmp_path, capsys, p, dims):
    v, c = _planted_products(p, dims)
    assert v.shape.total_points > budget.point_budget()
    var_path = tmp_path / "variety.json"
    var_path.write_text(json.dumps(variety_to_obj(v)))
    out = v.canonical()
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({
        "format_version": "4",
        "input_density": str(c),
        "output_codim": len(out.forms),
        "budget": codim_budget(2, p, c),
        "output": variety_to_obj(out),
        "ledger": [],
    }))
    capsys.readouterr()
    start = time.perf_counter()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
        "--format", "json",
    ]) == EXIT_OK
    assert time.perf_counter() - start < 1
    flags = json.loads(capsys.readouterr().out)
    assert flags == {"containment": True, "nonempty": True, "codim": True,
                     "budget": codim_budget(2, p, c)}
    start = time.perf_counter()
    assert main(["density", "--input", str(var_path)]) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == f"density: {c}\n"


@pytest.mark.parametrize("dims", [(4,), (3, 3), (2, 2, 2), (1, 2, 2, 1)])
def test_certificate_escaping_at_one_point_is_a_verify_exit(tmp_path, capsys, dims):
    """The output is the product of the lines spanned by a_i, one per factor,
    and the input a full-support form with f(a) = 1.  Over F_2 every point
    of the output but a itself has a zero coordinate, where f vanishes, so
    the output leaves the input at exactly one point."""
    shape = Shape(2, dims)
    rng = random.Random(f"escape/{dims}")
    a = tuple(tuple([1] + [rng.randrange(2) for _ in range(n - 1)]) for n in dims)
    f = random_form(rng, shape)
    while brute_eval(f, a) != 1:
        f = random_form(rng, shape)
    v = Variety(shape, (f,))
    lines = Variety(shape, [
        MultilinearForm(shape, (i,), row)
        for i, ai in enumerate(a)
        for row in annihilator(echelonize([ai], 2, len(ai))).basis
    ])
    escaped = np.argwhere(variety_bitmap(lines) & ~variety_bitmap(v))
    assert [tuple(_point_from_index(shape, t)) for t in escaped] == [a]
    cert = dataclasses.replace(
        find_subvariety(v), output=lines, output_codim=len(lines.canonical().forms)
    )
    var_path = tmp_path / "variety.json"
    var_path.write_text(json.dumps(variety_to_obj(v)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(certificate_to_obj(cert)))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
        "--format", "json",
    ]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["containment"] is False


def test_conv_check_success_and_rejection(dot_files, tmp_path):
    _, var_path = dot_files
    assert main(["conv-check", "--input", str(var_path), "--seed", "1"]) == EXIT_OK
    assert main([
        "conv-check", "--input", str(var_path), "--seed", "1", "--bad-count", "9",
    ]) == EXIT_PRECONDITION


def test_conv_check_lists_every_point_without_a_witness(tmp_path, monkeypatch, capsys):
    # x_0[1] = 0, and every translation the search uses lands on the factor-0
    # vector of rank 1, outside the variety: no point has a witness
    form = {"p": 2, "k": 2, "dims": [2, 2], "support": [1], "coeffs": [0, 1]}
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({**DOT_VARIETY, "forms": [form]}))
    constant_shift_tables(monkeypatch, 1)
    assert main(["conv-check", "--input", str(path), "--format", "json"]) == EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert report["success"] is False
    assert report["points_checked"] == 8
    assert report["corners_checked"] == 0
    assert report["failures"] == [
        str(((a, 0), (b, c))) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ]


def test_find_sub_without_a_filling_witness_is_a_verify_exit(tmp_path, monkeypatch, capsys):
    # the variety of the test above: dense_columns finds no witness at the
    # first base point, and find-sub reports it as a construction failure
    form = {"p": 2, "k": 2, "dims": [2, 2], "support": [1], "coeffs": [0, 1]}
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({**DOT_VARIETY, "forms": [form]}))
    constant_shift_tables(monkeypatch, 1)
    assert main(["find-sub", "--input", str(path)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failure: no filling witness at base point ((0, 0),)\n"
    )


def test_conv_check_evaluates_each_form_once(tmp_path, monkeypatch):
    second = {"p": 2, "k": 2, "dims": [2, 2], "support": [2], "coeffs": [1, 1]}
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({**DOT_VARIETY, "forms": [DOT_FORM, second]}))
    seen = count_grid_evaluations(monkeypatch)
    assert main(["conv-check", "--input", str(path)]) == EXIT_OK
    assert len(seen) == 2 and set(seen.values()) == {1}


def test_conv_check_builds_one_bitmap(tmp_path, monkeypatch):
    # the bitmap and codimension that draw the bad set are the ones
    # conv_fill_check checks against
    second = {"p": 2, "k": 2, "dims": [2, 2], "support": [2], "coeffs": [1, 1]}
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({**DOT_VARIETY, "forms": [DOT_FORM, second]}))
    passes = count_bitmap_passes(monkeypatch)
    canonical = Variety.canonical
    calls = []
    monkeypatch.setattr(Variety, "canonical", lambda v: calls.append(v) or canonical(v))
    assert main(["conv-check", "--input", str(path)]) == EXIT_OK
    assert passes == [16]
    assert len(calls) == 1


def test_conv_check_refuses_an_over_cap_count_before_drawing_it(tmp_path, capsys):
    # |V| is above 262,000 here, so the count passes the sampler's own
    # check, and drawing that many points would take seconds
    v = random_variety(random.Random(100), Shape(2, (10, 10)), 2, full_support_only=True)
    assert int(np.count_nonzero(variety_bitmap(v))) >= 262000
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    start = time.perf_counter()
    assert main(["conv-check", "--input", str(path), "--bad-count", "262000"]) == EXIT_PRECONDITION
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "precondition violated: bad set of size 262000 exceeds the allowed 4096 "
        "(k=2, codim=2, |G|=1048576)\n"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conv_check_at_the_benchmark_shape_needs_no_full_scan(tmp_path, monkeypatch, capsys, seed):
    # 2 full-support forms at (2,(7,7)) with the default 64-point bad set:
    # row 0 of the row pass settles every base the zero-offset pre-check
    # rejects, and the report is the one the full scan gives
    v = random_variety(random.Random(seed), Shape(2, (7, 7)), 2, full_support_only=True)
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    argv = ["conv-check", "--input", str(path), "--seed", str(seed), "--format", "json"]
    with monkeypatch.context() as m:
        read = count_row_pass_bases(m)
        assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bad_size"] == 64 and list(read) == [0] and read[0] > 0
    monkeypatch.setattr(variety, "_row_offsets", scan_offsets)
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == report


def test_conv_check_on_a_line_reads_few_rows(tmp_path, monkeypatch, capsys):
    # one form at (2,(16,)) with the default 8,192-point bad set: at arity 1
    # the pre-check tests only the zero offset, so every base it rejects
    # goes to the row pass, and each stops at its first row with a witness,
    # a few dozen rows in at most out of 65,536
    v = random_variety(random.Random(0), Shape(2, (16,)), 1)
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    read = count_row_pass_bases(monkeypatch)
    assert main(["conv-check", "--input", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "codim: 1\n"
        "bad_size: 8192 (cap 8192)\n"
        "points_checked: 32768\n"
        "corners_checked: 65536\n"
        "success: True\n"
    )
    assert read[0] > 0 and max(read) < 64


def test_conv_check_corner_escape_is_a_construction_failure(tmp_path, monkeypatch, capsys):
    # with identity translations the search accepts offset (0,1) in factor
    # 0, whose corner (0,2) at bases with (0,1) there is bad: the re-check
    # catches a fault of the search, not of the input, so the exit is 5
    sh = Shape(3, (2, 2))
    zeros = ((0, 0),)
    bad = PointSet.from_points(sh, [((0, 0),) + zeros, ((0, 2),) + zeros])
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(Variety.full(sh))))
    replace_shift_tables(monkeypatch, lambda p, n: np.arange(p**n))
    monkeypatch.setattr(cli, "random_point_subset", lambda rng, shape, mask, count: bad)
    assert main(["conv-check", "--input", str(path)]) == EXIT_VERIFY
    assert capsys.readouterr().err == (
        "verification failure: witness corner escaped the allowed set\n"
    )


def test_conv_check_rejects_negative_bad_count(dot_files):
    _, var_path = dot_files
    with pytest.raises(SystemExit) as exc:
        main(["conv-check", "--input", str(var_path), "--bad-count", "-3"])
    assert exc.value.code == EXIT_PARSE


@pytest.mark.parametrize("path, value", [
    (["input_density"], "abc"),
    (["input_density"], "1/0"),
    (["input_density"], 0.25),
    (["ledger", -1, "c_prime", "coef"], "1/2/3"),
    (["ledger", -1, "directions", 0, "min_fiber_density"], "3/0"),
    (["ledger"], ["ab"]),
    (["ledger"], {"ab": 1}),
    (["ledger"], "xy"),
    pytest.param(["input_density"], "1" * 5000, id="input_density-over-the-digit-limit"),
])
def test_malformed_rational_in_certificate_is_an_input_error(
    dot_files, tmp_path, capsys, path, value
):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cert_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert "input error:" in capsys.readouterr().err


def _arity_4_files(tmp_path):
    v = random_variety(random.Random(4), Shape(3, (2, 2, 2, 2)), 2, full_support_only=True)
    var_path = tmp_path / "variety.json"
    var_path.write_text(json.dumps(variety_to_obj(v)))
    return var_path, tmp_path / "cert.json"


def test_arity_4_certificate_round_trip(tmp_path, capsys):
    var_path, cert_path = _arity_4_files(tmp_path)
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    assert obj["format_version"] == "5"
    assert obj["verified"] == {"containment": True, "nonempty": True, "codim": True}
    root = obj["ledger"][-1]
    assert root["arity"] == 4
    for key in ("c_prime", "c_double_prime", "epsilon"):
        assert set(root[key]) == {"coef", "p_exp", "c_exp"}
        assert type(root[key]["p_exp"]) is int and type(root[key]["c_exp"]) is int
    # c' = c**(3K + 1) / (2**7 p**(6K)) with K = K(3) = 4960
    assert root["c_prime"] == {"coef": "1/128", "p_exp": -6 * 4960, "c_exp": 3 * 4960 + 1}
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path), "--format", "json",
    ]) == EXIT_OK
    flags = json.loads(capsys.readouterr().out)
    assert flags["containment"] and flags["nonempty"] and flags["codim"]


@pytest.mark.parametrize("key, value", [
    ("p_exp", 1.0),
    ("p_exp", "-4"),
    ("c_exp", 2.5),
    ("c_exp", True),
    ("coef", "abc"),
    ("coef", "1/0"),
    ("coef", "0"),
    ("coef", "-1/8"),
    ("coef", 0.125),
    (None, "1/8"),
])
def test_malformed_monomial_in_certificate_is_an_input_error(dot_files, tmp_path, capsys, key, value):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    if key is None:
        obj["ledger"][-1]["epsilon"] = value
    else:
        obj["ledger"][-1]["epsilon"][key] = value
    cert_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert "input error:" in capsys.readouterr().err


def _forged_certificate(tmp_path, forge):
    """The variety and certificate files of two full-support (3,(4,3,3))
    forms (seed 1), the certificate's wire object edited by forge."""
    v = random_variety(random.Random(1), Shape(3, (4, 3, 3)), 2, full_support_only=True)
    var_path, cert_path = tmp_path / "variety.json", tmp_path / "cert.json"
    var_path.write_text(json.dumps(variety_to_obj(v)))
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    forge(obj["ledger"][-1], obj["ledger"])
    cert_path.write_text(json.dumps(obj))
    return var_path, cert_path


@pytest.mark.parametrize("forge, message", [
    (lambda top, _: top.update(r="abc"), "ledger node 1: r 'abc' is not the derived 0"),
    (lambda top, _: top.update(r=True), "ledger node 1: r True is not the derived 0"),
    (lambda top, _: top.update(s=[1]), "ledger node 1: s [1] is not the derived 13"),
    (lambda top, _: top.update(cylinder_forms={"n": 1}),
     "cylinder_forms must be a JSON integer, got {'n': 1}"),
    (lambda top, _: top.update(clamped="yes"),
     "ledger node 1: clamped 'yes' is not the derived True"),
    (lambda top, _: top.update(arity=-4), "arity must be at least 1, got -4"),
    (lambda top, _: top.update(epsilon=None), "ledger node 1: epsilon None is not the derived "
     "{'coef': '1/2', 'p_exp': -12, 'c_exp': 0}"),
    (lambda top, _: top.update(codim_contribution=1.5),
     "codim_contribution must be a JSON integer, got 1.5"),
    (lambda top, _: top["directions"][0].update(slice_point="zzz"),
     "slice_point must be a JSON array, got 'zzz'"),
    (lambda top, _: top["directions"][0].update(slice_point=[0, 3, 0, 0]),
     "slice_point entries must lie in 0..2, got (0, 3, 0, 0)"),
    (lambda top, _: top["directions"][1].update(direction=17),
     "ledger node 1: directions[1].direction 17 is not the derived 1"),
    (lambda top, _: top.update(extra=1), "ledger node 1: unknown key 'extra'"),
    (lambda top, _: top["directions"][0].update(extra=1),
     "ledger node 1: unknown key 'extra' in directions[0]"),
    # the JSON twin of a derived value, equal to it under Python's ==
    (lambda top, _: top.update(r=0.0), "ledger node 1: r 0.0 is not the derived 0"),
    (lambda top, _: top.update(s=13.0), "ledger node 1: s 13.0 is not the derived 13"),
    (lambda top, _: top["directions"][2].update(base_codim=0.0),
     "ledger node 1: directions[2].base_codim 0.0 is not the derived 0"),
    (lambda top, _: top["directions"][1].update(direction=1.0),
     "ledger node 1: directions[1].direction 1.0 is not the derived 1"),
    (lambda top, _: top["epsilon"].update(p_exp=-12.0),
     "ledger node 1: epsilon.p_exp -12.0 is not the derived -12"),
    (lambda top, _: top.update(clamped=1), "ledger node 1: clamped 1 is not the derived True"),
    (lambda top, _: top.update(clamped=0), "ledger node 1: clamped 0 is not the derived True"),
    (lambda top, _: top["directions"][1].update(clamped=1),
     "ledger node 1: directions[1].clamped 1 is not the derived True"),
    (lambda top, _: top["directions"][1].update(clamped=0),
     "ledger node 1: directions[1].clamped 0 is not the derived True"),
], ids=["r-string", "r-bool", "s-array", "cylinder_forms-object", "clamped-string",
        "arity-negative", "epsilon-null", "codim_contribution-float", "slice_point-string",
        "slice_point-past-p", "direction-past-arity", "unknown-node-key",
        "unknown-direction-key", "r-float", "s-float", "base_codim-float", "direction-float",
        "p_exp-float", "clamped-1", "clamped-0", "direction-clamped-1", "direction-clamped-0"])
def test_a_ledger_field_of_the_wrong_type_is_named(tmp_path, capsys, forge, message):
    var_path, cert_path = _forged_certificate(tmp_path, forge)
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert capsys.readouterr().err == f"input error: {message}\n"


def _found_line_forgery(top, _):
    top.update(c_prime={"coef": "7", "p_exp": 5, "c_exp": 0}, s=0, r=99)


def _swap_direction_indices(top, _):
    first, second = top["directions"][:2]
    first["direction"], second["direction"] = second["direction"], first["direction"]


def _level_fields_on_a_leaf(top, ledger):
    # codim_contribution stays the leaf's own, so its c still fits it
    kept = ("arity", "c", "codim_contribution", "children")
    ledger[0].update({key: top[key] for key in top if key not in kept}, directions=[])


@pytest.mark.parametrize("forge, message", [
    (lambda top, _: top.update(c="0"), "ledger node 1: c 0 is not in (0, 1]"),
    (lambda top, _: top.update(c="3/2"), "ledger node 1: c 3/2 is not in (0, 1]"),
    (lambda top, _: top.update(r=99), "ledger node 1: r 99 is not the derived 0"),
    (lambda top, _: top.update(s=0), "ledger node 1: s 0 is not the derived 13"),
    (lambda top, _: top.update(clamped=not top["clamped"]),
     "ledger node 1: clamped False is not the derived True"),
    (lambda top, ledger: ledger[0].update(c="1/1024"),
     "ledger leaf 0: c 1/1024 is not p**-codim_contribution"),
    (_found_line_forgery, "ledger node 1: r 99 is not the derived 0"),
    (_swap_direction_indices, "ledger node 1: directions[0].direction 1 is not the derived 0"),
    (lambda top, _: top["directions"][2].update(base_codim=1),
     "ledger node 1: directions[2].base_codim 1 is not the derived 0"),
    (lambda top, _: top["directions"][1].update(clamped=False),
     "ledger node 1: directions[1].clamped False is not the derived True"),
    (_level_fields_on_a_leaf, "ledger node 0: r 0 is not the derived None"),
    (lambda top, _: top.update(directions=top["directions"][:2], children=[0, 0]),
     "ledger node 1 has 2 directions at arity 3"),
    (lambda top, ledger: ledger[0].update(arity=1),
     "ledger node 1's sub-level 0 has arity 1 and dims (), not 2 and (3, 3)"),
    (lambda top, _: top["directions"][0]["slice_point"].append(0),
     "the ledger's top has arity 3 and dims (5, 3, 3), not 3 and (4, 3, 3)"),
], ids=["c-0", "c-three-halves", "r-99", "s-0", "clamped-flipped", "first-node-c",
        "c_prime-s-r", "direction-swapped", "base_codim-changed", "direction-clamp-flipped",
        "level-fields-on-a-leaf", "directions-short-of-the-arity", "child-arity",
        "top-dims"])
def test_a_ledger_value_off_its_formulas_or_its_tree_is_named(tmp_path, capsys, forge, message):
    var_path, cert_path = _forged_certificate(tmp_path, forge)
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("forge", [
    lambda top, _: top.update(c="1/3"),
    lambda top, _: top.update(codim_contribution=0),
], ids=["c-one-third", "codim_contribution-0"])
def test_a_ledger_value_that_contradicts_its_formulas_fails_verify(tmp_path, forge):
    """A top whose c is not the input density, or whose codim_contribution
    is not the output's codimension, reads (each is a stored fact) and
    fails verify's codim flag."""
    var_path, cert_path = _forged_certificate(tmp_path, forge)
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_VERIFY


def test_a_certificate_with_its_keys_reordered_still_verifies(tmp_path, capsys):
    """A ledger node whose keys come in another order than the writer's
    differs from it only in its text: the walk finds no difference."""
    var_path, cert_path = _forged_certificate(tmp_path, lambda top, _: None)
    cert_path.write_text(json.dumps(json.loads(cert_path.read_text()), sort_keys=True))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_OK


@pytest.mark.parametrize("version", [None, "6", 3])
def test_unknown_certificate_version_is_an_input_error(dot_files, tmp_path, capsys, version):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    obj["format_version"] = version
    cert_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_PARSE
    assert "format_version" in capsys.readouterr().err


def test_rank_on_a_huge_zero_form_is_a_budget_exit(tmp_path, capsys):
    """The zero-fiber count of this form is 2**20000, about 6,000 digits:
    past Python's int-to-str limit it is refused, not a traceback."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [20000, 1], "support": [1, 2], "coeffs": [0] * 20000,
    }))
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        assert main(["rank", "--input", str(path)]) == EXIT_OK
        return
    assert main(["rank", "--input", str(path)]) == EXIT_BUDGET
    assert "zero-fiber count over at least 2^20000 outer points" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [
    {"p": 2, "k": 2, "dims": [25, 1], "support": [2], "coeffs": [1]},
    {"p": 2, "k": 3, "dims": [1, 1, 30], "support": [1, 2], "coeffs": [1]},
    {"p": 2, "k": 2, "dims": [25, 1], "support": [1, 2], "coeffs": [0] * 25},
])
def test_rank_counts_outer_groups_past_the_budget(tmp_path, capsys, shape):
    """The zero-fiber count scales a count over the support, so an outer
    group of 2**25 or 2**30 points is never enumerated and is not refused."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(shape))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    assert "zero_fiber_identity: holds" in capsys.readouterr().out


@pytest.mark.parametrize("dims", [(14, 14), (10, 10, 10)])
def test_rank_reaches_full_support_forms_past_the_value_grid(tmp_path, capsys, dims):
    """A value grid over the support would need 2**28 or 2**30 points; the
    bias reads slice-matrix ranks and the identity point counts instead."""
    form = random_form(random.Random(71), Shape(2, dims))
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_obj(form)))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    assert "zero_fiber_identity: holds" in capsys.readouterr().out


@pytest.mark.parametrize("p, dims, seed", [
    (2, (20, 20), 71), (5, (5, 5, 5), 1), (2, (12, 12, 12), 1), (2, (14, 16, 16), 17),
    (2, (30, 1), 3),
])
def test_rank_reaches_past_the_fiber_rows(tmp_path, capsys, p, dims, seed):
    """B * n_j fiber rows of the zero fibers would need 2**21 to 2**30
    entries, past the default budget; their count as a variety does not."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_obj(random_form(random.Random(seed), Shape(p, dims)))))
    assert main(["rank", "--input", str(path), "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["zero_fiber_identity"]["holds"] is True


def test_approx_harness(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [2, 2], "support": [1, 2],
        "codomain_dim": 2,
        "components": [[1, 0, 0, 0], [0, 0, 0, 1]],
    }))
    out_path = tmp_path / "phi.json"
    assert main([
        "approx", "--input", str(path), "--s", "2", "--output", str(out_path),
    ]) == EXIT_OK
    text = capsys.readouterr().out
    assert "error_count:" in text
    saved = json.loads(out_path.read_text())
    assert saved["s"] == 2
    assert len(saved["phi"]["components"]) == 2


def test_approx_over_budget_refuses_before_the_fibers(tmp_path, capsys):
    """Each live greedy step sums p terms into each of m * p**(m+1) cells,
    12 * 2**14 = 196,608 here: at one below that the refusal comes before
    any fiber row or value image, and at that budget the approximation
    runs, since the 64 images, of rank at most 6, hold at most 2**6 codes
    each, far below the B * p**m = 262,144 cells of a 64 x 2**12 mask."""
    rng = random.Random(0)
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [6, 6], "support": [1, 2],
        "codomain_dim": 12,
        "components": [[rng.randrange(2) for _ in range(36)] for _ in range(12)],
    }))
    budget.reset_work()
    assert main(["approx", "--input", str(path), "--s", "1", "--budget", "196607"]) == EXIT_BUDGET
    assert "functional scan needs 196608 points, over the budget of 196607" in capsys.readouterr().err
    assert budget.work_points() == 0
    assert main(["approx", "--input", str(path), "--s", "1", "--budget", "196608"]) == EXIT_OK
    assert "error_count:" in capsys.readouterr().out


@pytest.mark.parametrize("p, dims", [(2, (14, 14)), (3, (10, 10)), (2, (16, 16))])
def test_find_sub_on_two_forms_fits_the_default_budget(tmp_path, capsys, p, dims):
    # 2 full-support forms with |G| from 2**28 to 3**20: each live scan step
    # reads a p**2 x (at most p**2 occupied codes) kill table, and the fiber
    # rows fit the budget
    v = random_variety(random.Random(61), Shape(p, dims), 2, full_support_only=True)
    path, cert = tmp_path / "variety.json", tmp_path / "cert.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    assert main(["find-sub", "--input", str(path), "--format", "json",
                 "--output", str(cert)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--certificate", str(cert)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "containment: True\nnonempty: True\ncodim_within_budget: True\n"
    )


def _coordinate_products_file(tmp_path, dims):
    # the coordinate products x_i y_j for i < 2 and all j
    sh = Shape(2, dims)
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(Variety(sh, coordinate_products(sh, 2)))))
    return path


def test_find_sub_on_many_forms_fits_the_default_budget(tmp_path, capsys):
    # 16 forms at (2,(4,8)): each live step transforms 16 * 2**17 cells
    path, cert = _coordinate_products_file(tmp_path, (4, 8)), tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(path), "--output", str(cert)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--certificate", str(cert)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "containment: True\nnonempty: True\ncodim_within_budget: True\n"
    )


def test_find_sub_on_many_forms_refuses_at_the_functional_scan(tmp_path, capsys, monkeypatch):
    # 20 forms at (2,(4,10)): the transform sums 2 terms into each of
    # 20 * 2**21 cells, refused before the value images of the 20-form
    # source are charged
    path = _coordinate_products_file(tmp_path, (4, 10))
    charged = []
    original = budget.charge

    def recording(points, what):
        charged.append(what)
        original(points, what)

    monkeypatch.setattr(budget, "charge", recording)
    assert main(["find-sub", "--input", str(path)]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: functional scan needs 83886080 points, over the budget of 16777216\n"
    )
    assert "fiber rows" in charged and "value images" not in charged


def test_find_sub_on_a_planted_cylinder_fits_the_default_budget(tmp_path, capsys):
    # 8 forms f_i = sum over j < 2 of l_j(x_1) g_ij(x_2, x_3) at (3,(4,4,4)):
    # at the top level the image over each of the 3**8 points of factors 1
    # and 2 holds at most 3**4 codes, where a 3**8 x 3**8 image mask would
    # need 43,046,721 cells
    shape = Shape(3, (4, 4, 4))
    v = Variety(shape, planted_cylinder(random.Random(0), shape, 8, 2))
    path, cert = tmp_path / "variety.json", tmp_path / "cert.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    assert main(["find-sub", "--input", str(path), "--output", str(cert)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--certificate", str(cert)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "containment: True\nnonempty: True\ncodim_within_budget: True\n"
    )


def test_find_sub_with_a_long_fiber_space_refuses_without_forming_its_powers(
        tmp_path, capsys, monkeypatch):
    # one form at (2,(300,1)): the thresholds of the 300-dimensional fibers
    # are ranks, so the ledger arithmetic decides a few signs before the
    # 2**300-point fibers are refused, not hundreds on 300-bit point counts
    v = random_variety(random.Random(0), Shape(2, (300, 1)), 1, full_support_only=True)
    path = tmp_path / "variety.json"
    path.write_text(json.dumps(variety_to_obj(v)))
    calls = count_log_signs(monkeypatch)
    assert main(["find-sub", "--input", str(path)]) == EXIT_BUDGET
    assert len(calls) <= 100
    assert "budget exceeded: fiber rows needs" in capsys.readouterr().err


def test_verify_of_a_ledger_with_a_long_slice_point_clamps_without_powers(
        tmp_path, capsys, monkeypatch):
    # a crafted top over (2,(1,300)) at the non-dyadic c 5/8: its clamps
    # compare the fiber floor with one point of each direction, never with
    # a count over the 2**300 points of the other one, before r, null here,
    # is refused
    shape = Shape(2, (1, 300))
    leaf = dict.fromkeys(["r", "c_prime", "c_double_prime", "epsilon", "s", "cylinder_forms",
                          "clamped", "directions"])
    leaf.update(arity=1, c="1", codim_contribution=0, children=[])
    top = dict(leaf, arity=2, c="5/8", cylinder_forms=0, children=[0, 0], directions=[
        {"slice_point": [0] * n, "min_fiber_density": "1"} for n in shape.dims])
    cert = {"format_version": "5", "input_density": "1", "output_codim": 0, "budget": 0,
            "output": variety_to_obj(Variety.full(shape)), "ledger": [leaf, top]}
    path, cert_path = tmp_path / "variety.json", tmp_path / "cert.json"
    path.write_text(json.dumps(variety_to_obj(Variety.full(shape))))
    cert_path.write_text(json.dumps(cert))
    calls = count_log_signs(monkeypatch)
    assert main(["verify", "--input", str(path), "--certificate", str(cert_path)]) == EXIT_PARSE
    assert len(calls) <= 100
    assert "ledger node 1: r None is not the derived 0" in capsys.readouterr().err


@pytest.mark.parametrize("s, code", [(14000, EXIT_OK), (20000, EXIT_BUDGET), (10**9, EXIT_BUDGET)])
def test_approx_refuses_a_cap_too_long_to_write(tmp_path, capsys, s, code):
    # the cap 2**(4 - s) has 4,214 digits at s = 14000, past Python's 4,300
    # at s = 20000; the refusal comes before any greedy step or power of p
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [2, 2], "support": [1, 2],
        "codomain_dim": 2, "components": [[1, 0, 0, 0], [0, 0, 0, 1]],
    }))
    start = time.perf_counter()
    assert main(["approx", "--input", str(path), "--s", str(s)]) == code
    assert time.perf_counter() - start < 1
    refusal = f"budget exceeded: error cap 2^{4 - s} is too long to write\n"
    assert capsys.readouterr().err == ("" if code == EXIT_OK else refusal)


@pytest.mark.parametrize("command, obj", [
    (["rank"], {"p": 2, "k": 2, "dims": [2, 2], "support": [0, 2], "coeffs": [1, 0, 0, 1]}),
    (["approx", "--s", "1"], {"p": 2, "k": 2, "dims": [2, 2], "support": [0, 2],
                              "codomain_dim": 1, "components": [[1, 0, 0, 1]]}),
])
def test_a_zero_support_index_is_refused_for_forms_and_maps(tmp_path, capsys, command, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([command[0], "--input", str(path), *command[1:]]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == "precondition violated: support indices are 1-based\n"


def test_approx_refuses_a_negative_s_as_a_usage_error(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [2, 2], "support": [1, 2],
        "codomain_dim": 2, "components": [[1, 0, 0, 0], [0, 0, 0, 1]],
    }))
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--input", str(path), "--s", "-1"])
    assert exc.value.code == EXIT_PARSE
    assert "--s must be a non-negative integer, got -1" in capsys.readouterr().err


def test_approx_empty_codomain_output(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 3, "k": 2, "dims": [1, 1], "support": [2],
        "codomain_dim": 0, "components": [],
    }))
    assert main(["approx", "--input", str(path), "--s", "2", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "s": 2,
        "error_count": 0,
        "error_cap": "1",
        "survivors_per_step": [0, 0],
        "phi": {
            "p": 3, "k": 2, "dims": [1, 1], "support": [2],
            "codomain_dim": 2, "components": [[0], [0]],
        },
    }


@pytest.mark.parametrize("flags, message", [
    (["--gen", "random-forms", "--count", "2", "--forms", "-3"], "non-negative"),
    (["--gen", "low-prank", "--count", "2", "--terms", "-1"], "non-negative"),
    (["--gen", "product", "--logdensities=-2,1"], "non-negative"),
    (["--gen", "random-forms", "--count", "-4"], "non-negative"),
    (["--gen", "product", "--logdensities", "1,x"], "--logdensities"),
    (["--gen", "random-forms", "--count", "1", "--dims", "2,x"], "--dims"),
])
def test_sweep_rejects_negative_or_malformed_values(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--p", "2", "--dims", "2,2", "--output", str(out)] + flags)
    assert exc.value.code == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--gen", "product", "--logdensities", "1", "--format", "json"], "sweep output is csv"),
    (["--gen", "product"], "product sweeps need --logdensities"),
    (["--gen", "product", "--logdensities", "5"], "total codimension 5 exceeds 4"),
])
def test_sweep_refusals_are_precondition_exits(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--p", "2", "--dims", "2,2", "--output", str(out)] + flags
    ) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition violated: {message}\n"
    assert not out.exists()


def test_sweep_zero_instances_header_only(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--p", "2", "--dims", "2,2", "--gen", "random-forms",
        "--count", "0", "--seed", "5", "--output", str(out),
    ]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("seed,p,k,dims,density")


def test_sweep_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--p", "2", "--dims", "3,3", "--gen", "product",
            "--logdensities", "1,2,3", "--seed", "13"]
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_rank_infinite_analytic_rank(tmp_path, capsys):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [2, 2], "support": [1], "coeffs": [1, 0],
    }))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bias: 0" in out
    assert "analytic_rank: inf" in out


def test_budget_flag_produces_budget_exit(dot_files):
    form_path, _ = dot_files
    assert main(["rank", "--input", str(form_path), "--budget", "2"]) == EXIT_BUDGET


@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_flag_rejects_nonpositive(dot_files, value):
    form_path, _ = dot_files
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--input", str(form_path), "--budget", value])
    assert exc.value.code == EXIT_PARSE


def test_budget_flag_is_scoped_to_its_call(dot_files):
    form_path, _ = dot_files
    assert main(["rank", "--input", str(form_path), "--budget", "2"]) == EXIT_BUDGET
    assert main(["rank", "--input", str(form_path)]) == EXIT_OK


def test_each_subcommand_takes_exactly_its_flags():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: sorted(a.option_strings[-1] for a in p._actions if a.dest != "help")
        for name, p in sub.choices.items()
    }
    common = ["--budget", "--format"]
    assert flags == {
        "rank": sorted(common + ["--input"]),
        "density": sorted(common + ["--input"]),
        "find-sub": sorted(common + ["--input", "--output"]),
        "verify": sorted(common + ["--input", "--certificate"]),
        "conv-check": sorted(common + ["--input", "--seed", "--bad-count"]),
        "approx": sorted(common + ["--input", "--s", "--output"]),
        "sweep": sorted(common + [
            "--seed", "--p", "--dims", "--gen", "--logdensities", "--count",
            "--forms", "--terms", "--output",
        ]),
    }


@pytest.mark.parametrize("command, flags", [
    ("rank", ["--input", "form.json"]),
    ("density", ["--input", "variety.json"]),
    ("verify", ["--input", "variety.json", "--certificate", "cert.json"]),
    ("conv-check", ["--input", "variety.json"]),
])
def test_output_flag_is_a_usage_error_where_nothing_is_written(
    dot_files, tmp_path, capsys, command, flags
):
    # the input files exist (cert.json need not: the parser refuses first)
    args = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--output", str(out)])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --output" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("coeffs", ["a", 0, 0, 1]),
    ("coeffs", [1.7, 0, 0, 1]),
    ("coeffs", [True, 0, 0, 1]),
    ("support", [1.0, 2]),
    ("support", ["1", 2]),
    ("p", 2.0),
    ("p", "2"),
    ("dims", [2, 2.5]),
    ("dims", [True, 2]),
])
def test_non_integer_input_is_an_input_error(tmp_path, capsys, field, value):
    form = dict(DOT_FORM, **{field: value})
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form))
    var_path = tmp_path / "variety.json"
    shape = {"p": 2, "k": 2, "dims": [2, 2]}
    if field in ("p", "dims"):
        shape[field] = value
    var_path.write_text(json.dumps(dict(DOT_VARIETY, shape=shape, forms=[form])))
    assert main(["rank", "--input", str(form_path)]) == EXIT_PARSE
    assert main(["density", "--input", str(var_path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.count("input error:") == 2


def test_huge_dimension_sum_is_a_precondition_exit(tmp_path, capsys):
    """A factor dimension of 10**30 is refused as a bad shape when the
    input is read, before any power of p is formed, by every command."""
    dims = [10**30, 1]
    shape = {"p": 2, "k": 2, "dims": dims}
    files = {
        "form": {**shape, "support": [2], "coeffs": [1]},
        "variety": {"format_version": "4", "shape": shape, "forms": []},
        "map": {**shape, "support": [2], "codomain_dim": 1, "components": [[1]]},
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    cert = tmp_path / "cert.json"
    runs = [
        ["rank", "--input", str(tmp_path / "form.json")],
        ["density", "--input", str(tmp_path / "variety.json")],
        ["find-sub", "--input", str(tmp_path / "variety.json"), "--output", str(cert)],
        ["verify", "--input", str(tmp_path / "variety.json"),
         "--certificate", str(tmp_path / "variety.json")],
        ["conv-check", "--input", str(tmp_path / "variety.json")],
        ["approx", "--input", str(tmp_path / "map.json"), "--s", "1"],
        ["sweep", "--dims", ",".join(map(str, dims)), "--logdensities", "1"],
    ]
    for argv in runs:
        start = time.perf_counter()
        assert main(argv) == EXIT_PRECONDITION, argv
        assert time.perf_counter() - start < 1, argv
    err = capsys.readouterr().err
    assert err.count("precondition violated: factor dimensions sum to") == len(runs)
    assert not cert.exists()


def test_output_config_hashes_the_input_bytes(dot_files, tmp_path):
    """input_sha256 names the bytes the command parsed: written here with
    spacing and a trailing newline that a re-serialization would drop."""
    _, var_path = dot_files
    var_path.write_text(json.dumps(DOT_VARIETY, indent=3) + "\n\n")
    map_path = tmp_path / "map.json"
    map_path.write_text(" " + json.dumps({
        "p": 2, "k": 2, "dims": [2, 2], "support": [1, 2],
        "codomain_dim": 1, "components": [[1, 0, 0, 1]],
    }))
    for argv, path in [
        (["find-sub", "--input", str(var_path)], var_path),
        (["approx", "--input", str(map_path), "--s", "1"], map_path),
    ]:
        out = tmp_path / "out.json"
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        config = json.loads(out.read_text())["config"]
        assert config["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": 2, "k": 1, "dims": [1], "support": [1], "coeffs": [1], "\xe9": 0}')
    assert main(["rank", "--input", str(path)]) == EXIT_PARSE
    assert main(["find-sub", "--input", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err.count("is not UTF-8") == 2


def test_huge_coefficients_reduce_mod_p(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(dict(DOT_FORM, coeffs=[2**80 + 1, 0, 2**70, 1])))
    assert main(["rank", "--input", str(path)]) == EXIT_OK
    assert "bias: 1/4" in capsys.readouterr().out


def test_find_sub_artifact_is_reproducible(dot_files, tmp_path):
    _, var_path = dot_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(a)]) == EXIT_OK
    assert main(["find-sub", "--input", str(var_path), "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rows_bounded_by_budget(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--p", "2", "--dims", "3,3", "--gen", "product",
        "--logdensities", "1,2,3", "--seed", "13", "--output", str(out),
    ]) == EXIT_OK
    rows = out.read_text().splitlines()[2:]
    for row in rows:
        cols = row.split(",")
        assert cols[8] == "ok"
        assert int(cols[6]) <= int(cols[7])


def test_sweep_row_over_the_budget(tmp_path):
    # fiber rows hold 64 entries per form and fiber coordinate.  Variety 0
    # passes its extraction (2,129 points), but its verification reads the
    # rows of 2 input and 2 output forms, 1,536 entries, over a 1,000
    # budget: its row records the refusal, with the points the extraction
    # charged before it, and the sweep itself succeeds.  Variety 1's largest
    # pass is its verification's 896 entries
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--p", "2", "--dims", "6,6", "--gen", "random-forms",
        "--count", "2", "--budget", "1000", "--output", str(out),
    ]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert '"budget":1000' in lines[0]
    assert lines[2:] == [
        "0,2,2,6x6,,,,,budget_exceeded,2129",
        "1,2,2,6x6,1/4,2.0,2,61,ok,1869",
    ]


@pytest.mark.parametrize("flags, params", [
    (["--dims", "3,3", "--gen", "product", "--logdensities", "0,1,3,5", "--seed", "2718"],
     [0, 1, 3, 5]),
    (["--dims", "4,4", "--gen", "random-forms", "--count", "3", "--forms", "2", "--seed", "5"],
     [2, 2, 2]),
    (["--dims", "2,2,2", "--gen", "low-prank", "--count", "3", "--terms", "1", "--seed", "3"],
     [1, 1, 1]),
])
def test_sweep_row_costs_what_find_sub_costs(tmp_path, capsys, flags, params):
    # a row runs the extraction and its check, no third count of |V|: its
    # cost_points is find-sub's work counter on the row's variety, and its
    # density column is the certificate's, which the verifier re-counted
    assert main(["sweep", "--p", "2"] + flags) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == len(params)
    shape = Shape(2, tuple(int(n) for n in rows[0][3].split("x")))
    path = tmp_path / "variety.json"
    for cols, param in zip(rows, params):
        assert cols[8] == "ok"
        gen = flags[flags.index("--gen") + 1]
        v = cli._sweep_variety(gen, random.Random(int(cols[0])), shape, param)
        assert cols[4] == str(density(v))
        path.write_text(json.dumps(variety_to_obj(v)))
        budget.reset_work()
        assert main(["find-sub", "--input", str(path)]) == EXIT_OK
        assert int(cols[9]) == budget.work_points()


def test_module_entry_point_runs_the_command_line(capsys):
    argv = ["sweep", "--p", "2", "--dims", "2,2", "--gen", "product", "--logdensities", "0,1,2"]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    run = subprocess.run([sys.executable, "-m", "mlvariety.cli"] + argv,
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_OK, expected, "")


def test_sweep_low_prank_generator(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--p", "2", "--dims", "2,2", "--gen", "low-prank",
        "--count", "4", "--terms", "1", "--seed", "3", "--output", str(out),
    ]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 4
    for cols in rows:
        assert cols[8] == "ok"
        # one factorizable term keeps the zero set at density >= 1/p
        num, _, den = cols[4].partition("/")
        assert 2 * int(num) >= int(den or 1)


@pytest.mark.parametrize("dims", ["0,2", "2,0", "0,1,2", "3,0,2"])
def test_sweep_low_prank_beside_a_factor_of_dimension_0(tmp_path, dims):
    # the only form on such a shape is zero, of partition rank 0: each row
    # is a density-1 ok row
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--p", "2", "--dims", dims, "--gen", "low-prank",
        "--count", "2", "--output", str(out),
    ]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [cols[4:7] + cols[8:] for cols in rows] == [["1", "0.0", "0", "ok", "0"]] * 2


def test_sweep_at_arity_5(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--p", "2", "--dims", "2,2,2,2,2", "--gen", "random-forms",
            "--count", "3", "--seed", "1"]
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# mlvariety-sweep format=5 ")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    for cols in rows:
        assert cols[2] == "5" and cols[8] == "ok"
        assert int(cols[6]) <= int(cols[7])


def test_sweep_reports_the_analytic_rank_below_the_float_range(tmp_path):
    # 251 independent linear forms on F_17^251 leave one point: density
    # 17**-251, whose reciprocal overflows a float
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--p", "17", "--dims", "251", "--gen", "random-forms",
        "--count", "1", "--forms", "251", "--output", str(out),
    ]) == EXIT_OK
    cols = out.read_text().splitlines()[2].split(",")
    assert cols[8] == "ok"
    assert abs(float(cols[5]) - 251) < 1e-9
