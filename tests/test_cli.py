import json
import random
import sys
import tracemalloc

import pytest

from mlvariety.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_VERIFY,
    main,
)

from helpers import constant_shift_tables, count_grid_evaluations

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
    assert obj["format_version"] == "2"
    assert "containment_verified" not in obj
    assert obj["verified"] == {"containment": True, "nonempty": True, "codim": True}
    assert obj["config"]["command"] == "find-sub"

    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_OK


def test_verify_reads_format_1_certificate(dot_files, tmp_path):
    _, var_path = dot_files
    cert_path = tmp_path / "cert.json"
    assert main(["find-sub", "--input", str(var_path), "--output", str(cert_path)]) == EXIT_OK
    obj = json.loads(cert_path.read_text())
    obj["format_version"] = "1"
    obj["containment_verified"] = True
    cert_path.write_text(json.dumps(obj))
    assert main([
        "verify", "--input", str(var_path), "--certificate", str(cert_path),
    ]) == EXIT_OK


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


def test_verify_empty_input_keeps_the_density_floor(dot_files, tmp_path, capsys):
    """An empty-marker input has no points; the verifier still prices its
    budget at one point (density 1/16 here) and reports the flags, rather
    than rejecting the zero density as a precondition failure."""
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
        "containment": False, "nonempty": True, "codim": True, "budget": 93,
    }


def test_huge_shape_is_a_budget_exit(tmp_path, capsys):
    """|G| = 2**20001 has more digits than Python converts to str; the
    refusal names a power-of-two bound instead of raising."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "format_version": "1",
        "shape": {"p": 2, "k": 2, "dims": [20000, 1]},
        "forms": [],
    }))
    for command in ("density", "find-sub", "conv-check"):
        assert main([command, "--input", str(path)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert err.count("points, over the budget of 16777216") == 3
    if hasattr(sys, "get_int_max_str_digits"):
        assert err.count("needs at least 2^20001 points") == 3


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


def test_conv_check_evaluates_each_form_once(tmp_path, monkeypatch):
    second = {"p": 2, "k": 2, "dims": [2, 2], "support": [2], "coeffs": [1, 1]}
    path = tmp_path / "variety.json"
    path.write_text(json.dumps({**DOT_VARIETY, "forms": [DOT_FORM, second]}))
    seen = count_grid_evaluations(monkeypatch)
    assert main(["conv-check", "--input", str(path)]) == EXIT_OK
    assert len(seen) == 2 and set(seen.values()) == {1}


def test_conv_check_rejects_negative_bad_count(dot_files):
    _, var_path = dot_files
    with pytest.raises(SystemExit) as exc:
        main(["conv-check", "--input", str(var_path), "--bad-count", "-3"])
    assert exc.value.code == EXIT_PARSE


@pytest.mark.parametrize("path, value", [
    (["input_density"], "abc"),
    (["input_density"], "1/0"),
    (["input_density"], 0.25),
    (["ledger", 0, "c_prime"], "1/2/3"),
    (["ledger", 0, "directions", 0, "min_fiber_density"], "3/0"),
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


def test_approx_over_budget_refuses_before_the_kill_table(tmp_path, capsys):
    """p**m * |G_S| = 2**24 is one over the budget: the refusal comes before
    the p**m x (occupied codes) kill table, some 10 MB here, is built."""
    rng = random.Random(0)
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "p": 2, "k": 2, "dims": [6, 6], "support": [1, 2],
        "codomain_dim": 12,
        "components": [[rng.randrange(2) for _ in range(36)] for _ in range(12)],
    }))
    tracemalloc.start()
    try:
        code = main([
            "approx", "--input", str(path), "--s", "1", "--budget", str(2**24 - 1),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BUDGET
    assert "functional scan needs 16777216 points, over the budget of 16777215" in (
        capsys.readouterr().err
    )
    assert peak < 4 << 20


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
