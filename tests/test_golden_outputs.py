"""One digest over a fixed list of small in-process CLI runs.

Each run contributes its argv, exit code, stdout, stderr, the bytes of the
file it wrote (if any) and the work counter.  The runs cover find-sub then
verify, conv-check, approx, rank, density and one sweep per generator, over
p in {2, 3, 5} and arity 1 to 5, with exits 2, 3, 4 and 5 among them, two
verifies and one density on a variety whose |G| is past the point budget,
a find-sub then verify whose certificate has no clamped level, and a
find-sub then verify on 16 forms, where the external approximation
shortens the defining list.  A refactor that keeps every output
byte-identical keeps GOLDEN_SHA256; a change meant to alter an output
re-pins it from the failure message.  A second test re-reads each JSON
file and JSON stdout the runs write and checks that jsonio.dumps and
json.dumps with indent=2 both write it back to the same text.

    PYTHONPATH=src python tests/test_golden_outputs.py DIR

writes the inputs into DIR, runs there, and prints each run's record as one
JSON line, the exact bytes the digest takes in.  Running it on two source
trees and diffing the two outputs shows which runs a re-pin moves.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

from mlvariety import budget
from mlvariety.cli import main
from mlvariety.forms import Shape
from mlvariety.generators import random_form, random_map, random_variety
from mlvariety.jsonio import dumps, form_to_obj, map_to_obj, variety_to_obj
from mlvariety.variety import Variety

from helpers import coordinate_products

GOLDEN_SHA256 = "3a635eebd36bef033c109dce9a15dd6d419cae693e542186d64bd6a0b2dcffd2"

# (file stem, p, dims, forms, seed) for the varieties find-sub extracts from
VARIETIES = [
    ("p2_k1", 2, (4,), 1, 11),
    ("p2_k2", 2, (3, 3), 2, 12),
    ("p3_k2", 3, (2, 2), 1, 13),
    ("p5_k2", 5, (1, 2), 1, 14),
    ("p2_k3", 2, (2, 2, 2), 2, 15),
    ("p3_k3", 3, (1, 1, 2), 1, 16),
    ("p2_k4", 2, (1, 2, 1, 2), 1, 17),
    ("p2_k5", 2, (1, 1, 1, 1, 1), 1, 18),
]


def _write_inputs():
    def put(name, obj):
        Path(name).write_text(json.dumps(obj))

    for stem, p, dims, forms, seed in VARIETIES:
        v = random_variety(random.Random(seed), Shape(p, dims), forms)
        put(f"{stem}.json", variety_to_obj(v))
    put("full_p2_33.json", variety_to_obj(Variety.full(Shape(2, (3, 3)))))
    put("full_p3_22.json", variety_to_obj(Variety.full(Shape(3, (2, 2)))))
    put("full_p2_222.json", variety_to_obj(Variety.full(Shape(2, (2, 2, 2)))))
    codim1 = random_variety(random.Random(31), Shape(2, (4, 4)), 1, full_support_only=True)
    put("codim1_p2_44.json", variety_to_obj(codim1))
    put("empty.json", variety_to_obj(Variety.empty(Shape(2, (1, 1)))))
    put("form_p2.json", form_to_obj(random_form(random.Random(41), Shape(2, (2, 2)))))
    put("form_p3.json", form_to_obj(random_form(random.Random(42), Shape(3, (1, 1, 2)))))
    put("form_p5.json", form_to_obj(random_form(random.Random(43), Shape(5, (1, 2)))))
    put("map_p2.json", map_to_obj(random_map(random.Random(51), Shape(2, (2, 2)), 2)))
    put("map_p3.json", map_to_obj(random_map(random.Random(52), Shape(3, (1, 2)), 2)))
    Path("broken.json").write_text("{not json")
    # |G| = 2**28, past the default budget.  The certificates' output is the
    # input's canonical forms; its density was counted separately, one
    # 2-row rank over F_2 per point of factor 1.  The first claims the
    # budget 0, the second the budget of that density
    wide = random_variety(random.Random(61), Shape(2, (14, 14)), 2, full_support_only=True)
    put("wide_p2_1414.json", variety_to_obj(wide))
    for name, claimed in (("cert_wide_p2_1414.json", 0), ("cert_wide_budget_p2_1414.json", 61)):
        put(name, {
            "format_version": "4",
            "input_density": "16389/65536",
            "output_codim": 2,
            "budget": claimed,
            "output": variety_to_obj(wide.canonical()),
            "ledger": [],
        })
    # |G| = 2**36: the first certificate with no clamped level, found and
    # verified at a budget that admits its 18,874,368 fiber-row entries
    deep = random_variety(random.Random(61), Shape(2, (18, 18)), 2, full_support_only=True)
    put("unclamped_p2_1818.json", variety_to_obj(deep))
    # the coordinate products x_i y_j for i < 2, whose zero set 8 forms cut out
    products = Shape(2, (4, 8))
    put("products_p2_48.json", variety_to_obj(Variety(products, coordinate_products(products, 2))))


def _runs():
    for stem, *_ in VARIETIES:
        cert = f"cert_{stem}.json"
        yield ["find-sub", "--input", f"{stem}.json", "--format", "json", "--output", cert]
        yield ["verify", "--input", f"{stem}.json", "--certificate", cert]
    yield ["verify", "--input", "p2_k2.json", "--certificate", "cert_p2_k1.json"]
    yield ["verify", "--input", "full_p2_33.json", "--certificate", "cert_p2_k2.json"]
    yield ["conv-check", "--input", "p2_k2.json", "--format", "json"]
    yield ["conv-check", "--input", "full_p2_33.json", "--seed", "3", "--format", "json"]
    yield ["conv-check", "--input", "full_p3_22.json", "--seed", "4"]
    yield ["conv-check", "--input", "full_p2_222.json", "--bad-count", "1"]
    yield ["conv-check", "--input", "codim1_p2_44.json", "--seed", "5", "--format", "json"]
    yield ["conv-check", "--input", "p5_k2.json", "--bad-count", "0"]
    yield ["conv-check", "--input", "p2_k4.json"]
    yield ["conv-check", "--input", "full_p2_33.json", "--bad-count", "5"]
    yield ["approx", "--input", "map_p2.json", "--s", "2", "--output", "approx_p2.json"]
    yield ["approx", "--input", "map_p3.json", "--s", "1", "--format", "json"]
    yield ["rank", "--input", "form_p2.json"]
    yield ["rank", "--input", "form_p3.json", "--format", "json"]
    yield ["rank", "--input", "form_p5.json"]
    yield ["density", "--input", "p3_k3.json"]
    yield ["density", "--input", "p2_k5.json", "--format", "json"]
    yield ["sweep", "--p", "2", "--dims", "2,2", "--gen", "product", "--logdensities", "0,1,2"]
    yield ["sweep", "--seed", "7", "--p", "3", "--dims", "1,2", "--gen", "random-forms",
           "--count", "2", "--forms", "1"]
    yield ["sweep", "--seed", "9", "--p", "2", "--dims", "2,1,1", "--gen", "low-prank",
           "--count", "2", "--output", "sweep_lowprank.csv"]
    yield ["find-sub", "--input", "empty.json"]
    yield ["find-sub", "--input", "p2_k2.json", "--budget", "10"]
    yield ["density", "--input", "broken.json"]
    yield ["verify", "--input", "wide_p2_1414.json", "--certificate", "cert_wide_p2_1414.json"]
    yield ["verify", "--input", "wide_p2_1414.json", "--certificate",
           "cert_wide_budget_p2_1414.json"]
    yield ["density", "--input", "wide_p2_1414.json", "--format", "json"]
    yield ["find-sub", "--input", "unclamped_p2_1818.json", "--format", "json",
           "--output", "cert_unclamped_p2_1818.json", "--budget", "33554432"]
    yield ["verify", "--input", "unclamped_p2_1818.json", "--certificate",
           "cert_unclamped_p2_1818.json", "--budget", "33554432"]
    yield ["find-sub", "--input", "products_p2_48.json", "--format", "json",
           "--output", "cert_products_p2_48.json"]
    yield ["verify", "--input", "products_p2_48.json", "--certificate", "cert_products_p2_48.json"]


def golden_records():
    """Write the inputs into the working directory, run every argv there and
    yield each run's record as the JSON line the digest takes in."""
    _write_inputs()
    for argv in _runs():
        budget.reset_work()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = {
            "argv": argv,
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "work_points": budget.work_points(),
        }
        if "--output" in argv:
            record["file"] = Path(argv[argv.index("--output") + 1]).read_text()
        yield json.dumps(record, sort_keys=True)


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    codes = set()
    for line in golden_records():
        codes.add(json.loads(line)["exit"])
        digest.update(line.encode())
    assert codes == {0, 2, 3, 4, 5}
    assert digest.hexdigest() == GOLDEN_SHA256


def test_golden_json_outputs_redump_to_the_same_bytes(tmp_path, monkeypatch):
    # every JSON file and JSON stdout the runs write is the text dumps and
    # json.dumps with indent=2 give for the value it holds, one newline after
    monkeypatch.chdir(tmp_path)
    texts = []
    for line in golden_records():
        record = json.loads(line)
        argv = record["argv"]
        if "--format" in argv and argv[argv.index("--format") + 1] == "json" and record["stdout"]:
            texts.append(record["stdout"])
        if "--output" in argv and argv[argv.index("--output") + 1].endswith(".json"):
            texts.append(record["file"])
    assert len(texts) == 28
    for text in texts:
        value = json.loads(text)
        assert dumps(value) + "\n" == json.dumps(value, indent=2) + "\n" == text


if __name__ == "__main__":
    root = Path(sys.argv[1])
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    for line in golden_records():
        print(line)
