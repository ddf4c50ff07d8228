"""The legacy corpus: certificates that the trees which defined each older
format wrote (scripts/legacy_corpus.py), read by today's reader, accepted
by `verify`, equal in output to today's finder, and read back equal once
written in today's format."""

import json
from pathlib import Path

import pytest

from mlvariety.cli import EXIT_OK, main
from mlvariety.construct import find_subvariety
from mlvariety.jsonio import (
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    load_json,
    variety_from_obj,
)
from mlvariety.ledger import ledger_paths

CORPUS = Path(__file__).resolve().parent / "data" / "legacy"
# the format each tree wrote; 788e6e2 predates density-1 leaves
VERSIONS = {"62a8d0b": "1", "db953b1": "2", "aca3031": "3", "788e6e2": "4", "af7251b": "4"}
CERTIFICATES = sorted(CORPUS.glob("*-*.json"))


def test_the_corpus_holds_each_tree_and_stays_small():
    names = {path.stem for path in CERTIFICATES}
    assert names == {f"{name}-{commit}" for name in ("p2_33", "p3_433") for commit in VERSIONS} | {
        "p2_11111-af7251b"
    }
    assert sum(path.stat().st_size for path in CORPUS.iterdir()) < 300 * 1024


@pytest.mark.parametrize("path", CERTIFICATES, ids=lambda path: path.stem)
def test_a_legacy_certificate_reads_verifies_and_matches_todays_finder(path):
    name, commit = path.stem.split("-")
    obj = load_json(path)
    assert obj["format_version"] == VERSIONS[commit]
    cert = certificate_from_obj(obj)
    variety_path = CORPUS / f"{name}.json"
    assert main(["verify", "--input", str(variety_path), "--certificate", str(path)]) == EXIT_OK
    today = find_subvariety(variety_from_obj(load_json(variety_path)))
    assert cert.output == today.output
    paths = ledger_paths(cert.ledger)
    if commit == "af7251b":
        assert paths == ledger_paths(today.ledger)
    elif name == "p3_433":
        # the trees before density-1 leaves wrote sub-levels below them
        assert (len(paths), len(ledger_paths(today.ledger))) == (10, 4)


@pytest.mark.parametrize("path", CERTIFICATES, ids=lambda path: path.stem)
def test_a_legacy_certificate_reads_back_equal_once_written(path):
    cert = certificate_from_obj(load_json(path))
    assert certificate_from_obj(json.loads(dumps(certificate_to_obj(cert)))) == cert
