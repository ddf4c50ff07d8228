import copy
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlvariety.construct import find_subvariety
from mlvariety.errors import InputFormatError, PreconditionError
from mlvariety.forms import MultilinearForm, Shape
from mlvariety.generators import random_form, random_map, random_support, random_variety
from mlvariety.jsonio import (
    certificate_from_obj,
    certificate_to_obj,
    dumps,
    form_from_obj,
    form_to_obj,
    map_from_obj,
    map_to_obj,
    shape_to_obj,
    variety_from_obj,
    variety_to_obj,
)
from mlvariety.variety import Variety

from helpers import legacy_certificate, monomial_value, small_dims


def test_form_roundtrip_bit_exact():
    rng = random.Random(0)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        sh = Shape(p, small_dims(rng, rng.randrange(1, 4), 6))
        f = random_form(rng, sh, random_support(rng, sh.k))
        obj = form_to_obj(f)
        again = form_from_obj(json.loads(json.dumps(obj)))
        assert again == f
        assert form_to_obj(again) == obj


def test_form_support_is_one_based_on_the_wire():
    sh = Shape(2, (1, 2))
    f = MultilinearForm(sh, (1,), [1, 0])
    obj = form_to_obj(f)
    assert obj["support"] == [2]
    assert obj["coeffs"] == [1, 0]


def test_form_rejects_zero_based_support():
    obj = {"p": 2, "k": 2, "dims": [1, 1], "support": [0], "coeffs": [1]}
    with pytest.raises(PreconditionError):
        form_from_obj(obj)


def test_map_roundtrip():
    rng = random.Random(1)
    sh = Shape(3, (2, 1))
    m = random_map(rng, sh, 3)
    obj = map_to_obj(m)
    assert map_from_obj(json.loads(json.dumps(obj))) == m


def test_variety_roundtrip_and_empty_flag():
    rng = random.Random(2)
    sh = Shape(2, (2, 2))
    v = random_variety(rng, sh, 3)
    obj = variety_to_obj(v)
    assert variety_from_obj(json.loads(json.dumps(obj))) == v
    e = Variety.empty(sh)
    eobj = variety_to_obj(e)
    assert eobj["empty"] is True
    assert variety_from_obj(eobj).is_empty


def test_certificate_roundtrip():
    sh = Shape(2, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(2, dtype=int)),))
    cert = find_subvariety(v)
    obj = certificate_to_obj(cert)
    again = certificate_from_obj(json.loads(json.dumps(obj)))
    assert again == cert
    assert certificate_to_obj(again) == obj
    # c' = c**2 / (2**3 p**2) at arity 2, written as a monomial in c = 5/8
    assert obj["format_version"] == "5"
    assert obj["ledger"][-1]["c_prime"] == {"coef": "1/8", "p_exp": -2, "c_exp": 2}
    assert monomial_value(again.ledger.constants.c_prime) == Fraction(5, 8) ** 2 / (2**3 * 2**2)
    # an empty ledger reads in every version, as no record
    for version in "12345":
        assert certificate_from_obj({**obj, "format_version": version, "ledger": []}).ledger is None


def test_leaves_of_two_shapes_share_one_wire_node():
    # at (2,(2,3)) the slices in directions 0 and 1 lie in F_2^3 and F_2^2;
    # each is the full group, the one leaf (arity 1, c 1, codim 0), which
    # stores no shape, so both sub-levels are one node on the wire
    v = random_variety(random.Random(0), Shape(2, (2, 3)), 1, full_support_only=True)
    cert = find_subvariety(v)
    assert cert.ledger.dims == (2, 3)
    obj = certificate_to_obj(cert)
    assert [node["children"] for node in obj["ledger"]] == [[], [0, 0]]
    assert (obj["ledger"][0]["arity"], obj["ledger"][0]["c"]) == (1, "1")
    assert certificate_from_obj(json.loads(json.dumps(obj))) == cert


@pytest.mark.parametrize("version", ["5", "4"])
def test_certificate_reader_leaves_its_argument_unchanged(version):
    v = random_variety(random.Random(18), Shape(2, (1,) * 5), 1)
    obj = certificate_to_obj(find_subvariety(v))
    if version == "4":
        obj = legacy_certificate(obj, version)
    before = copy.deepcopy(obj)
    certificate_from_obj(obj)
    assert obj == before


def _flag_empty_beside_a_form(obj: dict) -> dict:
    """A copy of a variety object flagged empty that still lists a form."""
    shape = Shape(obj["shape"]["p"], tuple(obj["shape"]["dims"]))
    form = MultilinearForm(shape, (0,), [1] + [0] * (shape.dims[0] - 1))
    return {**obj, "empty": True, "forms": [form_to_obj(form)]}


def test_an_empty_flag_beside_forms_is_refused_by_both_readers():
    sh = Shape(2, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(2, dtype=int)),))
    with pytest.raises(InputFormatError, match="a variety flagged empty lists forms"):
        variety_from_obj(_flag_empty_beside_a_form(variety_to_obj(v)))
    obj = certificate_to_obj(find_subvariety(v))
    obj["output"] = _flag_empty_beside_a_form(obj["output"])
    with pytest.raises(InputFormatError, match="a variety flagged empty lists forms"):
        certificate_from_obj(obj)
    # the writer puts an empty list beside the flag, which reads back
    assert variety_to_obj(Variety.empty(sh))["forms"] == []


def test_form_shape_mismatch_detected():
    sh = Shape(2, (1, 1))
    obj = {"p": 2, "k": 2, "dims": [1, 2], "support": [1, 2], "coeffs": [1, 0]}
    with pytest.raises(PreconditionError):
        form_from_obj(obj, sh)


@pytest.mark.parametrize("read, obj, message", [
    (form_from_obj, {"p": 2, "k": 3, "dims": [1, 1], "support": [1], "coeffs": [1]},
     "k=3 does not match 2 dims"),
    (map_from_obj, {"p": 2, "k": 2, "dims": [1, 1], "support": [1, 2],
                    "codomain_dim": 2, "components": [[1]]},
     "codomain_dim does not match the component count"),
])
def test_wire_counts_must_agree_with_their_lists(read, obj, message):
    with pytest.raises(PreconditionError, match=message):
        read(obj)


def _wire_object(kind):
    """A variety, a map or a certificate on the wire, its reader, and the
    object holding the integer lists of its first form.  A certificate's
    ledger has two nodes, a leaf and the top; in format "4" it has the
    paths "", "0" and "1"."""
    sh = Shape(3, (2, 2))
    v = Variety(sh, (MultilinearForm(sh, (0, 1), np.eye(2, dtype=int)),))
    if kind == "variety":
        obj = variety_to_obj(v)
        return variety_from_obj, obj, obj["forms"][0]
    if kind.startswith("certificate"):
        obj = certificate_to_obj(find_subvariety(v))
        if kind == "certificate-v4":
            obj = legacy_certificate(obj, "4")
        return certificate_from_obj, obj, obj["output"]["forms"][0]
    obj = map_to_obj(random_map(random.Random(3), sh, 2))
    return map_from_obj, obj, {**obj, "coeffs": obj["components"][0]}


@pytest.mark.parametrize("bad", [True, 1.0, None, "1"])
@pytest.mark.parametrize("what", ["coeffs", "dims", "support"])
@pytest.mark.parametrize("kind", ["variety", "map", "certificate"])
def test_integer_lists_name_the_entry_that_is_not_an_integer(kind, what, bad):
    read, obj, lists = _wire_object(kind)
    # the second entry, after a good one
    lists[what][1] = bad
    with pytest.raises(
        InputFormatError, match=re.escape(f"{what} must be a JSON integer, got {bad!r}")
    ):
        read(json.loads(json.dumps(obj)))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.mark.parametrize("kind, path, key", [
    ("variety", (), "shape"),
    ("variety", ("shape",), "p"),
    ("variety", ("shape",), "dims"),
    ("variety", ("forms", 0), "p"),
    ("variety", ("forms", 0), "dims"),
    ("variety", ("forms", 0), "support"),
    ("variety", ("forms", 0), "coeffs"),
    ("map", (), "p"),
    ("map", (), "dims"),
    ("map", (), "support"),
    ("map", (), "components"),
    ("certificate", (), "format_version"),
    ("certificate", (), "output"),
    ("certificate", (), "ledger"),
    ("certificate", (), "input_density"),
    ("certificate", (), "output_codim"),
    ("certificate", (), "budget"),
    ("certificate", ("output",), "shape"),
    ("certificate", ("output", "forms", 0), "coeffs"),
    ("certificate", ("ledger", 0), "c"),
    ("certificate", ("ledger", -1, "epsilon"), "coef"),
    ("certificate", ("ledger", -1, "epsilon"), "p_exp"),
    ("certificate", ("ledger", -1, "directions", 0), "min_fiber_density"),
    ("certificate", ("ledger", -1), "children"),
    ("certificate-v4", ("ledger", 0), "path"),
])
def test_a_missing_required_key_is_named(kind, path, key):
    read, obj, _ = _wire_object(kind)
    del _at(obj, path)[key]
    with pytest.raises(InputFormatError, match=re.escape(f"missing key {key!r}")):
        read(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("kind, path, value, message", [
    ("variety", ("shape",), [3, 2, 2], "shape must be a JSON object, got [3, 2, 2]"),
    ("variety", ("shape", "dims"), "22", "dims must be a JSON array, got '22'"),
    ("variety", ("forms",), "f", "forms must be a JSON array, got 'f'"),
    ("variety", ("forms", 0), [1], "the value holding 'p' must be a JSON object, got [1]"),
    ("variety", ("forms", 0, "support"), "12", "support must be a JSON array, got '12'"),
    ("variety", ("forms", 0, "coeffs"), "1001", "coeffs must be a JSON array, got '1001'"),
    ("map", ("dims",), "22", "dims must be a JSON array, got '22'"),
    ("map", ("components",), "c", "components must be a JSON array, got 'c'"),
    ("map", ("components", 0), "1001", "coeffs must be a JSON array, got '1001'"),
    ("certificate", ("output",), [], "output must be a JSON object, got []"),
    ("certificate", ("ledger",), "l", "ledger must be a JSON array of objects, got 'l'"),
    ("certificate", ("ledger", 0), [], "ledger must be a JSON array of objects"),
    ("certificate", ("ledger", 0, "epsilon"), [],
     "the value holding 'coef' must be a JSON object, got []"),
    ("certificate", ("ledger", 0, "directions"), "x", "directions must be a JSON array, got 'x'"),
    ("certificate", ("ledger", -1, "directions", 0), [1],
     "the value holding 'min_fiber_density' must be a JSON object, got [1]"),
    ("certificate", ("ledger", -1, "children"), "00", "children must be a JSON array, got '00'"),
    ("certificate", ("ledger", -1, "children"), [0, 1.5],
     "children must be a JSON integer, got 1.5"),
    ("certificate", ("ledger", -1, "children"), [0, 1],
     "ledger node 1 lists a child not below 1: [0, 1]"),
    ("certificate", ("ledger", -1, "children"), [-1, 0],
     "ledger node 1 lists a child not below 1: [-1, 0]"),
    ("certificate-v4", ("ledger", 0, "path"), 0, "path must be a JSON string, got 0"),
    ("certificate-v4", ("ledger", 1, "path"), "9", "ledger path '' lacks a child in ['0', '1']"),
    ("certificate-v4", ("ledger", 0, "directions"), [],
     "ledger paths ['', '0', '1'] do not make one tree"),
    ("certificate", ("ledger", -1, "children"), [0],
     "ledger node 1 does not list one child per direction"),
    ("certificate", ("ledger", -1, "directions"), None,
     "ledger node 1 does not list one child per direction"),
    # a top with no sub-levels leaves the old leaf no node's child
    ("certificate", ("ledger", -1), {"c": "1", "children": []},
     "ledger node 0 is neither the top nor a child"),
])
def test_a_value_of_another_json_type_is_named(kind, path, value, message):
    """An object where the format has a list, or a list (or a string) where
    it has an object; a string is never read as a list of its characters.
    So too a ledger whose child indices, child counts or paths do not make
    one tree."""
    read, obj, _ = _wire_object(kind)
    _at(obj, path[:-1])[path[-1]] = value
    with pytest.raises(InputFormatError, match=re.escape(message)):
        read(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_out_of_range_coefficients_reduce_mod_p(p):
    wire = [2**80 + 1, -1, 2**70, 1]
    small = [-1, -p - 2, 7, 0]
    sh = Shape(p, (2, 2))
    for values in (wire, small):
        expected = np.array([c % p for c in values]).reshape(2, 2)
        form = {**shape_to_obj(sh), "support": [1, 2], "coeffs": values}
        v = variety_from_obj({"shape": shape_to_obj(sh), "forms": [form]})
        assert v.forms[0].coeffs.tolist() == expected.tolist()
        m = map_from_obj({**shape_to_obj(sh), "support": [1, 2], "components": [values, values]})
        assert [f.coeffs.tolist() for f in m.components] == [expected.tolist()] * 2


_STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r", "é€", "\U0001f600", "\u2028"]),
)
_SCALARS = st.one_of(
    _STRINGS,
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
        # the one-join path for lists of exact ints
        st.lists(st.integers(-(2**80), 2**80), max_size=5),
    ),
    max_leaves=24,
)


@given(_VALUES)
@settings(max_examples=200, deadline=None)
def test_dumps_writes_the_text_of_json_dumps_with_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)
