"""JSON formats for forms, maps, varieties and certificates.

Round trips are bit exact: coefficients are flat integer arrays in
lexicographic order with the first support factor outermost, support indices
are 1-based on the wire, and rationals are "numerator/denominator" strings.

Files are UTF-8, and read_json returns the bytes it parsed with the value,
so a caller hashes what it read.  A malformed wire value raises
InputFormatError: a missing key, a value of another JSON type (an integer
is never a bool, a float or a string, and "empty" is only true or false;
nothing is truncated or coerced), a rational that is not such a string or
has a zero denominator, and a variety flagged "empty": true that lists
forms (the writer puts "forms": [] beside the flag).

Since format version "5" the ledger lists each distinct level once, the
top last: a node is a level's record plus "children", the indices of its
sub-levels' nodes, one per direction and each below its own, so the ledger
has no cycle.  Equal nodes are written once, whatever paths reach them.
The reader refuses a ledger that is not one tree: a node whose children do
not number its directions (0 when they are null), or a node other than the
top that is no node's child.
Versions "1" to "4" wrote one record per path, "" at the top and P/i below
P in direction i, and still read; a duplicate, missing or unreachable path
is refused.  Since "3" the ledger constants c_prime, c_double_prime and
epsilon are exact monomials {"coef": "q", "p_exp": a, "c_exp": e}, the
number q * p**a * c**e with c the record's own "c" and p the output's field,
q a positive rational string; "1" and "2" wrote them as rational strings,
read with zero exponents, and "1" wrote an always-true flag, ignored.  "4"
marked the sweep's cost_points, which count each enumerating pass once,
when it runs, and nothing for a cache hit.  FORMAT_VERSION is shared:
variety files and the sweep CSV header carry it too.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import InputFormatError, PreconditionError
from .forms import MultilinearForm, MultilinearMap, Shape
from .ledger import SubvarietyCertificate, child_path
from .monomial import Monomial
from .variety import Variety

FORMAT_VERSION = "5"
_READABLE_VERSIONS = ("1", "2", "3", "4", "5")
_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", list: "array", dict: "object"}


def frac_to_str(fr: Fraction) -> str:
    return str(Fraction(fr))


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_from_str(s) -> Fraction:
    """Read a "numerator/denominator" (or integer) string; anything else,
    a zero denominator included, raises InputFormatError."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise InputFormatError(f"expected a rational string like '1/4', got {s!r:.60}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InputFormatError(f"rational {s!r:.60} has a zero denominator") from None
    except ValueError as exc:  # over the int-from-str digit limit
        raise InputFormatError(f"rational {s!r:.60} is too long: {exc}") from None


def shape_to_obj(shape: Shape) -> dict:
    return {"p": shape.p, "k": shape.k, "dims": list(shape.dims)}


def _typed(value, kind: type, what: str):
    """value, if its type is exactly kind (so an int is never a bool)."""
    if type(value) is not kind:
        raise InputFormatError(f"{what} must be a JSON {_JSON_TYPES[kind]}, got {value!r:.60}")
    return value


def _field(obj, key: str, kind: type | None = None):
    """obj[key] from a JSON object obj, of JSON type kind unless kind is None."""
    if key not in _typed(obj, dict, f"the value holding {key!r}"):
        raise InputFormatError(f"missing key {key!r} in {obj!r:.60}")
    return obj[key] if kind is None else _typed(obj[key], kind, key)


def _ints(values, what: str) -> list[int]:
    """values, a JSON array of integers; entries are read one by one only to name a bad one."""
    if set(map(type, _typed(values, list, what))) <= {int}:
        return values
    return [_typed(x, int, what) for x in values]


def shape_from_obj(obj) -> Shape:
    shape = Shape(_field(obj, "p", int), tuple(_ints(_field(obj, "dims"), "dims")))
    if "k" in obj and _field(obj, "k", int) != shape.k:
        raise PreconditionError(f"k={obj['k']} does not match {shape.k} dims")
    return shape


def form_to_obj(form: MultilinearForm) -> dict:
    return {
        **shape_to_obj(form.shape),
        "support": [j + 1 for j in form.support],
        "coeffs": form.coeffs.reshape(-1).tolist(),
    }


def _support(obj) -> tuple[int, ...]:
    support = tuple(j - 1 for j in _ints(_field(obj, "support"), "support"))
    if any(j < 0 for j in support):
        raise PreconditionError("support indices are 1-based")
    return support


def form_from_obj(obj, shape: Shape | None = None) -> MultilinearForm:
    found = shape_from_obj(obj)
    if shape is not None and found != shape:
        raise PreconditionError("form shape does not match the enclosing shape")
    return MultilinearForm(found, _support(obj), _coeff_array(_field(obj, "coeffs"), found.p))


def _coeff_array(values, p: int) -> np.ndarray:
    # the form reduces mod p; an entry past int64 is reduced here, first
    values = _ints(values, "coeffs")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([c % p for c in values], dtype=np.int64)


def map_to_obj(m: MultilinearMap) -> dict:
    return {
        **shape_to_obj(m.shape),
        "support": [j + 1 for j in m.support],
        "codomain_dim": m.codomain_dim,
        "components": [f.coeffs.reshape(-1).tolist() for f in m.components],
    }


def map_from_obj(obj) -> MultilinearMap:
    shape = shape_from_obj(obj)
    support = _support(obj)
    comps = [
        MultilinearForm(shape, support, _coeff_array(row, shape.p))
        for row in _field(obj, "components", list)
    ]
    if "codomain_dim" in obj and _field(obj, "codomain_dim", int) != len(comps):
        raise PreconditionError("codomain_dim does not match the component count")
    return MultilinearMap(shape, support, comps)


def variety_to_obj(v: Variety) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "shape": shape_to_obj(v.shape),
    }
    if v.is_empty:
        out["empty"] = True
    out["forms"] = [form_to_obj(f) for f in v.forms]
    return out


def variety_from_obj(obj) -> Variety:
    shape = shape_from_obj(_field(obj, "shape", dict))
    empty = _typed(obj.get("empty", False), bool, "empty")
    forms = _typed(obj.get("forms", []), list, "forms")
    if empty:
        if forms:
            raise InputFormatError(f"a variety flagged empty lists forms: {forms!r:.60}")
        return Variety.empty(shape)
    return Variety(shape, [form_from_obj(f, shape) for f in forms])


def _monomial_to_obj(m: Monomial, p: int, c: str) -> dict:
    """The wire object of m.  Its level is not written: the reader takes p
    from the output and c from the record, so m must be at that level."""
    if (m.p, frac_to_str(m.c)) != (p, c):
        raise ValueError(f"a monomial at level ({m.p}, {m.c}) in a record at level ({p}, {c})")
    return {"coef": frac_to_str(m.coef), "p_exp": m.p_exp, "c_exp": m.c_exp}


def _positive(text) -> Fraction:
    value = frac_from_str(text)
    if value <= 0:
        raise InputFormatError(f"a ledger constant must be positive, got {text!r:.60}")
    return value


def _monomial_from_obj(obj, p: int, c: Fraction) -> Monomial:
    return Monomial(
        _positive(_field(obj, "coef")), p, c, _field(obj, "p_exp", int), _field(obj, "c_exp", int)
    )


def _convert_ledger_record(record: dict, rational, monomial) -> dict:
    """Copy of a ledger record with rational applied to c and the fiber
    densities, and monomial(value, converted c) to the ledger constants."""
    out = {**record, "c": rational(_field(record, "c"))}
    for key in ("c_prime", "c_double_prime", "epsilon"):
        if out.get(key) is not None:
            out[key] = monomial(out[key], out["c"])
    if out.get("directions") is not None:
        out["directions"] = [
            dict(d, min_fiber_density=rational(_field(d, "min_fiber_density")))
            for d in _field(out, "directions", list)
        ]
    return out


def _ledger_nodes(top: dict, rational, monomial) -> list[dict]:
    """The wire ledger of top: its distinct nodes, each once, children first."""
    index, done = {}, {}

    def visit(record: dict) -> int:
        # a record the memo shares is walked once; equal nodes share an index
        if id(record) not in done:
            node = _convert_ledger_record(record, rational, monomial)
            node["children"] = [visit(child) for child in record["children"]]
            done[id(record)] = index.setdefault(json.dumps(node), (len(index), node))[0]
        return done[id(record)]

    visit(top)
    return [node for _, node in index.values()]


def _ledger_tree(nodes: list[dict]) -> dict | None:
    """The top record of a wire ledger, which must be one tree: each node
    lists one child per direction, each child index lies below its node's
    own, and every node but the top (the last) is some node's child."""
    records, reached = [], set()
    for i, node in enumerate(nodes):
        children = _ints(_field(node, "children"), "children")
        if not all(0 <= j < i for j in children):
            raise InputFormatError(f"ledger node {i} lists a child not below {i}: {children!r:.60}")
        if len(children) != len(node.get("directions") or ()):
            raise InputFormatError(f"ledger node {i} does not list one child per direction")
        reached.update(children)
        records.append({**node, "children": tuple(records[j] for j in children)})
    stray = sorted(set(range(len(nodes) - 1)) - reached)
    if stray:
        raise InputFormatError(f"ledger node {stray[0]} is neither the top nor a child")
    return records[-1] if records else None


def _tree_from_paths(records: list[dict]) -> dict | None:
    """The top record of a version "1" to "4" ledger, one record per path."""
    paths = [_field(record, "path", str) for record in records]
    tree = {}
    # a child's path is longer than its parent's, so it is built first
    for path, record in sorted(zip(paths, records), key=lambda item: -len(item[0])):
        del record["path"]
        kids = [child_path(path, i) for i in range(len(record.get("directions") or ()))]
        if not set(kids) <= tree.keys():
            raise InputFormatError(f"ledger path {path!r:.60} lacks a child in {kids!r:.60}")
        tree[path] = {**record, "children": tuple(map(tree.pop, kids))}
    if len(set(paths)) < len(paths) or list(tree) not in ([], [""]):
        raise InputFormatError(f"ledger paths {sorted(paths)!r:.60} do not make one tree")
    return tree.get("")


def certificate_to_obj(cert: SubvarietyCertificate, config: dict | None = None) -> dict:
    p = cert.output.shape.p

    def monomial(m, c):
        return _monomial_to_obj(m, p, c)

    out = {
        "format_version": FORMAT_VERSION,
        "input_density": frac_to_str(cert.input_density),
        "output_codim": cert.output_codim,
        "budget": cert.budget,
        "output": variety_to_obj(cert.output),
        "ledger": _ledger_nodes(cert.ledger, frac_to_str, monomial) if cert.ledger else [],
    }
    if config is not None:
        out["config"] = config
    return out


def certificate_from_obj(obj) -> SubvarietyCertificate:
    version = _field(obj, "format_version")
    if version not in _READABLE_VERSIONS:
        raise InputFormatError(f"unknown certificate format_version {version!r:.60}")
    output = variety_from_obj(_field(obj, "output", dict))
    ledger = _field(obj, "ledger")
    if type(ledger) is not list or not all(type(r) is dict for r in ledger):
        raise InputFormatError(f"ledger must be a JSON array of objects, got {ledger!r:.60}")
    read_ledger = _ledger_tree if version == FORMAT_VERSION else _tree_from_paths

    def monomial(value, c):
        if version in ("1", "2"):
            return Monomial(_positive(value), output.shape.p, c)
        return _monomial_from_obj(value, output.shape.p, c)

    return SubvarietyCertificate(
        input_density=frac_from_str(_field(obj, "input_density")),
        output=output,
        output_codim=_field(obj, "output_codim", int),
        budget=_field(obj, "budget", int),
        ledger=read_ledger([_convert_ledger_record(r, frac_from_str, monomial) for r in ledger]),
    )


def dumps(obj) -> str:
    """The text of json.dumps(obj, indent=2), joined in one pass.

    Dicts (str keys only), lists, tuples, str, exact ints, None and the
    bools are written here, and a list of exact ints in one join; every
    other value (a float, say) is handed to json.dumps.  On Python 3.10
    and 3.11, json.dumps with an indent leaves the C encoder and resumes a
    generator per value.
    """
    return _indented(obj, "\n")


def _indented(obj, newline: str) -> str:
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(key) + ": " + _indented(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_indented(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)


def dump_json(obj, path) -> None:
    Path(path).write_text(dumps(obj) + "\n")


def read_json(path) -> tuple[object, bytes]:
    """The JSON value in a UTF-8 file and the bytes it was parsed from,
    read once.  Bytes that are not UTF-8 JSON within Python's limits raise InputFormatError."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode()), data
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, or past the digit limit or the stack
        raise InputFormatError(str(exc)) from None


def load_json(path):
    return read_json(path)[0]
