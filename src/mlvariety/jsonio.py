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
top that is no node's child.  Then one node reader reads each field with
its type: no unknown key, level fields all null (a leaf) or all set, arity
at least 1, each direction below it and slice_point entries in 0..p-1.
Versions "1" to "4" wrote one record per path, "" at the top and P/i below
P in direction i, and still read, through the same checks once the paths
are rebuilt as nodes; a duplicate, missing or unreachable path is refused.
Since "3" the ledger constants c_prime, c_double_prime and epsilon are
exact monomials {"coef": "q", "p_exp": a, "c_exp": e}, the number
q * p**a * c**e with c the record's own "c" and p the output's field, q a
positive rational string; "1" and "2" wrote them as rational strings, read
with zero exponents, and "1" wrote an always-true flag, ignored.  "4"
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
from .ledger import Direction, Level, LevelConstants, Node, SubvarietyCertificate, child_path
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


# A ledger node's wire keys in the order the writer puts them, its level
# fields in the order the reader reads them, and a direction's keys.
_NODE_KEYS = ("arity", "c", "r", "c_prime", "c_double_prime", "epsilon", "s",
              "cylinder_forms", "codim_contribution", "clamped", "directions", "children")
_LEVEL_KEYS = ("r", "c_prime", "c_double_prime", "epsilon", "s", "cylinder_forms", "clamped",
               "directions")
_DIRECTION_KEYS = ("direction", "slice_point", "base_codim", "min_fiber_density", "clamped")


def _node_to_obj(node: Node, p: int, children: list[int]) -> dict:
    """The wire object of node over its sub-levels' indices; a leaf's level fields are null."""
    c = frac_to_str(node.c)
    obj = dict(dict.fromkeys(_NODE_KEYS), arity=node.arity, c=c,
               codim_contribution=node.codim_contribution, children=children)
    if node.level is not None:
        level, k = node.level, node.level.constants
        obj.update(
            r=level.r, c_prime=_monomial_to_obj(k.c_prime, p, c),
            c_double_prime=_monomial_to_obj(k.c_double_prime, p, c),
            epsilon=_monomial_to_obj(k.epsilon, p, c), s=k.s,
            cylinder_forms=level.cylinder_forms, clamped=k.clamped,
            directions=[
                {"direction": d.direction, "slice_point": list(d.slice_point),
                 "base_codim": d.base_codim,
                 "min_fiber_density": frac_to_str(d.min_fiber_density), "clamped": d.clamped}
                for d in level.directions
            ],
        )
    return obj


def _ledger_nodes(top: Node, p: int) -> list[dict]:
    """The wire ledger of top: its distinct nodes, each once, children first."""
    index, done = {}, {}

    def visit(node: Node) -> int:
        # a node the memo shares is walked once; equal nodes share an index
        if id(node) not in done:
            obj = _node_to_obj(node, p, [visit(child) for child in node.children])
            done[id(node)] = index.setdefault(json.dumps(obj), (len(index), obj))[0]
        return done[id(node)]

    visit(top)
    return [obj for _, obj in index.values()]


def _known(obj: dict, keys: tuple, what: str) -> None:
    unknown = obj.keys() - set(keys)
    if unknown:
        raise InputFormatError(f"unknown key {min(unknown)!r:.60} in a {what}")


def _directions(obj: dict) -> list:
    directions = obj.get("directions")
    return [] if directions is None else _typed(directions, list, "directions")


def _direction_from_obj(obj, arity: int, p: int) -> Direction:
    # the density first, so a direction that is no object is named by it
    density = frac_from_str(_field(obj, "min_fiber_density"))
    _known(obj, _DIRECTION_KEYS, "direction")
    direction = _field(obj, "direction", int)
    if not 0 <= direction < arity:
        raise InputFormatError(f"direction {direction} is not below the arity {arity}")
    point = tuple(_ints(_field(obj, "slice_point"), "slice_point"))
    if not all(0 <= t < p for t in point):
        raise InputFormatError(f"slice_point entries must lie in 0..{p - 1}, got {point!r:.60}")
    return Direction(direction, point, _field(obj, "base_codim", int), density,
                     _field(obj, "clamped", bool))


def _node_from_obj(obj: dict, children: tuple, p: int, legacy: bool) -> Node:
    """The Node of a wire node over its sub-levels' Nodes, each field read
    with its type; the level fields are all null (a leaf) or all set."""
    _known(obj, _NODE_KEYS, "ledger node")
    arity = _field(obj, "arity", int)
    if arity < 1:
        raise InputFormatError(f"arity must be at least 1, got {arity}")
    c = frac_from_str(_field(obj, "c"))

    def read(key):
        value = _field(obj, key)
        if value is None:
            return None
        if key == "directions":
            return tuple(_direction_from_obj(d, arity, p) for d in value)
        if key in ("c_prime", "c_double_prime", "epsilon"):
            if legacy:
                return Monomial(_positive(value), p, c)
            return Monomial(_positive(_field(value, "coef")), p, c,
                            _field(value, "p_exp", int), _field(value, "c_exp", int))
        return _typed(value, bool if key == "clamped" else int, key)

    values = [read(key) for key in _LEVEL_KEYS]
    nulls = [key for key, value in zip(_LEVEL_KEYS, values) if value is None]
    if 0 < len(nulls) < len(values):
        raise InputFormatError(f"ledger level field {nulls[0]!r} is null beside set ones")
    r, c_prime, c_dd, epsilon, s, cylinders, clamped, directions = values
    constants = LevelConstants(c_prime, c_dd, epsilon, s, clamped)
    level = None if nulls else Level(r, constants, cylinders, directions)
    return Node(arity, c, _field(obj, "codim_contribution", int), level, children)


def _ledger_tree(nodes: list[dict], p: int, legacy: bool) -> Node | None:
    """The top Node of a wire ledger, which must be one tree: each node
    lists one child per direction, each child index lies below its node's
    own, and every node but the top (the last) is some node's child.  The
    whole tree is checked before any node's fields are read."""
    reached = set()
    for i, obj in enumerate(nodes):
        children = _ints(_field(obj, "children"), "children")
        if not all(0 <= j < i for j in children):
            raise InputFormatError(f"ledger node {i} lists a child not below {i}: {children!r:.60}")
        if len(children) != len(_directions(obj)):
            raise InputFormatError(f"ledger node {i} does not list one child per direction")
        reached.update(children)
    stray = sorted(set(range(len(nodes) - 1)) - reached)
    if stray:
        raise InputFormatError(f"ledger node {stray[0]} is neither the top nor a child")
    built = []
    for obj in nodes:
        built.append(_node_from_obj(obj, tuple(built[j] for j in obj["children"]), p, legacy))
    return built[-1] if built else None


def _nodes_from_paths(records: list[dict]) -> list[dict]:
    """The wire nodes of a version "1" to "4" ledger, one record per path,
    children first: copies of the records, sub-level indices for paths."""
    paths = [_field(record, "path", str) for record in records]
    nodes, index = [], {}
    # a child's path is longer than its parent's, so it is listed first
    for path, record in sorted(zip(paths, records), key=lambda item: -len(item[0])):
        kids = [child_path(path, i) for i in range(len(_directions(record)))]
        if not set(kids) <= index.keys():
            raise InputFormatError(f"ledger path {path!r:.60} lacks a child in {kids!r:.60}")
        node = {key: value for key, value in record.items() if key != "path"}
        nodes.append({**node, "children": [index.pop(kid) for kid in kids]})
        index[path] = len(nodes) - 1
    if len(set(paths)) < len(paths) or list(index) not in ([], [""]):
        raise InputFormatError(f"ledger paths {sorted(paths)!r:.60} do not make one tree")
    return nodes


def certificate_to_obj(cert: SubvarietyCertificate, config: dict | None = None) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "input_density": frac_to_str(cert.input_density),
        "output_codim": cert.output_codim,
        "budget": cert.budget,
        "output": variety_to_obj(cert.output),
        "ledger": _ledger_nodes(cert.ledger, cert.output.shape.p) if cert.ledger else [],
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
    nodes = ledger if version == FORMAT_VERSION else _nodes_from_paths(ledger)
    return SubvarietyCertificate(
        input_density=frac_from_str(_field(obj, "input_density")),
        output=output,
        output_codim=_field(obj, "output_codim", int),
        budget=_field(obj, "budget", int),
        ledger=_ledger_tree(nodes, output.shape.p, version in ("1", "2")),
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
