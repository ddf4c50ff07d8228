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
The writer writes each field a ledger.Node derives from its properties.
The reader refuses a ledger that is not one tree: a node whose children do
not number its directions (0 when they are null), or a node other than the
top that is no node's child.  Then it reads, with their types, only the
facts a Node stores: arity (at least 1), c, codim_contribution, a level's
cylinder_forms and each direction's slice_point (entries in 0..p-1) and
min_fiber_density.  Each node must fit its tree, and last every other
field must be exactly what the writer writes for the node, in the same
JSON type (true is not 1, 1.0 is not 1) with keys in any order, so an
unknown key or a derived field off its formula is refused, by its path.
Versions "1" to "4" wrote one record per path, "" at the top and P/i below
P in direction i, and still read, through the same checks once the paths
are rebuilt as nodes; a duplicate, missing or unreachable path is refused.
Since "3" the ledger constants c_prime, c_double_prime and epsilon are
exact monomials {"coef": "q", "p_exp": a, "c_exp": e}, the number
q * p**a * c**e with c the record's own "c" and p the output's field, q a
power of 2 as a rational string ("1/8"); "1" and "2" wrote them as
rational strings, each compared by value, and "1" wrote an always-true
flag, ignored.  "4" marked the sweep's cost_points, which count each
enumerating pass once, when it runs, and nothing for a cache hit.
FORMAT_VERSION is shared: variety files and the sweep CSV header carry it
too.
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
from .ledger import Node, SubvarietyCertificate, child_path
from .monomial import Monomial
from .variety import Variety

FORMAT_VERSION = "5"
_READABLE_VERSIONS = ("1", "2", "3", "4", "5")
_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", list: "array", dict: "object"}


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
    if type(obj) is not dict:
        _typed(obj, dict, f"the value holding {key!r}")
    if key not in obj:
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


def _monomial_to_obj(m: Monomial) -> dict:
    """The wire object of m.  Its level is not written: the reader takes p
    from the output and c from the node, the level m is derived at."""
    return {"coef": str(Fraction(2) ** m.two), "p_exp": m.p_exp, "c_exp": m.c_exp}


# A ledger node's wire keys in the order the writer puts them, and its monomials.
_NODE_KEYS = ("arity", "c", "r", "c_prime", "c_double_prime", "epsilon", "s",
              "cylinder_forms", "codim_contribution", "clamped", "directions", "children")
_MONOMIALS = ("c_prime", "c_double_prime", "epsilon")


def _node_to_obj(node: Node, children: list[int]) -> dict:
    """The wire object of node over its sub-levels' indices, its derived
    fields read off node's properties; a leaf's level fields are null."""
    obj = dict(dict.fromkeys(_NODE_KEYS), arity=node.arity, c=str(node.c),
               codim_contribution=node.codim_contribution, children=children)
    if node.slices:
        k = node.constants
        obj.update(
            {key: _monomial_to_obj(getattr(k, key)) for key in _MONOMIALS},
            r=node.r, s=k.s, cylinder_forms=node.cylinder_forms, clamped=k.clamped,
            directions=[
                {"direction": i, "slice_point": list(point),
                 "base_codim": child.codim_contribution,
                 "min_fiber_density": str(density), "clamped": clamped}
                for i, ((point, density), child, clamped)
                in enumerate(zip(node.slices, node.children, node.clamped))
            ],
        )
    return obj


def _ledger_nodes(top: Node) -> list[dict]:
    """The wire ledger of top: its distinct nodes, each once, children first."""
    index, done = {}, {}

    def visit(node: Node) -> int:
        # a node the memo shares is walked once; equal nodes share an index
        if id(node) not in done:
            obj = _node_to_obj(node, [visit(child) for child in node.children])
            done[id(node)] = index.setdefault(json.dumps(obj), (len(index), obj))[0]
        return done[id(node)]

    visit(top)
    return [obj for _, obj in index.values()]


def _directions(obj: dict) -> list:
    directions = obj.get("directions")
    return [] if directions is None else _typed(directions, list, "directions")


def _direction_from_obj(obj, p: int) -> tuple:
    # the density first, so a direction that is no object is named by it
    density = frac_from_str(_field(obj, "min_fiber_density"))
    point = tuple(_ints(_field(obj, "slice_point"), "slice_point"))
    if not all(0 <= t < p for t in point):
        raise InputFormatError(f"slice_point entries must lie in 0..{p - 1}, got {point!r:.60}")
    return point, density


def _node_from_obj(obj: dict, children: tuple, p: int, i: int) -> Node:
    """The Node of wire node i over its sub-levels' Nodes, each stored fact
    read with its type; then, before anything is derived, c in (0, 1], a
    level's directions one per factor, each sub-level one arity lower on
    its dims without that factor, and a leaf's c p**-codim_contribution."""
    arity = _field(obj, "arity", int)
    if arity < 1:
        raise InputFormatError(f"arity must be at least 1, got {arity}")
    c = frac_from_str(_field(obj, "c"))
    slices = tuple(_direction_from_obj(d, p) for d in _directions(obj))
    cylinders = _field(obj, "cylinder_forms", int) if slices else None
    codim = _field(obj, "codim_contribution", int)
    if not 0 < c <= 1:
        raise InputFormatError(f"ledger node {i}: c {c} is not in (0, 1]")
    if slices and len(slices) != arity:
        raise InputFormatError(f"ledger node {i} has {len(slices)} directions at arity {arity}")
    node = Node(p, arity, c, codim, cylinders, slices, children)
    for d, child in enumerate(children):
        dims = node.dims[:d] + node.dims[d + 1:]
        _fit(child, arity - 1, dims, f"ledger node {i}'s sub-level {d}")
    # p**codim is formed only up to the size of c's denominator, which it exceeds there
    if not slices and not (0 <= codim <= c.denominator.bit_length() and c * p**codim == 1):
        raise InputFormatError(f"ledger leaf {i}: c {c} is not p**-codim_contribution")
    return node


def _fit(node: Node, arity: int, dims: tuple, what: str) -> None:
    """Refuse node unless it has this arity and, if a level, these dims."""
    if node.arity != arity or node.slices and node.dims != dims:
        raise InputFormatError(f"{what} has arity {node.arity} and dims {node.dims}, not {arity} "
                               f"and {dims}")


def _difference(got, want, path: str = "") -> str | None:
    """Where the JSON value got first differs from want, or None: types
    differ exactly as JSON's do (true is not 1, 1.0 is not 1), and an
    object's keys may come in any order."""
    kind = type(want)
    if kind is dict and type(got) is dict:
        where = f" in {path}" if path else ""
        for key in want:
            if key not in got:
                return f"missing key {key!r}{where}"
        for key in got:
            if key not in want:
                return f"unknown key {key!r:.60}{where}"
        pairs = [(got[key], want[key], f"{path}.{key}" if path else key) for key in want]
    elif kind is list and type(got) is list and len(got) == len(want):
        pairs = [(g, w, f"{path}[{j}]") for j, (g, w) in enumerate(zip(got, want))]
    elif type(got) is kind and got == want:
        return None
    else:
        return f"{path} {got!r:.60} is not the derived {want!r:.60}"
    return next(filter(None, (_difference(*pair) for pair in pairs)), None)


def _refuse_restated(obj: dict, node: Node, i: int, legacy: bool) -> None:
    """Refuse wire node i unless it is what the writer writes for its Node;
    versions "1" and "2" wrote the monomials as rationals, compared by value."""
    written = _node_to_obj(node, obj["children"])
    if legacy and node.slices:
        for key in _MONOMIALS:
            m = getattr(node.constants, key)
            if m <= frac_from_str(_field(obj, key)) <= m:
                written[key] = obj[key]
    # equal texts are equal JSON values; only a difference walks the node
    difference = json.dumps(obj) != json.dumps(written) and _difference(obj, written)
    if difference:
        raise InputFormatError(f"ledger node {i}: {difference}")


def _ledger_tree(nodes: list[dict], shape, legacy: bool) -> Node | None:
    """The top Node of a wire ledger, which must be one tree: each node
    lists one child per direction, each child index lies below its node's
    own, and every node but the top (the last) is some node's child.  The
    whole tree is checked before any node's fields are read, and every
    node's fit and the top's, the output's shape, before any derived field."""
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
    if not nodes:
        return None
    built = []
    for i, obj in enumerate(nodes):
        kids = tuple(built[j] for j in obj["children"])
        built.append(_node_from_obj(obj, kids, shape.p, i))
    _fit(built[-1], shape.k, shape.dims, "the ledger's top")
    for i, (obj, node) in enumerate(zip(nodes, built)):
        _refuse_restated(obj, node, i, legacy)
    return built[-1]


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
        "input_density": str(cert.input_density),
        "output_codim": cert.output_codim,
        "budget": cert.budget,
        "output": variety_to_obj(cert.output),
        "ledger": _ledger_nodes(cert.ledger) if cert.ledger else [],
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
        ledger=_ledger_tree(nodes, output.shape, version in ("1", "2")),
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
