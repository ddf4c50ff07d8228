"""JSON formats for forms, maps, varieties and certificates.

Round trips are bit exact: coefficients are flat integer arrays in
lexicographic order with the first support factor outermost, support indices
are 1-based on the wire, and rationals are "numerator/denominator" strings.

Files are UTF-8, and read_json returns the bytes it parsed with the value,
so a caller hashes what it read.  Readers accept only JSON integers where
the format has integers, and only true or false for a variety's optional
"empty" flag: anything else there raises TypeError instead of being
truncated or coerced.  A variety flagged "empty": true lists no forms: the
writer puts "forms": [] beside the flag, and a non-empty "forms" there
raises InputFormatError, in variety files and certificate outputs alike.
A rational that is
not such a string, or has a zero denominator, raises InputFormatError, and so
does a certificate ledger that is not an array of objects.

Since format version "3" the ledger constants c_prime, c_double_prime and
epsilon are exact monomials {"coef": "q", "p_exp": a, "c_exp": e}, the number
q * p**a * c**e with c the record's own "c" and p the output's field; the
coef must be a positive rational string.  Versions "1" and "2" wrote them as
rational strings and still read, each as a monomial with that coef and zero
exponents.  Version "2" dropped an always-true flag from certificates;
version "1" certificates still read, the flag ignored.  FORMAT_VERSION is
shared: variety files and the sweep CSV header carry it too.  Version "4"
keeps the layout of "3" and marks the sweep's cost_points, which from "4"
on count each enumerating pass once, when it runs, and nothing for a cache
hit.
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
from .ledger import SubvarietyCertificate
from .monomial import Monomial
from .variety import Variety

FORMAT_VERSION = "4"
_READABLE_VERSIONS = ("1", "2", "3", "4")


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


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise TypeError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _ints(values, what: str) -> list[int]:
    """values as a list, when every entry is a JSON integer; the entries
    are read one by one only to name the first that is not."""
    if set(map(type, values)) <= {int}:
        return list(values)
    return [_int(x, what) for x in values]


def shape_from_obj(obj) -> Shape:
    shape = Shape(_int(obj["p"], "p"), tuple(_ints(obj["dims"], "dims")))
    if "k" in obj and _int(obj["k"], "k") != shape.k:
        raise PreconditionError(f"k={obj['k']} does not match {len(obj['dims'])} dims")
    return shape


def form_to_obj(form: MultilinearForm) -> dict:
    return {
        **shape_to_obj(form.shape),
        "support": [j + 1 for j in form.support],
        "coeffs": form.coeffs.reshape(-1).tolist(),
    }


def form_from_obj(obj, shape: Shape | None = None) -> MultilinearForm:
    found = shape_from_obj(obj)
    if shape is not None and found != shape:
        raise PreconditionError("form shape does not match the enclosing shape")
    support = tuple(j - 1 for j in _ints(obj["support"], "support"))
    if any(j < 0 for j in support):
        raise PreconditionError("support indices are 1-based")
    return MultilinearForm(found, support, _coeff_array(obj["coeffs"], found.p))


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
    support = tuple(j - 1 for j in _ints(obj["support"], "support"))
    comps = [
        MultilinearForm(shape, support, _coeff_array(row, shape.p))
        for row in obj["components"]
    ]
    if "codomain_dim" in obj and _int(obj["codomain_dim"], "codomain_dim") != len(comps):
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
    shape = shape_from_obj(obj["shape"])
    empty = obj.get("empty", False)
    if type(empty) is not bool:
        raise TypeError(f"empty must be a JSON boolean, got {empty!r:.60}")
    forms = obj.get("forms", [])
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
    if not isinstance(obj, dict):
        raise InputFormatError(f"expected a monomial object, got {obj!r:.60}")
    return Monomial(
        _positive(obj["coef"]), p, c, _int(obj["p_exp"], "p_exp"), _int(obj["c_exp"], "c_exp")
    )


def _convert_ledger_record(record: dict, rational, monomial) -> dict:
    """Copy of a ledger record with rational applied to c and the fiber
    densities, and monomial(value, converted c) to the ledger constants."""
    out = dict(record)
    out["c"] = rational(record["c"])
    for key in ("c_prime", "c_double_prime", "epsilon"):
        if out.get(key) is not None:
            out[key] = monomial(out[key], out["c"])
    if out.get("directions") is not None:
        out["directions"] = [
            {**d, "min_fiber_density": rational(d["min_fiber_density"])}
            for d in out["directions"]
        ]
    return out


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
        "ledger": [
            _convert_ledger_record(r, frac_to_str, monomial) for r in cert.ledger
        ],
    }
    if config is not None:
        out["config"] = config
    return out


def certificate_from_obj(obj) -> SubvarietyCertificate:
    version = obj["format_version"]
    if version not in _READABLE_VERSIONS:
        raise InputFormatError(f"unknown certificate format_version {version!r:.60}")
    output = variety_from_obj(obj["output"])
    ledger = obj["ledger"]
    if not isinstance(ledger, list) or not all(isinstance(r, dict) for r in ledger):
        raise InputFormatError(f"ledger must be a JSON array of objects, got {ledger!r:.60}")
    p = output.shape.p
    if version in ("1", "2"):
        def monomial(value, c):
            return Monomial(_positive(value), p, c)
    else:
        def monomial(value, c):
            return _monomial_from_obj(value, p, c)
    return SubvarietyCertificate(
        input_density=frac_from_str(obj["input_density"]),
        output=output,
        output_codim=_int(obj["output_codim"], "output_codim"),
        budget=_int(obj["budget"], "budget"),
        ledger=tuple(
            _convert_ledger_record(r, frac_from_str, monomial) for r in ledger
        ),
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
    read once.  Bytes that are not UTF-8 raise InputFormatError."""
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8: {exc}") from None
    return json.loads(text), data


def load_json(path):
    return read_json(path)[0]
