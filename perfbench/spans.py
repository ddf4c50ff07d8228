"""Span tracing for the benchmark, installed from outside the program.

A Tracer wraps the public functions of the mlvariety layers (``field``,
``forms``, ``variety``, ``construct``, ``jsonio`` and ``cli.main``) plus
``Variety.canonical``, and binds each wrapper at every module attribute
that refers to the original function, because the layers import one another
by name (``from .forms import eval_grid``).  Wrappers are bound only inside
``Tracer.installed()``, so an untraced op runs the original code.

Spans are kept in memory as lists and written out when the run ends.  Self
time is a span's duration minus the durations of its child spans; the
program is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# Layer modules and the functions of each that get spans.  None means every
# public function defined in the module.  The cli command handlers stay
# unwrapped so argparse, the input sha256 and printing all land in the self
# time of cli.main.
LAYERS = {
    "field": None,
    "forms": None,
    "variety": None,
    "construct": None,
    "jsonio": None,
    "cli": ("main",),
}

# Per-point helpers run 10^3 to 10^5 times per op; a span on each would
# measure the tracer.  The two lru caches are read through cache_info().
UNTRACED = frozenset({
    "field.as_coords",
    "field.vector_index",
    "field.vector_from_index",
    "field.all_vectors",
    "field.shift_permutation",
    "forms.coerce_point",
})

# Methods wrapped on their class: (module, class, method).
METHODS = (("variety", "Variety", "canonical"),)

# Span record fields.
NAME, OP, PARENT, START, END, CHILD_S, ERROR, QTY = range(8)


def _grid_points(args, kwargs, result):
    form = args[0]
    return form.shape.p ** sum(form.shape.dims[j] for j in form.support)


def _functionals(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["s"]


def _slices_tried(args, kwargs, result):
    # The slice scan stops at the first qualifying slice, so the number of
    # slices tried is the rank of the chosen slice point plus one.
    p = args[0].shape.p
    rank = 0
    for c in result.slice_point:
        rank = rank * p + c
    return rank + 1


def _fill_counts(args, kwargs, result):
    return (result.checked, result.corners_checked, result.checked - len(result.failures))


# Quantities read from a call's arguments and result after its span ends.
MEASURES = {
    "forms.eval_grid": _grid_points,
    "construct.external_approx": _functionals,
    "construct.dense_columns": _slices_tried,
    "variety.conv_fill_check": _fill_counts,
}


class Tracer:
    def __init__(self, package):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._bindings = self._plan(package)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, self.op, parent, 0.0, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                record[START], record[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD_S] += end - start
            if measure is not None:
                record[QTY] = measure(args, kwargs, result)
            return result

        return traced

    def _plan(self, package):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        wrappers = {}
        for short, only in LAYERS.items():
            mod = getattr(package, short)
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or (only is not None and attr not in only)
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[obj] = self._wrap(name, obj)
        modules = [package] + [getattr(package, m) for m in dir(package)
                               if inspect.ismodule(getattr(package, m))]
        bindings = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                if callable(obj) and not isinstance(obj, type) and obj in wrappers:
                    bindings.append((mod, attr, obj, wrappers[obj]))
        for short, cls_name, meth in METHODS:
            cls = getattr(getattr(package, short), cls_name)
            original = cls.__dict__[meth]
            bindings.append((cls, meth, original, self._wrap(f"{short}.{meth}", original)))
        return bindings

    @contextlib.contextmanager
    def installed(self, op):
        """Bind every wrapper for the duration of one op, then restore.

        op is recorded in each span; the benchmark passes (op id, shape).
        """
        self.op = op
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)
            self.op = None

    def by_name(self, ops=None):
        """name -> [calls, self_s, inclusive_s, quantities, errors_leaving_layer],
        over the spans of the given op ids (all when None)."""
        out: dict[str, list] = {}
        for rec in self.spans:
            if ops is not None and rec[OP][0] not in ops:
                continue
            row = out.setdefault(rec[NAME], [0, 0.0, 0.0, [], 0])
            duration = rec[END] - rec[START]
            row[0] += 1
            row[1] += duration - rec[CHILD_S]
            row[2] += duration
            if rec[QTY] is not None:
                row[3].append(rec[QTY])
            layer = rec[NAME].split(".")[0]
            parent_layer = self.spans[rec[PARENT]][NAME].split(".")[0] if rec[PARENT] >= 0 else None
            if rec[ERROR] is not None and parent_layer != layer:
                row[4] += 1
        return out
