"""Batch front door: rank reports, densities, subvariety certificates,
filling and approximation harnesses, and deterministic sweep tables.

Exit codes:
    0  success (and, for find-sub/verify/conv-check, every flag true)
    2  input-format error, raised only by the readers (also usage errors)
    3  precondition violated (empty variety, oversized bad set, bad shapes)
    4  enumeration budget exceeded, or memory ran out under the point budget
       in force (the stderr line names it)
    5  verification or construction failure
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from . import budget
from .budget import BudgetExceededError
from .construct import external_approx, find_subvariety
from .errors import ConstructionError, InputFormatError, PreconditionError, ZeroBiasError
from .forms import Shape, analytic_rank, bias, partition_rank_search, prank_lower_bound
from .generators import (
    RNG_ID,
    planted_low_prank_form,
    planted_product_variety,
    random_point_subset,
    random_variety,
)
from .jsonio import (
    FORMAT_VERSION,
    certificate_from_obj,
    certificate_to_obj,
    dump_json,
    dumps,
    form_from_obj,
    load_json,
    map_from_obj,
    map_to_obj,
    read_json,
    variety_from_obj,
)
from .fibers import density, verify_certificate, zero_fiber_identity_check
from .variety import Variety, _capped_bad_size, bad_set_cap, conv_fill_check, variety_bitmap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

SWEEP_COLUMNS = (
    "seed",
    "p",
    "k",
    "dims",
    "density",
    "arank",
    "achieved_codim",
    "budget",
    "status",
    "cost_points",
)


def _emit(args, human_lines, obj):
    if args.format == "json":
        print(dumps(obj))
    else:
        for line in human_lines:
            print(line)


def _verified(check) -> dict:
    return {
        "containment": check.containment_ok,
        "nonempty": check.nonempty_ok,
        "codim": check.codim_ok,
    }


def _file_config(command: str, data: bytes) -> dict:
    """The config block of an output file; data are the input's bytes as
    they were parsed."""
    return {
        "command": command,
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "budget": budget.point_budget(),
        "format_version": FORMAT_VERSION,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rank(args) -> int:
    form = form_from_obj(load_json(args.input))
    b = bias(form)
    report = {"bias": str(b)}
    lines = [f"bias: {b}"]
    try:
        report["analytic_rank"] = analytic_rank(b, form.shape.p)
        lines.append(f"analytic_rank: {report['analytic_rank']!r}")
        report["prank_lower_bound"] = prank_lower_bound(b, form.shape.p)
        lines.append(f"prank_lower_bound: {report['prank_lower_bound']}")
    except ZeroBiasError:
        report["analytic_rank"] = "inf"
        lines.append("analytic_rank: inf (bias 0; single-factor support)")
    if form.is_zero() or len(form.support) >= 2:
        result = partition_rank_search(form, b)
        if isinstance(result, tuple):
            report["partition_rank_interval"] = list(result)
            lines.append(f"partition_rank: in [{result[0]}, {result[1]}]")
        else:
            report["partition_rank"] = result
            lines.append(f"partition_rank: {result}")
    else:
        report["partition_rank"] = None
        lines.append("partition_rank: n/a (single-factor support)")
    if form.shape.k >= 2:
        zf = zero_fiber_identity_check(form, b)
        try:
            count, expected = str(zf.zero_fiber_count), str(zf.expected)
        except ValueError:  # past Python's int-to-str digit limit
            raise BudgetExceededError(
                f"zero-fiber count over at least 2^{zf.outer_points.bit_length() - 1} "
                "outer points is too long to write"
            ) from None
        report["zero_fiber_identity"] = {
            "holds": zf.holds,
            "count": zf.zero_fiber_count,
            "expected": expected,
        }
        lines.append(
            f"zero_fiber_identity: {'holds' if zf.holds else 'FAILS'} "
            f"(count={count}, expected={expected})"
        )
    _emit(args, lines, report)
    return EXIT_OK


def cmd_density(args) -> int:
    v = variety_from_obj(load_json(args.input))
    c = density(v)
    _emit(args, [f"density: {c}"], {"density": str(c)})
    return EXIT_OK


def cmd_find_sub(args) -> int:
    wire, data = read_json(args.input)
    v = variety_from_obj(wire)
    cert = find_subvariety(v)
    check = verify_certificate(v, cert)
    obj = certificate_to_obj(cert, config=_file_config("find-sub", data))
    obj["verified"] = _verified(check)
    if args.output:
        dump_json(obj, args.output)
    summary = (
        f"density={cert.input_density} codim={cert.output_codim} "
        f"budget={cert.budget} verified={check.all_ok}"
    )
    _emit(args, [summary], obj)
    return EXIT_OK if check.all_ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    v = variety_from_obj(load_json(args.input))
    cert = certificate_from_obj(load_json(args.certificate))
    check = verify_certificate(v, cert)
    lines = [
        f"containment: {check.containment_ok}",
        f"nonempty: {check.nonempty_ok}",
        f"codim_within_budget: {check.codim_ok}",
    ]
    obj = {**_verified(check), "budget": check.budget}
    _emit(args, lines, obj)
    return EXIT_OK if check.all_ok else EXIT_VERIFY


def cmd_conv_check(args) -> int:
    v = variety_from_obj(load_json(args.input))
    rng = random.Random(args.seed)
    mask = variety_bitmap(v)
    codim = v.codim
    size = int(np.count_nonzero(mask))
    allowed = min(int(bad_set_cap(v.shape, codim)), size)
    count = allowed if args.bad_count is None else args.bad_count
    if count <= size:
        # an over-cap count is refused before it is drawn; a count above |V|
        # gets the sampler's refusal
        _capped_bad_size(v.shape, codim, count)
    bad = random_point_subset(rng, v.shape, mask, count)
    report = conv_fill_check(v, bad, mask, codim)
    lines = [
        f"codim: {report.codim}",
        f"bad_size: {report.bad_size} (cap {report.bad_cap})",
        f"points_checked: {report.checked}",
        f"corners_checked: {report.corners_checked}",
        f"success: {report.success}",
    ]
    obj = {
        "codim": report.codim,
        "bad_size": report.bad_size,
        "bad_cap": str(report.bad_cap),
        "points_checked": report.checked,
        "corners_checked": report.corners_checked,
        "failures": [str(f) for f in report.failures],
        "success": report.success,
    }
    _emit(args, lines, obj)
    return EXIT_OK if report.success else EXIT_VERIFY


def cmd_approx(args) -> int:
    wire, data = read_json(args.input)
    source = map_from_obj(wire)
    # The error cap p**-s |G| is p**e in lowest terms.  Whether it has more
    # digits than Python writes (its default limit where the limit is off)
    # is decided exactly, with no power of p past that limit: 2**|e| alone
    # has more once |e| > 4 * limit.
    p, e = source.shape.p, sum(source.shape.dims) - args.s
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if abs(e) > 4 * limit or p ** abs(e) >= 10**limit:
        raise BudgetExceededError(f"error cap {p}^{e} is too long to write")
    result = external_approx(source, args.s)
    lines = [
        f"functionals: {args.s}",
        f"error_count: {result.error_count} (cap {result.error_cap})",
    ]
    obj = {
        "s": args.s,
        "error_count": result.error_count,
        "error_cap": str(result.error_cap),
        "survivors_per_step": list(result.survivors_per_step),
        "phi": map_to_obj(result.phi),
    }
    if args.output:
        payload = dict(obj)
        payload["config"] = _file_config("approx", data)
        dump_json(payload, args.output)
    _emit(args, lines, obj)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _split_codim(rng: random.Random, dims, total: int) -> list[int]:
    out = [0] * len(dims)
    if total > sum(dims):
        raise PreconditionError(f"total codimension {total} exceeds {sum(dims)}")
    while sum(out) < total:
        i = rng.randrange(len(dims))
        if out[i] < dims[i]:
            out[i] += 1
    return out


def _sweep_variety(gen: str, rng: random.Random, shape: Shape, param: int) -> Variety:
    if gen == "product":
        return planted_product_variety(rng, shape, _split_codim(rng, shape.dims, param))[0]
    if gen == "low-prank":
        return Variety(shape, (planted_low_prank_form(rng, shape, param),))
    return random_variety(rng, shape, param)


def cmd_sweep(args) -> int:
    if args.gen == "product":
        if not args.logdensities:
            raise PreconditionError("product sweeps need --logdensities")
        params = {"logdensities": args.logdensities}
        plan = args.logdensities
    else:
        key = "terms" if args.gen == "low-prank" else "forms"
        params = {"count": args.count, key: getattr(args, key)}
        plan = [params[key]] * args.count
    shape = Shape(args.p, tuple(args.dims))
    config = {
        "seed": args.seed,
        "p": args.p,
        "k": shape.k,
        "dims": shape.dims,
        "generator": args.gen,
        "params": params,
        "budget": budget.point_budget(),
        "rng": RNG_ID,
    }
    header_comment = "# mlvariety-sweep format=" + FORMAT_VERSION + " config=" + json.dumps(
        config, sort_keys=True, separators=(",", ":")
    )
    lines = [header_comment, ",".join(SWEEP_COLUMNS)]
    dims = "x".join(str(n) for n in shape.dims)
    for index, param in enumerate(plan):
        seed = args.seed + index
        row = {"seed": seed, "p": args.p, "k": shape.k, "dims": dims}
        budget.reset_work()
        try:
            v = _sweep_variety(args.gen, random.Random(seed), shape, param)
            cert = find_subvariety(v)
            check = verify_certificate(v, cert)
            row["density"] = str(cert.input_density)
            row["arank"] = repr(analytic_rank(cert.input_density, args.p))
            row["achieved_codim"] = cert.output_codim
            row["budget"] = cert.budget
            row["status"] = "ok" if check.all_ok else "verify_failed"
        except BudgetExceededError:
            row["status"] = "budget_exceeded"
        row["cost_points"] = budget.work_points()
        lines.append(",".join(str(row.get(col, "")) for col in SWEEP_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """Comma-separated integers; a malformed entry is a usage error."""
    return [int(x) for x in text.split(",")] if text else []


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every `main` call
    shares it, so nothing may mutate it after it is built (parsing does
    not)."""
    parser = argparse.ArgumentParser(
        prog="mlvariety",
        description="Exact-arithmetic calculus of multilinear forms and varieties over F_p",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=None,
                        help="point budget override for this call")
    common.add_argument("--format", choices=["text", "json", "csv"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", parents=[common], help="bias and rank report for a form")
    p_rank.add_argument("--input", required=True)
    p_rank.set_defaults(func=cmd_rank)

    p_density = sub.add_parser("density", parents=[common], help="exact density of a variety")
    p_density.add_argument("--input", required=True)
    p_density.set_defaults(func=cmd_density)

    p_find = sub.add_parser("find-sub", parents=[common], help="extract a certified subvariety")
    p_find.add_argument("--input", required=True)
    p_find.add_argument("--output", help="certificate file path")
    p_find.set_defaults(func=cmd_find_sub)

    p_verify = sub.add_parser("verify", parents=[common], help="re-check a certificate")
    p_verify.add_argument("--input", required=True, help="variety file")
    p_verify.add_argument("--certificate", required=True, help="certificate file")
    p_verify.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("conv-check", parents=[common], help="filling-witness harness")
    p_conv.add_argument("--input", required=True)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--bad-count", type=int, default=None)
    p_conv.set_defaults(func=cmd_conv_check)

    p_approx = sub.add_parser("approx", parents=[common], help="external approximation harness")
    p_approx.add_argument("--input", required=True, help="multilinear map file")
    p_approx.add_argument("--s", type=int, required=True, help="number of functionals")
    p_approx.add_argument("--output", help="approximation file path")
    p_approx.set_defaults(func=cmd_approx)

    p_sweep = sub.add_parser("sweep", parents=[common], help="deterministic instance sweep CSV")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--output", help="CSV file path (stdout when absent)")
    p_sweep.add_argument("--p", type=int, default=2)
    p_sweep.add_argument("--dims", type=_int_list, required=True,
                         help="comma-separated factor dimensions")
    p_sweep.add_argument("--gen", choices=["product", "random-forms", "low-prank"],
                         default="product")
    p_sweep.add_argument("--logdensities", type=_int_list, default=None,
                         help="comma-separated planted log_p(1/density) values")
    p_sweep.add_argument("--count", type=int, default=0, help="rows for random generators")
    p_sweep.add_argument("--forms", type=int, default=2, help="forms per random variety")
    p_sweep.add_argument("--terms", type=int, default=2,
                         help="factorizable summands per planted low-prank form")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("bad_count", "count", "forms", "s", "terms"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} must be a non-negative integer, got {value}")
    if any(t < 0 for t in getattr(args, "logdensities", None) or ()):
        parser.error(f"--logdensities must be non-negative integers, got {args.logdensities}")
    saved_budget = budget.point_budget()
    if args.budget is not None:
        if args.budget < 1:
            parser.error(f"--budget must be a positive integer, got {args.budget}")
        budget.set_point_budget(args.budget)
    try:
        sweep = args.func is cmd_sweep
        if args.format == ("json" if sweep else "csv"):
            raise PreconditionError(
                "sweep output is csv" if sweep else "csv output applies to the sweep command only"
            )
        return args.func(args)
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"out of memory at point budget {budget.point_budget()}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConstructionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    finally:
        budget.set_point_budget(saved_budget)


if __name__ == "__main__":
    sys.exit(main())
