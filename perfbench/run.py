"""Closed-loop benchmark of the mlvariety command line.

Each workload is one client running ops back to back in one single-threaded
process.  An op is one or two in-process ``mlvariety.cli.main([...])`` calls
on an input file written during set-up, and every op gets its own seeded
instance.  Every op's output is checked; an op that raises, exits nonzero or
prints a wrong answer counts as failed, with its cause recorded.

    python3 perfbench/run.py --workload extract-p2-bilinear --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from a checkout of the repository: the program is imported from
``src/``.  A run does a fixed number of ops, about ``--seconds`` of them,
and reports times in reference seconds (see SpeedClock).  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with ``--trace 1`` each op runs once untraced and once traced, and
the last line holds the per-layer metrics, the tracing overhead among them.
The spans are written to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "traces"

# setup_s is the median of this many cold set-ups: the run's own and the
# rest each in a fresh process, so that no set-up finds another's caches warm.
# The fresh ones are spread over the timed ops, with the clock stopped, so
# that their median spans the machine's slow and fast phases as the op times
# do.  A set-up is little more than one op, and the phases last seconds.
SETUP_SAMPLES = 3
# The times reported are reference seconds; see SpeedClock.  One calibration
# takes CALIBRATION_REF_S on the reference machine.
CALIBRATION_REF_S = 0.006


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed piece of work in three parts of about equal time, each like
    one kind of code the ops run: integer arithmetic, scalar indexing into a
    numpy array, and reads scattered over a list and a dict of a few megabytes.
    A host that slows one kind more than another moves the sum by the mean
    of their slowdowns."""

    def __init__(self):
        import numpy as np

        self.grid = np.random.default_rng(0).integers(0, 2, (128, 128, 64), dtype=np.uint8).astype(bool)
        self.items = list(range(100_000))
        self.table = {i: 3 * i for i in range(1 << 14)}
        self.reads = [i * 7919 % 100_000 for i in range(3_000)]

    def seconds(self) -> float:
        """Wall seconds the work takes now."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        grid = self.grid
        for i in range(6_000):
            acc += grid[i * 37 % 128, i * 11 % 128, i % 64]
        items, table = self.items, self.table
        for j in self.reads:
            acc += items[j] + table.get(j & 0x3FFF, 0)
        return time.perf_counter() - t0


class SpeedClock:
    """Times calls in reference seconds: wall seconds scaled by how much
    slower or faster than on the reference machine the calibration ran just
    before and just after the call.

    The benchmark runs on shared hosts whose speed shifts by up to 1.7x for
    seconds to minutes at a time.  Wall seconds are kept as well and printed
    beside the metrics.  A call with no calibration before it is scaled by
    the one after it alone; the first call of set-up is such a call, so the
    calibration's own set-up (it imports numpy) stays out of the set-up time.
    """

    def __init__(self):
        self.ref_s: list[float] = []
        self.wall_s: list[float] = []
        self._calibration = None
        self._last = None

    def recalibrate(self):
        self._calibration = self._calibration or Calibration()
        self._last = self._calibration.seconds()

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        before = self._last
        self.recalibrate()
        scale = 2 / (before + self._last) if before is not None else 1 / self._last
        self.wall_s.append(wall)
        self.ref_s.append(wall * CALIBRATION_REF_S * scale)
        return result


# ---------------------------------------------------------------------------
# Loading the program
# ---------------------------------------------------------------------------

class Program:
    """The mlvariety modules the benchmark drives, imported from src/."""

    def __init__(self):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        sys.dont_write_bytecode = True
        self.package = importlib.import_module("mlvariety")
        if src.resolve() not in Path(self.package.__file__).resolve().parents:
            raise ImportError(f"mlvariety was imported from {self.package.__file__}, not {src}")
        for name in ("budget", "cli", "construct", "field", "forms", "generators",
                     "jsonio", "variety"):
            setattr(self, name, importlib.import_module(f"mlvariety.{name}"))


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    index: int
    shape: str          # as "p3:4x3x3"
    arity: int
    path: Path
    args: tuple = ()


@dataclass
class OpResult:
    cause: str | None = None      # None when the op passed its check
    wrong: bool = False           # the program answered, and the answer is wrong
    artifacts: list = field(default_factory=list)
    cert_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.cause is None

    def fail(self, cause: str, wrong: bool = False) -> "OpResult":
        self.cause, self.wrong = cause, wrong
        return self


def run_cli(prog: Program, argv: list[str]):
    """One in-process cli call: (exit code, stdout, exception type or None).

    The exception is caught here, at the op boundary, so a defect that
    escapes cli.main fails the op instead of the run.
    """
    out = io.StringIO()
    rc, exc = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = prog.cli.main(argv)
    except SystemExit as err:
        rc = err.code
    except Exception as err:
        exc = type(err).__name__
    return rc, out.getvalue(), exc


def _step(prog, result: OpResult, argv: list[str]):
    """Run one cli call and record its stdout; None when it failed."""
    rc, out, exc = run_cli(prog, argv)
    result.artifacts.append(f"{argv[0]} rc={rc} exc={exc}\n{out}".encode())
    if exc is not None:
        result.fail(exc)
        return None
    if rc != 0:
        # Exit 5 is the program reporting that its own answer failed checks.
        result.fail(f"{argv[0]} exit {rc}", wrong=rc == 5)
        return None
    return out


def _check_certificate(obj: dict) -> str | None:
    if obj.get("verified") != {"containment": True, "nonempty": True, "codim": True}:
        return f"verified flags {obj.get('verified')}"
    if len(obj["output"]["forms"]) != obj["output_codim"]:
        return "output form count differs from output_codim"
    if obj["output_codim"] > obj["budget"]:
        return "output_codim over budget"
    return None


def extract_op(prog, inst: Instance, work: Path) -> OpResult:
    result = OpResult()
    out = _step(prog, result, ["find-sub", "--input", str(inst.path), "--format", "json"])
    if out is None:
        return result
    result.cert_bytes = len(out.encode())
    problem = _check_certificate(json.loads(out))
    return result.fail(problem, wrong=True) if problem else result


def certify_find_step(prog, inst: Instance, cert: Path, result: OpResult) -> bool:
    """find-sub writing the certificate to a file; True when it checks out."""
    cert.unlink(missing_ok=True)
    if _step(prog, result, ["find-sub", "--input", str(inst.path), "--output", str(cert)]) is None:
        return False
    data = cert.read_bytes()
    result.artifacts.append(data)
    result.cert_bytes = len(data)
    problem = _check_certificate(json.loads(data))
    if problem:
        result.fail(problem, wrong=True)
    return problem is None


def certify_verify_step(prog, inst: Instance, cert: Path, result: OpResult) -> bool:
    """verify reading the certificate back; True when it exits 0."""
    argv = ["verify", "--input", str(inst.path), "--certificate", str(cert)]
    return _step(prog, result, argv) is not None


def certify_op(prog, inst: Instance, work: Path) -> OpResult:
    result = OpResult()
    cert = work / "cert.json"
    if certify_find_step(prog, inst, cert, result):
        certify_verify_step(prog, inst, cert, result)
    return result


def fill_op(prog, inst: Instance, work: Path) -> OpResult:
    result = OpResult()
    argv = ["conv-check", "--input", str(inst.path), "--seed", str(inst.args[0]),
            "--format", "json"]
    out = _step(prog, result, argv)
    if out is None:
        return result
    obj = json.loads(out)
    if obj["success"] is not True or obj["failures"]:
        return result.fail("conv-check reported failures", wrong=True)
    if obj["points_checked"] < 1 or obj["corners_checked"] != obj["points_checked"] * 2 ** inst.arity:
        return result.fail("corner count differs from points_checked * 2^k", wrong=True)
    if obj["bad_size"] > Fraction(obj["bad_cap"]):
        return result.fail("bad set over its cap", wrong=True)
    return result


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    op: object
    shapes: tuple           # (p, dims); op i uses shapes[i % len(shapes)]
    op_s: float             # reference seconds per op that size a run (see pool_size)
    conv_seed: bool = False

    def shape_of(self, i: int):
        return self.shapes[i % len(self.shapes)]


# certify-roundtrip-p3 runs 7 arity-3 ops, then 1 arity-4 op, and repeats.
# The op times are the mean time per op in reference seconds, failed ops
# included, over 30-second runs on a shared 2-CPU Xeon container; certify's
# is set about 40% above its mean of 0.52 s, so that with its three 3-second
# set-ups its runs take about as long as the others'.
_CERTIFY_SHAPES = ((3, (4, 3, 3)),) * 7 + ((3, (2, 2, 2, 2)),)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("extract-p2-bilinear", extract_op, ((2, (10, 10)),), 0.9),
        Workload("certify-roundtrip-p3", certify_op, _CERTIFY_SHAPES, 0.72),
        Workload("fill-check-p2", fill_op, ((2, (7, 7)),), 0.42, conv_seed=True),
    )
}


def make_instance(prog, w: Workload, stream: str, shape, path: Path, index: int = -1) -> Instance:
    """Write one 2-form variety of full-support forms, drawn from the named
    random stream, as JSON."""
    rng = random.Random(f"{w.name}/{stream}")
    p, dims = shape
    v = prog.generators.random_variety(rng, prog.forms.Shape(p, dims), 2, full_support_only=True)
    prog.jsonio.dump_json(prog.jsonio.variety_to_obj(v), path)
    args = (rng.randrange(2**31),) if w.conv_seed else ()
    return Instance(index, f"p{p}:" + "x".join(map(str, dims)), len(dims), path, args)


def generate(prog, w: Workload, seed: int, count: int, work: Path) -> list[Instance]:
    """Write the instances of ops 0 .. count - 1."""
    return [make_instance(prog, w, f"{seed}/{i}", w.shape_of(i), work / "inputs" / f"{i}.json", i)
            for i in range(count)]


def pool_size(w: Workload, seconds: float, trace: bool) -> int:
    """Ops in a run, one instance each, written at set-up: whole rounds of
    shapes that take about --seconds untraced, or about --seconds traced and
    untraced together.  The count depends only on --seconds, so two runs at
    one seed do the same ops however fast the machine runs them."""
    n_ops = math.ceil(seconds / (w.op_s if not trace else 2 * w.op_s))
    return -(-n_ops // len(w.shapes)) * len(w.shapes)


def set_up(w: Workload, seed: int, size: int, work: Path):
    """Import the program, write the pool and run one untimed op per distinct
    shape: (program, pool, reference seconds taken, wall seconds taken).

    The untimed ops use instances that do not depend on the seed, so set-up
    does the same work at every seed.
    """
    clock = SpeedClock()
    prog = clock.time(Program)
    (work / "inputs").mkdir(parents=True)
    pool = clock.time(generate, prog, w, seed, size, work)
    for shape in dict.fromkeys(w.shapes):
        inst = make_instance(prog, w, f"warmup/{shape}", shape, work / "inputs" / "warmup.json")
        clock.time(w.op, prog, inst, work)
    return prog, pool, sum(clock.ref_s), sum(clock.wall_s)


def cold_set_up_s(w: Workload, seed: int, seconds: float) -> tuple[float, float]:
    """Reference and wall seconds of one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", w.name, "--seed", str(seed),
         "--seconds", str(seconds), "--set-up-only"],
        stdout=subprocess.PIPE, text=True, timeout=150, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["wall_s"]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def op_digest(inst: Instance, result: OpResult) -> bytes:
    h = hashlib.sha256(inst.path.read_bytes())
    for blob in result.artifacts:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    h.update(f"cause={result.cause}".encode())
    return h.digest()


def run_digest(op_digests: list[bytes]) -> str:
    h = hashlib.sha256()
    for d in op_digests:
        h.update(d)
    return h.hexdigest()


def timed_run(prog, w, seed, pool, work, seconds, setup):
    """Every op of the pool, one after another: (clock, results, cold
    set-ups).  The clock stops for the fresh cold set-ups."""
    clock, results, setups = SpeedClock(), [], [setup]
    clock.recalibrate()
    for inst in pool:
        results.append(clock.time(w.op, prog, inst, work))
        if len(setups) < SETUP_SAMPLES and len(results) >= len(pool) * len(setups) / SETUP_SAMPLES:
            setups.append(cold_set_up_s(w, seed, seconds))
            clock.recalibrate()
    return clock, results, setups


def end_to_end(times, results, setup_s):
    n = len(results)
    ok = sum(r.ok for r in results)
    total = sum(times)
    # A failed op counts as the slowest possible op: one that takes the run.
    ranked = sorted(t if r.ok else total for t, r in zip(times, results))
    # The highest rank with ten ops beyond it; the slowest op in a short run.
    tail_rank = n - 11 if n > 10 else n - 1
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(ranked), "s"),
        "op_tail_s": (ranked[tail_rank], "s"),
        "ops_per_s": (ok / total, "1/s"),
        "ok_share": (ok / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, f"op_tail_s is p{100 * (tail_rank + 1) / n:.0f} of {n} ops"


def traced_run(prog, w, pool, work):
    """Each op untraced and traced.  Which goes first alternates per round of
    shapes, so that every shape runs first traced as often as untraced."""
    from spans import Tracer

    tracer = Tracer(prog.package)
    caches = (prog.field.all_vectors, prog.field.shift_permutation)
    clock = SpeedClock()
    clock.recalibrate()
    ops, results = [], []
    for inst in pool:
        record = {"op": inst.index, "shape": inst.shape}

        def untraced():
            result = clock.time(w.op, prog, inst, work)
            record["untraced_s"], record["untraced_ref_s"] = clock.wall_s[-1], clock.ref_s[-1]
            return result

        untraced_first = inst.index // len(w.shapes) % 2 == 0
        if untraced_first:
            plain = untraced()
        before = [c.cache_info() for c in caches]
        prog.budget.reset_work()
        with tracer.installed((inst.index, inst.shape)):
            result = clock.time(w.op, prog, inst, work)
        record["traced_s"], record["traced_ref_s"] = clock.wall_s[-1], clock.ref_s[-1]
        after = [c.cache_info() for c in caches]
        record["cost_points"] = prog.budget.work_points()
        record["cache_hits"] = sum(a.hits - b.hits for a, b in zip(after, before))
        record["cache_misses"] = sum(a.misses - b.misses for a, b in zip(after, before))
        if not untraced_first:
            plain = untraced()
        if result.artifacts != plain.artifacts:
            result.fail("traced and untraced outputs differ", wrong=True)
        record.update(cause=result.cause, cert_bytes=result.cert_bytes)
        ops.append(record)
        results.append(result)
    return tracer, ops, results


def per_layer(tracer, ops):
    n = len(ops)
    rows = tracer.by_name()
    traced_s = sum(o["traced_s"] for o in ops)

    def row(name):
        return rows.get(name, [0, 0.0, 0.0, [], 0])

    out = {}
    for name in ("forms.eval_grid", "construct.external_approx", "variety.variety_bitmap",
                 "construct.dense_columns", "construct.find_subvariety", "field.rref"):
        out[f"{name}.calls"] = (row(name)[0] / n, "count")
    for name in ("forms.eval_grid", "construct.external_approx", "variety.variety_bitmap",
                 "construct.dense_columns", "construct.find_subvariety", "forms.ceil_log",
                 "variety.conv_fill_check", "jsonio.certificate_to_obj",
                 "jsonio.certificate_from_obj", "jsonio.variety_from_obj",
                 "construct.verify_certificate", "variety.canonical", "variety.slice_variety",
                 "forms.slice_form", "field.rref", "cli.main"):
        out[f"{name}.self_s"] = (row(name)[1] / n, "s")
    out["forms.eval_grid.points"] = (sum(row("forms.eval_grid")[3]) / n, "count")
    out["construct.external_approx.functionals"] = (sum(row("construct.external_approx")[3]) / n, "count")
    slices = sum(row("construct.dense_columns")[3])
    out["construct.dense_columns.slices_tried"] = (slices / n, "count")
    out["construct.dense_columns.slice_hit_ratio"] = (row("construct.dense_columns")[0] / slices if slices else 0.0, "ratio")
    fills = row("variety.conv_fill_check")[3]
    checked = sum(f[0] for f in fills)
    out["variety.conv_fill_check.points_checked"] = (checked / n, "count")
    out["variety.conv_fill_check.corners_checked"] = (sum(f[1] for f in fills) / n, "count")
    out["variety.conv_fill_check.witness_ratio"] = (sum(f[2] for f in fills) / checked if checked else 0.0, "ratio")
    out["jsonio.cert_bytes"] = (sum(o["cert_bytes"] for o in ops) / n, "B")
    out["jsonio.failures"] = (sum(r[4] for name, r in rows.items() if name.startswith("jsonio.")) / n, "count")
    hits = sum(o["cache_hits"] for o in ops)
    misses = sum(o["cache_misses"] for o in ops)
    out["field.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["field.cache_misses"] = (misses / n, "count")
    out["budget.cost_points"] = (sum(o["cost_points"] for o in ops) / n, "count")
    out["forms.eval_grid.self_share"] = (row("forms.eval_grid")[1] / traced_s, "ratio")
    out["construct.external_approx.self_share"] = (row("construct.external_approx")[1] / traced_s, "ratio")
    out["construct.dense_columns.self_share"] = (row("construct.dense_columns")[1] / traced_s, "ratio")
    out["variety.conv_fill_check.share"] = (row("variety.conv_fill_check")[2] / traced_s, "ratio")
    # The overhead is a difference of two times taken moments apart, so it
    # is taken in reference seconds, which the machine's speed shifts move less.
    traced_ref_s = sum(o["traced_ref_s"] for o in ops)
    untraced_ref_s = sum(o["untraced_ref_s"] for o in ops)
    out["trace.overhead_s"] = ((traced_ref_s - untraced_ref_s) / n, "s")
    out["trace.overhead_share"] = ((traced_ref_s - untraced_ref_s) / untraced_ref_s, "ratio")
    return out


def by_shape(tracer, ops):
    """Self seconds per layer and op seconds, split by instance shape."""
    out = {}
    for shape in sorted({o["shape"] for o in ops}):
        chosen = [o for o in ops if o["shape"] == shape]
        ids = {o["op"] for o in chosen}
        out[shape] = {
            "ops": len(chosen),
            "failed": sum(o["cause"] is not None for o in chosen),
            "traced_s": sum(o["traced_s"] for o in chosen),
            "self_s": {name: r[1] for name, r in sorted(tracer.by_name(ids).items())},
        }
    return out


def write_trace(w, seed, prog, tracer, ops, metrics):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{w.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": w.name,
        "seed": seed,
        "rng": prog.generators.RNG_ID,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "by_shape": by_shape(tracer, ops),
        "ops": ops,
        "span_fields": ["name", "op", "parent", "start", "end", "child_s", "error", "qty"],
        "spans": tracer.spans,
    }, separators=(",", ":")) + "\n")
    return path


@contextlib.contextmanager
def work_dir(w: Workload):
    """A work directory of this process's own, removed afterwards."""
    work = WORK_DIR / f"{w.name}-{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def set_up_only(w: Workload, seed: int, seconds: float) -> int:
    with work_dir(w) as work:
        setup_s, wall_s = set_up(w, seed, pool_size(w, seconds, False), work)[2:]
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
    return 0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    with work_dir(w) as work:
        try:
            prog, pool, *setup = set_up(w, seed, pool_size(w, seconds, trace), work)
        except ImportError as exc:
            print(f"cannot import mlvariety from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2

        if trace:
            tracer, ops, results = traced_run(prog, w, pool, work)
            metrics = per_layer(tracer, ops)
            note = f"spans written to {write_trace(w, seed, prog, tracer, ops, metrics).relative_to(ROOT)}"
        else:
            clock, results, setups = timed_run(prog, w, seed, pool, work, seconds, setup)
            metrics, note = end_to_end(clock.ref_s, results, statistics.median(s[0] for s in setups))
            wall, _ = end_to_end(clock.wall_s, results, statistics.median(s[1] for s in setups))
            note += ("; in wall seconds: " + ", ".join(f"{k} {wall[k][0]:.4g}" for k in
                                                       ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s"))
                     + f"; cold set-ups {', '.join(f'{r:.3f}' for r, _ in setups)} s"
                     + f"; {sum(clock.wall_s):.1f} s of ops")
        digest = run_digest([op_digest(i, r) for i, r in zip(pool, results)])

    failed = [r for r in results if not r.ok]
    wrong = [r for r in results if r.wrong]
    causes = dict(Counter(r.cause for r in failed))
    print(f"workload {w.name} seed={seed} rng={prog.generators.RNG_ID} "
          f"trace={int(trace)} ops={len(results)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  fail_share {len(failed) / len(results):.4g} ratio "
          f"({len(failed)} of {len(results)} ops; causes {causes or 'none'}; wrong answers {len(wrong)})")
    print(f"  {note}")
    print(f"artifact_sha256 {digest} (inputs and outputs of all {len(results)} ops)")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30,
                        help="reference seconds of ops a run does; sets the number of ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", action="store_true",
                        help="time one set-up of the workload and print it; used to sample setup_s")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.set_up_only:
        if args.workload == "all":
            parser.error("--set-up-only needs one workload")
        return set_up_only(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
