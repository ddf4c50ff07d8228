"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The correctness gate catches a bad certificate: one coefficient of a
   written certificate's output variety is changed before ``verify`` reads
   it back, and the op must count as failed with a wrong answer.
2. Runs repeat: two traced runs at one seed give identical exact counts and
   artifact digests, and two untraced runs identical op and failure counts
   and artifact digests, on every workload.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import run

SEED = 7
EXACT = (
    "budget.cost_points",
    "forms.eval_grid.points",
    "construct.dense_columns.slices_tried",
    "variety.conv_fill_check.points_checked",
    "variety.conv_fill_check.corners_checked",
    "jsonio.cert_bytes",
    "field.cache_misses",
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corrupted_certificate_fails() -> None:
    prog = run.Program()
    w = run.WORKLOADS["certify-roundtrip-p3"]
    work = run.WORK_DIR / f"selftest-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        inst = run.make_instance(prog, w, f"{SEED}/0", w.shape_of(0), inputs / "0.json", 0)
        cert = work / "cert.json"
        clean = run.OpResult()
        check(run.certify_find_step(prog, inst, cert, clean)
              and run.certify_verify_step(prog, inst, cert, clean),
              "an untouched certificate passes find-sub and verify")

        bad = run.OpResult()
        run.certify_find_step(prog, inst, cert, bad)
        obj = json.loads(cert.read_text())
        coeffs = obj["output"]["forms"][0]["coeffs"]
        coeffs[0] = (coeffs[0] + 1) % obj["output"]["shape"]["p"]
        cert.write_text(json.dumps(obj, indent=2) + "\n")
        run.certify_verify_step(prog, inst, cert, bad)
        check(not bad.ok and bad.wrong,
              f"a certificate with one changed coefficient fails its op ({bad.cause})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()


def bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("artifact_sha256"))
    return json.loads(lines[-1]), digest


def runs_repeat() -> None:
    for name in run.WORKLOADS:
        first, second = bench(name, 1), bench(name, 1)
        same = [m for m in EXACT
                if first[0]["metrics"][m]["value"] == second[0]["metrics"][m]["value"]]
        check(len(same) == len(EXACT), f"{name}: traced exact counts repeat ({len(same)}/{len(EXACT)})")
        check(first[1] == second[1], f"{name}: traced artifact digest repeats")
        (a, a_digest), (b, b_digest) = bench(name, 0), bench(name, 0)
        check((a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
              f"{name}: untraced op and failure counts repeat")
        check(a_digest == b_digest, f"{name}: untraced artifact digest repeats")


if __name__ == "__main__":
    corrupted_certificate_fails()
    runs_repeat()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
