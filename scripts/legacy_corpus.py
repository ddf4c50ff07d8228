#!/usr/bin/env python3
"""Write tests/data/legacy/: certificates written by the trees that defined
each older certificate format, for the reader's tests.

The trees, commits of this repository:

    62a8d0b  format "1"
    db953b1  format "2"
    aca3031  format "3"
    788e6e2  format "4", before density-1 records became leaves
    af7251b  format "4", after that change

The battery, each variety written by this checkout's package:

    p2_33     two random forms at (2,(3,3)), seed 0
    p3_433    two random full-support forms at (3,(4,3,3)), seed 1
    p2_11111  the golden one-form (2,(1,1,1,1,1)) input, seed 18, whose
              ledger has 48 paths, for af7251b only: the "1" and "2" trees
              take minutes on it, and the "3" tree and the first "4" tree
              write over 100 KB

For each commit, `git archive` extracts its src into a temporary directory,
and that tree's own `find-sub --output` writes NAME-COMMIT.json beside the
battery's NAME.json files.  No network access is needed.  Run it from
anywhere:

    python scripts/legacy_corpus.py
"""

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "legacy"
TREES = ("62a8d0b", "db953b1", "aca3031", "788e6e2", "af7251b")
# name: (p, dims, seed, forms, full support only, the trees that run it)
BATTERY = {
    "p2_33": (2, (3, 3), 0, 2, False, TREES),
    "p3_433": (3, (4, 3, 3), 1, 2, True, TREES),
    "p2_11111": (2, (1,) * 5, 18, 1, False, ("af7251b",)),
}


def write_battery() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from mlvariety.forms import Shape
    from mlvariety.generators import random_variety
    from mlvariety.jsonio import dump_json, variety_to_obj

    for name, (p, dims, seed, forms, full, _) in BATTERY.items():
        v = random_variety(random.Random(seed), Shape(p, dims), forms, full_support_only=full)
        dump_json(variety_to_obj(v), OUT / f"{name}.json")


def write_certificates(commit: str) -> None:
    with tempfile.TemporaryDirectory() as tree:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        for name, (*_, trees) in BATTERY.items():
            if commit in trees:
                subprocess.run(
                    [sys.executable, "-m", "mlvariety.cli", "find-sub",
                     "--input", f"{name}.json", "--output", f"{name}-{commit}.json"],
                    cwd=OUT, env={**os.environ, "PYTHONPATH": f"{tree}/src"},
                    check=True, timeout=600,
                )


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    write_battery()
    for commit in TREES:
        write_certificates(commit)
