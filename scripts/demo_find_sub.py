#!/usr/bin/env python3
"""End-to-end demo: build a variety, extract a certified subvariety, verify.

Prints the input density from the certificate (re-counted by the verifier),
the achieved codimension against its budget, the per-level ledger constants
(one node per path from the top, by ledger_paths; the certificate stores
each distinct level once), and the outcome of independent re-verification.
A leaf (arity 1, or density 1 at any arity), whose canonical input list is
its output, has no level and prints its codimension only.
Epsilon is printed in its exact monomial form coef * p^p_exp * (c)^c_exp, c
the level density; the last walk is at arity 4.
"""

import random

from mlvariety import (
    Shape,
    find_subvariety,
    verify_certificate,
)
from mlvariety.generators import random_variety
from mlvariety.ledger import ledger_paths

SEED = 99


def show(v):
    cert = find_subvariety(v)
    check = verify_certificate(v, cert)
    print(f"shape: p={v.shape.p} dims={v.shape.dims}")
    print(f"density: {cert.input_density}")
    print(f"achieved codim: {cert.output_codim}  budget: {cert.budget}")
    for path, node in ledger_paths(cert.ledger):
        where = path or "root"
        if not node.slices:
            print(f"  [{where}] arity {node.arity}, c={node.c}, "
                  f"base case, codim {node.codim_contribution}")
        else:
            print(f"  [{where}] arity {node.arity}, c={node.c}, "
                  f"r={node.r}, s={node.constants.s}, eps={node.constants.epsilon}")
    print(f"verified: containment={check.containment_ok} "
          f"nonempty={check.nonempty_ok} codim={check.codim_ok}")
    print()


if __name__ == "__main__":
    rng = random.Random(SEED)
    show(random_variety(rng, Shape(2, (3, 3)), 2))
    show(random_variety(rng, Shape(2, (2, 2, 2)), 2))
    show(random_variety(rng, Shape(2, (2, 2, 2, 2)), 2))
