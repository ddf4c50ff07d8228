"""Complete families: every canonical variety of a small shape, or every
one of a fixed stride or codimension cut-off, not a random sample, through
the finder, the certificate writer and reader, and the verifier."""

import collections
import json
import math

import pytest

from mlvariety.construct import find_subvariety
from mlvariety.fibers import verify_certificate
from mlvariety.forms import Shape
from mlvariety.jsonio import certificate_from_obj, certificate_to_obj, dumps
from mlvariety.ledger import ledger_paths

from helpers import canonical_varieties


def _count_branches(cert, counts: dict) -> None:
    """Add to counts the levels of cert's ledger, one per path, the
    unclamped ones among them, and their directions that are unclamped or
    slice at t != 0."""
    for _, node in ledger_paths(cert.ledger):
        if not node.slices:
            continue
        counts["levels"] += 1
        counts["unclamped levels"] += not node.constants.clamped
        for (point, _), clamped in zip(node.slices, node.clamped):
            counts["unclamped directions"] += not clamped
            counts["slices t != 0"] += any(point)


@pytest.mark.parametrize("shape, stride, max_codim, gaps, levels", [
    # 5 subspaces for each linear support and 67 for the bilinear one
    (Shape(2, (2, 2)), 1, math.inf, {0: 1300, 1: 350, 2: 25}, 1674),
    # 954 of 7,632
    (Shape(3, (2, 2)), 8, math.inf, {0: 774, 1: 180}, 953),
    # the first arity-3 family
    (Shape(2, (1, 2, 2)), 1, 2, {0: 799}, 1969),
], ids=["p2_22", "p3_22_8th", "p2_122_le2"])
def test_complete_family_certificates_read_back_and_verify(shape, stride, max_codim, gaps, levels):
    # the histogram of input codimension minus output codimension
    seen = collections.Counter()
    branches = dict.fromkeys(("levels", "unclamped levels", "unclamped directions",
                              "slices t != 0"), 0)
    for i, v in enumerate(canonical_varieties(shape, max_codim)):
        if i % stride:
            continue
        assert v.canonical() == v
        cert = find_subvariety(v)
        assert certificate_from_obj(json.loads(dumps(certificate_to_obj(cert)))) == cert
        assert verify_certificate(v, cert).all_ok, v.forms
        seen[v.codim - cert.output_codim] += 1
        _count_branches(cert, branches)
    assert seen == gaps
    # a construction that does work at desk scale moves these on purpose
    assert branches == {**dict.fromkeys(branches, 0), "levels": levels}
