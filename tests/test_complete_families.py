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

from helpers import canonical_varieties


@pytest.mark.parametrize("shape, stride, max_codim, gaps", [
    # 5 subspaces for each linear support and 67 for the bilinear one
    (Shape(2, (2, 2)), 1, math.inf, {0: 1300, 1: 350, 2: 25}),
    # 954 of 7,632
    (Shape(3, (2, 2)), 8, math.inf, {0: 774, 1: 180}),
    # the first arity-3 family
    (Shape(2, (1, 2, 2)), 1, 2, {0: 799}),
], ids=["p2_22", "p3_22_8th", "p2_122_le2"])
def test_complete_family_certificates_read_back_and_verify(shape, stride, max_codim, gaps):
    # the histogram of input codimension minus output codimension
    seen = collections.Counter()
    for i, v in enumerate(canonical_varieties(shape, max_codim)):
        if i % stride:
            continue
        assert v.canonical() == v
        cert = find_subvariety(v)
        assert certificate_from_obj(json.loads(dumps(certificate_to_obj(cert)))) == cert
        assert verify_certificate(v, cert).all_ok, v.forms
        seen[v.codim - cert.output_codim] += 1
    assert seen == gaps
