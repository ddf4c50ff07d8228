"""Complete families: every canonical variety of a small shape, not a
sample, through the finder, the certificate writer and reader, and the
verifier."""

import json

from mlvariety.construct import find_subvariety
from mlvariety.fibers import verify_certificate
from mlvariety.forms import Shape
from mlvariety.jsonio import certificate_from_obj, certificate_to_obj, dumps

from helpers import canonical_varieties


def test_every_certificate_of_a_complete_family_reads_back_and_verifies():
    # (2,(2,2)): 5 subspaces for each linear support and 67 for the bilinear one
    count = 0
    for v in canonical_varieties(Shape(2, (2, 2))):
        assert v.canonical() == v
        cert = find_subvariety(v)
        assert certificate_from_obj(json.loads(dumps(certificate_to_obj(cert)))) == cert
        assert verify_certificate(v, cert).all_ok, v.forms
        assert cert.output_codim <= v.codim
        count += 1
    assert count == 5 * 67 * 5
