"""Byte-for-byte CLI snapshots.

`golden/cli.json` holds argv lists with the exit code and stdout they
produced: classify, qmap, invariants --check and count for every type
representative of q in {2, 3, 4, 5, 7, 9} plus one non-reduced conjugate
per field, every verify suite on GF(2), and the sampled action-laws and
sigma suites on GF(3), GF(4) and GF(5) with seed 7, all as JSON; and one
--format tsv case per command: classify, qmap, invariants --check and count
--method all for the type-4 representative over GF(3), and verify --suite
sigma on GF(2); and six invariants cases recorded before generation read
the irreducibility criteria: --check on type 1 with D = 4 and m = 3 over
GF(5), type 4 with D = 8 over GF(7), type 2 over GF(9), the hidden conjugates
[4,2,1,1] over GF(5) and [6,6,2,3] over GF(9), and the GF(7) type-4 case
again without --check; and three paths that no other test runs: classify
of a scalar matrix (the identity payload), count --method criterion off a
multiple of the class order (criterion 0), and verify --suite criterion on
GF(4), whose pairs are sampled.  Refactors must keep them.
"""

import contextlib
import io
import json
import os

import pytest

from pgl2poly.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json")) as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_snapshot(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(case["argv"])
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
