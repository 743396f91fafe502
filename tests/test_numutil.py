import random

import pytest

from pgl2poly import Mat2, make_field
from pgl2poly.numutil import power


def _repeated(base, e, one):
    out = one
    for _ in range(e):
        out = out * base
    return out


def test_power_matches_repeated_products_on_ints():
    for base in (-3, 0, 1, 2, 7):
        for e in range(41):
            assert power(base, e, 1) == _repeated(base, e, 1) == base ** e

def test_power_matches_repeated_products_on_matrices():
    rng = random.Random(5)
    for p, s in ((2, 1), (5, 1), (3, 2)):
        spec = make_field(p, s)
        one = Mat2.identity(spec)
        for _ in range(4):
            while True:
                try:
                    A = Mat2.from_encodings(spec, [rng.randrange(spec.order)
                                                   for _ in range(4)])
                    break
                except ValueError:          # singular draw
                    continue
            for e in range(41):
                assert power(A, e, one) == _repeated(A, e, one)

def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        power(2, -1, 1)
