"""classify, reduce and power_closed_form against the field scans that the
closed-form root and conjugator helpers replaced.

The scans below are the reference: each runs over all of GF(q), GF(q^2) or
the q^2 points of the conjugator kernel, so it is correct by inspection.
Patching them into projective and rerunning must reproduce every output.
The type-2 conjugator is also checked against reduce's former branch, which
gave the identity to every multiple of the unipotent before its general
construction.
"""

import functools
import itertools
import random

import pytest

from pgl2poly import (IDENTITY, TYPE2, Mat2, all_classes, classify, embed,
                      make_ext, make_field, power_closed_form, projective,
                      proj_eq, reduce, reduced_type2)
from pgl2poly.verify import _random_matrix
from test_linalg import felt_nullspace


@functools.lru_cache(maxsize=None)
def scan_quadratic_roots(c0, c1):
    # GF(q) first, and GF(q^2) \ GF(q) only when GF(q) holds no root; GF(q)
    # is the first q encodings of GF(q^2), so the roots come out ascending.
    # Cached: a field has only q^2 quadratics, met by thousands of matrices
    spec = c0.spec
    roots = [embed(x) for x in spec.elements() if x * x + c1 * x + c0 == spec.zero]
    if roots:
        return roots
    e0, e1 = embed(c0), embed(c1)
    outside = (z for z in make_ext(spec).elements()
               if z.v and z * z + e1 * z + e0 == z.ext.zero)
    roots = list(itertools.islice(outside, 2))
    assert roots, "quadratic has no root in GF(q^2)"
    return roots


def scan_min_encoding_conjugator(scaled, target):
    spec = scaled.spec
    s_a, s_b, s_c, s_d = scaled.entries()
    r_a, r_b, r_c, r_d = target.entries()
    zero = spec.zero
    rows = [
        [s_a - r_a, -r_c, s_b, zero],
        [-r_b, s_a - r_d, zero, s_b],
        [s_c, zero, s_d - r_a, -r_c],
        [zero, s_c, -r_b, s_d - r_d],
    ]
    basis = felt_nullspace(spec, rows)
    assert len(basis) == 2
    best = None
    best_enc = None
    q = spec.order
    for t1 in spec.elements():
        for t2 in spec.elements():
            w = [t1 * basis[0][i] + t2 * basis[1][i] for i in range(4)]
            if w[0] * w[3] == w[1] * w[2]:
                continue
            enc = (w[0].encode() + q * w[1].encode()
                   + q * q * w[2].encode() + q**3 * w[3].encode())
            if best_enc is None or enc < best_enc:
                best, best_enc = w, enc
    assert best is not None
    return Mat2(*best)


SCANS = {"_quadratic_roots": scan_quadratic_roots,
         "_min_encoding_conjugator": scan_min_encoding_conjugator}


def _reduction(m):
    info = classify(m)
    if info.kind == IDENTITY:
        return (IDENTITY,)
    rf = reduce(m)
    param = info.param.encode() if info.param is not None else None
    return (info.kind, param, rf.reduced.encode(), rf.conjugator.encode(),
            rf.eigenvalue.encode())


def _power(c, j):
    try:
        return power_closed_form(c, j).encode()
    except ValueError as exc:
        return str(exc)


def _outputs(spec):
    elements = list(spec.elements())
    mats = [Mat2(a, b, c, d)
            for a, b, c, d in itertools.product(elements, repeat=4)
            if a * d != b * c]
    out = {repr(m): _reduction(m) for m in mats}
    out.update({(c.encode(), j): _power(c, j)
                for c in elements for j in range(4)})
    return out


def _check_against_scans(p, s, monkeypatch):
    spec = make_field(p, s)
    closed = _outputs(spec)
    with monkeypatch.context() as patched:
        for name, scan in SCANS.items():
            patched.setattr(projective, name, scan)
        scanned = _outputs(spec)
    assert closed.keys() == scanned.keys()
    mismatches = [k for k in closed if closed[k] != scanned[k]]
    assert not mismatches, [(k, closed[k], scanned[k]) for k in mismatches[:5]]


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_reduce_matches_scans(p, s, monkeypatch):
    _check_against_scans(p, s, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("p,s", [(2, 3), (3, 2)])
def test_reduce_matches_scans_slow(p, s, monkeypatch):
    _check_against_scans(p, s, monkeypatch)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_quadratic_roots_match_scan(p, s):
    # every monic quadratic over GF(q), c0 = 0 included (no class has it)
    spec = make_field(p, s)
    for c0, c1 in itertools.product(spec.elements(), repeat=2):
        assert projective._quadratic_roots(c0, c1) == scan_quadratic_roots(c0, c1)


def reference_type2_conjugator(m):
    # reduce's type-2 branch with its identity shortcut: [u | N u] for the
    # nilpotent N = m/lam - I, lam the double root of x^2 - tr x + det
    spec = m.spec
    if proj_eq(m, reduced_type2(spec)):
        return Mat2.identity(spec)
    lam = next(x for x in spec.elements()
               if x and x * x - m.trace * x + m.det == spec.zero)
    nil = m.scale(lam.inverse())
    n_a, n_b = nil.a - spec.one, nil.b
    n_c, n_d = nil.c, nil.d - spec.one
    u = (spec.one, spec.zero) if (n_a or n_c) else (spec.zero, spec.one)
    nu = (n_a * u[0] + n_b * u[1], n_c * u[0] + n_d * u[1])
    return Mat2(u[0], nu[0], u[1], nu[1])


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (5, 2), (3, 3)])
def test_type2_conjugator_of_a_scaled_unipotent_is_the_identity(p, s):
    # N = [[0,0],[1,0]] gives u = e1 and N u = e2 for every lam
    spec = make_field(p, s)
    for lam in spec.elements():
        if lam:
            rf = reduce(reduced_type2(spec).scale(lam))
            assert rf.conjugator == Mat2.identity(spec), lam


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_type2_conjugator_matches_the_identity_branch_on_every_class(p, s):
    spec = make_field(p, s)
    reps = [cls.rep for cls in all_classes(spec) if classify(cls.rep).kind == TYPE2]
    assert len(reps) == spec.order**2 - 1            # |PGL2| / |centralizer|
    for m in reps:
        assert reduce(m).conjugator == reference_type2_conjugator(m), m


@pytest.mark.parametrize("p,s", [(5, 2), (3, 3), (7, 2)])
def test_type2_conjugator_matches_the_identity_branch_on_conjugates(p, s):
    spec = make_field(p, s)
    rng = random.Random(25)
    unipotent = reduced_type2(spec)
    for _ in range(60):
        P = _random_matrix(spec, rng)
        lam = spec.from_encoding(rng.randrange(1, spec.order))
        m = (P * unipotent * P.inverse()).scale(lam)
        assert reduce(m).conjugator == reference_type2_conjugator(m), m
