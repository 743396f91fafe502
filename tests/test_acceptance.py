"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction
from math import gcd as int_gcd

from pgl2poly import (Mat2, Poly, ProjMat, all_classes,
                      count_invariants_bruteforce, divides, is_irreducible,
                      make_field, power_closed_form, q_map, quadratic_factor_of_F,
                      reduced_type4, substitute_mobius, F_poly, asymptotic_ratio)
from pgl2poly.verify import (suite_action_laws, suite_counting,
                             suite_criterion, suite_generation,
                             suite_noncyclic, suite_pgroup, suite_sigma)


def _finish(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_worked_examples():
    t0 = time.monotonic()
    ok = True
    expectations = {
        3: ((0, 1, 1), (2, 0, 0, 1)),
        5: ((4, 0, 3, 1), (0, 3, 3)),
    }
    for p in (3, 5, 7):
        spec = make_field(p, 1)
        A = Mat2.from_encodings(spec, (0, 1, p - 1, 1))
        Q = q_map(A).map
        ok = ok and substitute_mobius(Q, A).normalized() == Q.normalized()
        if p in expectations:
            num_c, den_c = expectations[p]
            ok = ok and Q.num.coeffs == num_c
            ok = ok and Q.den.coeffs == den_c
    elapsed = time.monotonic() - t0
    _finish(1, "worked-examples", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_02_triple_count_agreement():
    t0 = time.monotonic()
    ok = True
    for p, s in ((2, 1), (3, 1), (5, 1)):
        spec = make_field(p, s)
        rows = suite_counting(spec)
        ok = ok and all(r.passed for r in rows)
    elapsed = time.monotonic() - t0
    _finish(2, "triple-count-agreement", ok and elapsed < 120,
            f"{elapsed:.1f}s, q in 2,3,5")


def test_criterion_03_generation_completeness():
    t0 = time.monotonic()
    ok = True
    total = 0
    for p, s in ((2, 1), (3, 1), (5, 1)):
        spec = make_field(p, s)
        rows = suite_generation(spec)
        ok = ok and all(r.passed for r in rows)
        total += len(rows)
    elapsed = time.monotonic() - t0
    _finish(3, "generation-completeness", ok and elapsed < 120,
            f"{elapsed:.1f}s, {total} set comparisons")


def test_criterion_04_criterion_equivalence():
    ok = True
    pairs = 0
    for p in (2, 3):
        spec = make_field(p, 1)
        rows = suite_criterion(spec)
        ok = ok and all(r.passed for r in rows)
        pairs += sum(int(r.detail.split()[0]) for r in rows
                     if r.name == "agreement-with-direct-test")
    _finish(4, "criterion-equivalence", ok, f"{pairs} exhaustive pairs")


def test_criterion_05_degree_theorem():
    ok = True
    checked = 0
    for p in (2, 3):
        spec = make_field(p, 1)
        for cls in all_classes(spec):
            D = cls.order()
            for n in range(3, 7):
                if n % D:
                    checked += 1
                    ok = ok and count_invariants_bruteforce(cls, n) == 0
    _finish(5, "degree-theorem", ok, f"{checked} (class, degree) pairs")


def test_criterion_06_noncyclic_nonexistence():
    ok = True
    details = []
    for p in (2, 3, 5):
        spec = make_field(p, 1)
        rows = suite_noncyclic(spec, seed=7)
        ok = ok and all(r.passed for r in rows)
        details.extend(f"q={spec.order}:{r.name}" for r in rows if not r.passed)
    _finish(6, "noncyclic-nonexistence", ok, "; ".join(details) or "q in 2,3,5")


def test_criterion_07_pgroup_nonexistence():
    ok = True
    for p, s in ((2, 2), (2, 3), (3, 2)):
        spec = make_field(p, s)
        rows = suite_pgroup(spec, seed=11)
        ok = ok and all(r.passed for r in rows)
    _finish(7, "pgroup-nonexistence", ok, "q in 4,8,9, degrees 2..6")


def test_criterion_08_sigma_contracts():
    # suite_sigma sweeps every pair of invertible matrices for q <= 3
    ok = True
    for p in (2, 3, 5):
        rows = suite_sigma(make_field(p, 1), seed=23)
        ok = ok and all(r.passed for r in rows)
    _finish(8, "sigma-contracts", ok, "det exhaustive q=2,3; 500 triples each q=2,3,5")


def test_criterion_09_type4_structure():
    ok = True
    checked = 0
    for p in (2, 3):
        spec = make_field(p, 1)
        for c in spec.elements():
            if not c:
                continue
            base = reduced_type4(spec, c)
            chi = Poly(spec, (base.det.n, (-base.trace).n, 1))
            if not is_irreducible(chi):
                continue                       # x^2 - x - c reducible
            D = ProjMat(base).order()
            for j in range(1, D):
                if int_gcd(j, D) != 1:
                    continue
                for m in range(1, 5):
                    quad = quadratic_factor_of_F(c, j, m)
                    ok = ok and ((quad is not None) == (m % 2 == 0))
                    if quad is not None:
                        cinv = c.inverse()
                        ok = ok and quad == Poly(spec, ((-cinv).n, cinv.n, 1))
                        ok = ok and divides(quad, F_poly(base ** j, m))
                    checked += 1
    powers = 0
    for p, s in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        spec = make_field(p, s)
        for c in spec.elements():
            if not c:
                continue
            base = reduced_type4(spec, c)
            chi = Poly(spec, (base.det.n, (-base.trace).n, 1))
            if not is_irreducible(chi):
                continue
            for j in range(0, spec.order + 2):
                ok = ok and power_closed_form(c, j) == base ** j
                powers += 1
    _finish(9, "type4-structure", ok,
            f"{checked} factor checks, {powers} closed-form powers")


def test_criterion_10_asymptotics():
    t0 = time.monotonic()
    spec = make_field(3, 1)
    from pgl2poly import reduced_type3, smallest_nonsquare
    C = reduced_type3(spec, smallest_nonsquare(spec))
    ok = True
    ratios = []
    for m in (8, 10, 12):
        r = asymptotic_ratio(C, m)
        ratios.append(str(r))
        ok = ok and abs(r - 1) < Fraction(1, 10)
    elapsed = time.monotonic() - t0
    _finish(10, "asymptotics", ok and elapsed < 1.0,
            f"{elapsed:.3f}s, ratios {', '.join(ratios)}")


def test_criterion_11_action_laws():
    ok = True
    rows = suite_action_laws(make_field(2, 1))
    ok = ok and all(r.passed for r in rows)
    for p, s in ((3, 1), (2, 2), (5, 1), (7, 1), (3, 2)):
        rows = suite_action_laws(make_field(p, s), seed=3)
        ok = ok and all(r.passed for r in rows)
    _finish(11, "action-laws", ok,
            "exhaustive q=2 deg 2..5; 1000 triples each q=3,4,5,7,9")
