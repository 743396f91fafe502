import random
import sys
from fractions import Fraction
from math import gcd as int_gcd

import pytest

from pgl2poly import (ContractError, F_poly, Mat2, Poly, ProjMat, classify,
                      count_factors_of_degree, divides,
                      count_invariants_bruteforce, count_invariants_formula,
                      count_via_criterion, enumerate_monic_irreducibles, eta,
                      euler_phi, invariant_set,
                      make_field, mobius_inversion, moebius_mu,
                      principal_character, reduced_type2, reduced_type3,
                      reduced_type4)
from pgl2poly import polynomials
from pgl2poly.polynomials import _has_root, _logs
from pgl2poly.numutil import divisors
from pgl2poly.verify import type_representatives


def test_arithmetic_function_values():
    assert euler_phi(6) == 2
    assert euler_phi(1) == 1
    assert moebius_mu(12) == 0
    assert moebius_mu(30) == -1
    assert principal_character(4, 6) == 0
    assert principal_character(4, 3) == 1

def test_arithmetic_functions_reject_nonpositive():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        moebius_mu(0)


def test_mobius_inversion_classical():
    # L(n) = sum of divisors recovers K(n) = n under the trivial character
    L = lambda n: sum(divisors(n))
    for n in range(1, 40):
        assert mobius_inversion(lambda d: 1, L, n) == n

def test_mobius_inversion_trivial_n1():
    assert mobius_inversion(lambda d: 1, lambda n: 17, 1) == 17

def test_mobius_inversion_character_roundtrip():
    rng = random.Random(2)
    for D in (2, 3, 4, 6):
        chi = lambda d: principal_character(D, d)
        K = {n: rng.randrange(-50, 50) for n in range(1, 61)}
        L = {n: sum(chi(d) * K[n // d] for d in divisors(n)) for n in range(1, 61)}
        for n in range(1, 61):
            assert mobius_inversion(chi, lambda t: L[t], n) == K[n]


def test_eta_table(F3):
    t1 = classify(Mat2.from_encodings(F3, (2, 0, 0, 1)))
    assert (eta(t1, 1), eta(t1, 2)) == (-1, -1)
    t2 = classify(reduced_type2(F3))
    assert (eta(t2, 1), eta(t2, 2)) == (0, 0)
    t3 = classify(reduced_type3(F3, F3.from_encoding(2)))
    assert (eta(t3, 1), eta(t3, 2), eta(t3, 3)) == (1, -1, 1)
    t4 = classify(reduced_type4(F3, F3.one))
    assert (eta(t4, 1), eta(t4, 2)) == (1, -1)

def test_eta_rejects_identity(F3):
    with pytest.raises(ValueError):
        eta(classify(Mat2.identity(F3)), 1)


def test_formula_examples(F2, F3):
    D1 = reduced_type4(F2, F2.one)
    assert count_invariants_formula(D1, 3) == 2
    assert count_invariants_formula(D1, 6) == 0
    assert count_invariants_formula(reduced_type3(F3, F3.from_encoding(2)), 4) == 2

def test_formula_off_multiple_is_zero(F2):
    D1 = reduced_type4(F2, F2.one)
    assert count_invariants_formula(D1, 4) == 0
    assert count_invariants_formula(D1, 5) == 0

def test_formula_domain_errors(F2):
    D1 = reduced_type4(F2, F2.one)
    with pytest.raises(ValueError):
        count_invariants_formula(D1, 2)
    with pytest.raises(ValueError):
        count_invariants_formula(Mat2.identity(F2), 4)


def test_bruteforce_scaling_class_quadratics(F5):
    A = Mat2.from_encodings(F5, (4, 0, 0, 1))
    cls = ProjMat(A)
    assert count_invariants_bruteforce(cls, 2) == 2
    assert set(invariant_set(cls, 2)) == {Poly.of(F5, 2, 0, 1), Poly.of(F5, 3, 0, 1)}

def test_bruteforce_translation_quartic(F2):
    cls = ProjMat(reduced_type2(F2))
    assert count_invariants_bruteforce(cls, 4) == 1
    assert invariant_set(cls, 4) == (Poly.of(F2, 1, 1, 0, 0, 1),)

def test_bruteforce_zero_off_order_multiples(F2):
    cls = ProjMat(reduced_type4(F2, F2.one))
    for n in (4, 5, 7):
        assert count_invariants_bruteforce(cls, n) == 0

def test_bruteforce_rejects_degree_below_two(F2):
    with pytest.raises(ValueError):
        count_invariants_bruteforce(ProjMat(reduced_type2(F2)), 1)


def test_count_factors_examples(F2):
    f = Poly.of(F2, 1, 1, 0, 1)
    assert count_factors_of_degree(f, 3) == 1
    assert count_factors_of_degree(f * f, 3) == 1          # distinct count
    sq = Poly.of(F2, 1, 1, 1) * Poly.of(F2, 1, 1, 1)
    assert count_factors_of_degree(sq, 2) == 1
    assert count_factors_of_degree(F_poly(reduced_type4(F2, F2.one), 1), 1) == 0


def count_factors_by_trial_division(F, k):
    # the reference that distinct-degree counting replaced: divide F by every
    # monic irreducible of degree k
    return sum(1 for f in enumerate_monic_irreducibles(F.ring, k)
               if divides(f, F))

# q -> (p, s, highest factor degree); trial division by every degree-k
# irreducible bounds k over GF(9)
REFERENCE_FIELDS = {2: (2, 1, 6), 3: (3, 1, 6), 4: (2, 2, 6), 5: (5, 1, 6),
                    9: (3, 2, 4)}

@pytest.mark.parametrize("q", sorted(REFERENCE_FIELDS))
def test_count_factors_matches_trial_division(q):
    p, s, top = REFERENCE_FIELDS[q]
    spec = make_field(p, s)
    rng = random.Random(q)
    cases = []
    for trial in range(16):
        # a non-monic product of random irreducibles and a random cofactor;
        # every other case squares one of the irreducibles
        factors = [rng.choice(enumerate_monic_irreducibles(spec, rng.randint(1, top)))
                   for _ in range(rng.randint(1, 3))]
        if trial % 2:
            factors.append(factors[0])
        F = Poly(spec, [rng.randrange(q) for _ in range(rng.randint(0, 4))]
                 + [rng.randrange(1, q)])
        for f in factors:
            F = F * f
        cases.append(F)
    for _, rep in type_representatives(spec):
        r = 1
        while q**r + 1 <= 100:
            cases.append(F_poly(rep, r))
            r += 1
    for F in cases:
        for k in range(1, top + 1):
            assert count_factors_of_degree(F, k) == count_factors_by_trial_division(F, k)


def _count_walk_steps(monkeypatch):
    # the q-th power steps of the Frobenius walk, by kind: "spread" for
    # polynomials._frobenius_step, the exponent for polynomials._pow_logs
    steps, spread, pow_logs = [], polynomials._frobenius_step, polynomials._pow_logs
    monkeypatch.setattr(polynomials, "_frobenius_step", lambda ring, t, red:
                        steps.append("spread") or spread(ring, t, red))
    monkeypatch.setattr(polynomials, "_pow_logs", lambda ring, b, e, red:
                        steps.append(e) or pow_logs(ring, b, e, red))
    return steps


@pytest.mark.parametrize("k", [1, 4, 5, 6])
def test_count_factors_takes_one_power_per_divisor(monkeypatch, F3, k):
    # x^(q^j) mod F at the divisors j of k comes from one Frobenius walk of
    # k steps, each a q-th power: a single power to q^(j - i) between
    # divisors would square on the bits of q^(j - i).  Over GF(3) each step
    # is the spread step, with no product
    F = F_poly(reduced_type4(F3, F3.from_encoding(2)), 2)          # degree 10
    want = count_factors_by_trial_division(F, k)
    steps = _count_walk_steps(monkeypatch)
    assert count_factors_of_degree(F, k) == want
    assert steps == ["spread"] * k


def test_count_via_criterion_examples(F2, F3, F5):
    assert count_via_criterion(reduced_type4(F2, F2.one), 1) == 2
    assert count_via_criterion(reduced_type3(F3, F3.from_encoding(2)), 2) == 2
    assert count_via_criterion(Mat2.from_encodings(F5, (4, 0, 0, 1)), 2) == 6

def test_count_via_criterion_needs_no_enumeration(monkeypatch, F2, F3, F5):
    # the criterion oracle must stay independent of the brute-force oracle's
    # enumeration: refuse it on every binding
    def refuse(*args):
        raise RuntimeError("the criterion oracle enumerated irreducibles")
    for name, module in list(sys.modules.items()):
        if ((name == "pgl2poly" or name.startswith("pgl2poly."))
                and hasattr(module, "enumerate_monic_irreducibles")):
            monkeypatch.setattr(module, "enumerate_monic_irreducibles", refuse)
    test_count_via_criterion_examples(F2, F3, F5)

def test_count_via_criterion_rejects_small(F2):
    with pytest.raises(ValueError):
        count_via_criterion(reduced_type2(F2), 1)


def quadratic_factor_of_F(c, j: int, mm: int):
    """The quadratic irreducible factor x^2 + c^-1 x - c^-1 of the criterion
    polynomial of [[0,1],[c,1]]^j at exponent mm, present exactly when mm is
    even; checks the degree and linear-freeness facts along the way."""
    spec = c.spec
    base = reduced_type4(spec, c)
    D = ProjMat(base).order()
    if j < 1 or j >= D or int_gcd(j, D) != 1:
        raise ValueError("j must lie in [1, D-1] and be prime to D")
    F = F_poly(base**j, mm)
    q = spec.order
    if F.degree != q**mm + 1:
        raise ContractError("criterion polynomial has degree q^m + 1")
    if _has_root(spec, _logs(F)):
        raise ContractError("criterion polynomial must be free of linear factors")
    cinv = c.inverse()
    quad = Poly(spec, ((-cinv).n, cinv.n, 1))
    if mm % 2 == 0:
        if not divides(quad, F):
            raise ContractError("even exponent must admit the quadratic factor")
        return quad
    if count_factors_of_degree(F, 2):
        raise ContractError("odd exponent admits no quadratic factor")
    return None


def asymptotic_ratio(m: Mat2, mm: int) -> Fraction:
    """The exact ratio count * D * m / (q^m * phi(D)), which tends to 1."""
    cls = ProjMat(m)
    D = cls.order()
    if D * mm <= 2:
        raise ValueError("ratio requires D*m > 2")
    count = count_invariants_formula(m, D * mm)
    q = m.spec.order
    return Fraction(count * D * mm, q**mm * euler_phi(D))


def test_quadratic_factor_even_exponent(F2):
    quad = quadratic_factor_of_F(F2.one, 1, 2)
    assert quad == Poly.of(F2, 1, 1, 1)                    # x^2 + x + 1

def test_quadratic_factor_odd_exponent_absent(F2):
    assert quadratic_factor_of_F(F2.one, 1, 1) is None

def test_quadratic_factor_bad_power_index(F2):
    with pytest.raises(ValueError):
        quadratic_factor_of_F(F2.one, 3, 2)


def test_asymptotic_ratio_examples(F2, F3):
    C2 = reduced_type3(F3, F3.from_encoding(2))
    assert abs(asymptotic_ratio(C2, 6) - 1) < Fraction(5, 100)
    D1 = reduced_type4(F2, F2.one)
    r5 = asymptotic_ratio(D1, 5)
    r7 = asymptotic_ratio(D1, 7)
    assert r5 == Fraction(15, 16) and r7 == Fraction(63, 64)
    assert r5 < r7 < 1
    assert asymptotic_ratio(D1, 2) == 0


def inversion_consistency(spec, c, max_m=4):
    """Criterion-side factor counts against the generalized inversion of
    L(t) = q^t + (-1)^(t+1), for the order-(q+1)-family element [[0,1],[c,1]]:
    rows (m, j, expected, counted)."""
    base = reduced_type4(spec, c)
    D = ProjMat(base).order()
    q = spec.order
    results = []
    for mm in range(1, max_m + 1):
        if D * mm <= 2:
            continue
        expect = mobius_inversion(lambda d: principal_character(D, d),
                                  lambda t: q**t + (1 if t % 2 else -1), mm)
        assert expect % (D * mm) == 0, "inverted count must be divisible by D*m"
        expect //= D * mm
        for j in range(1, D):
            if int_gcd(j, D) == 1:
                got = count_factors_of_degree(F_poly(base**j, mm), D * mm)
                results.append((mm, j, expect, got))
    return results

def test_inversion_consistency_type4_f2(F2):
    rows = inversion_consistency(F2, F2.one, max_m=4)
    assert rows and all(expect == got for _, _, expect, got in rows)

def test_inversion_consistency_type4_f2_deep(F2):
    rows = inversion_consistency(F2, F2.one, max_m=6)
    assert rows and all(expect == got for _, _, expect, got in rows)


def test_triple_agreement_spot_checks_q7(F7):
    from pgl2poly import element_of_order, reduced_type3, smallest_nonsquare
    cases = [(element_of_order(F7, 2).rep, 4),
             (element_of_order(F7, 3).rep, 3),
             (reduced_type3(F7, smallest_nonsquare(F7)), 4),
             (element_of_order(F7, 4).rep, 4)]
    for rep, n in cases:
        cls = ProjMat(rep)
        D = cls.order()
        assert n % D == 0
        nf = count_invariants_formula(rep, n)
        assert nf == count_invariants_bruteforce(cls, n)
        assert nf == count_via_criterion(rep, n // D)


@pytest.mark.slow
def test_reciprocal_flip_dispatch_f5_degree8(F5):
    E = Mat2.from_encodings(F5, (0, 1, 1, 0))
    assert (count_invariants_formula(E, 8)
            == count_invariants_bruteforce(ProjMat(E), 8) == 78)


def test_formula_matches_bruteforce_spot(F3):
    # independent spot check at an odd transform degree, where the
    # alternating correction differs from a constant one
    C2 = reduced_type3(F3, F3.from_encoding(2))
    assert count_invariants_formula(C2, 6) == 4
    assert count_invariants_bruteforce(ProjMat(C2), 6) == 4
