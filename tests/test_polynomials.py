import random

import pytest

from pgl2poly import (Poly, compose, derivative, divrem, divides,
                      enumerate_monic_irreducibles, gcd, homogenize,
                      is_irreducible, make_field, monic_polys, monicize,
                      pow_mod, reciprocal, to_text)


def _mu(n):
    r, m = 1, n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            r = -r
        d += 1
    return -r if m > 1 else r

def necklace_count(q, n):
    total = sum(_mu(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def test_monicize_example(F3):
    f = Poly.of(F3, 1, 1, 2)              # 2x^2 + x + 1
    lc, monic = monicize(f)
    assert lc.encode() == 2
    assert monic == Poly.of(F3, 2, 2, 1)  # x^2 + 2x + 2

def test_divrem_example(F3):
    q, r = divrem(Poly.of(F3, 2, 0, 1), Poly.of(F3, 1, 1))   # (x^2-1) / (x+1)
    assert q == Poly.of(F3, 2, 1) and not r

def test_add_neg_cancels(F5):
    f = Poly.of(F5, 3, 1, 4)
    assert not (f + (-f))

def test_divrem_roundtrip_random():
    rng = random.Random(99)
    for p, s in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
        spec = make_field(p, s)
        for _ in range(1000):
            f = Poly(spec, [spec.from_encoding(rng.randrange(spec.order))
                            for _ in range(rng.randrange(1, 9))])
            g = Poly(spec, [spec.from_encoding(rng.randrange(spec.order))
                            for _ in range(rng.randrange(1, 6))])
            if not g:
                continue
            q, r = divrem(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

def test_divrem_by_zero(F3):
    with pytest.raises(ZeroDivisionError):
        divrem(Poly.of(F3, 1, 1), Poly.zero(F3))


def test_gcd_shared_root(F3):
    assert gcd(Poly.of(F3, 2, 0, 1), Poly.of(F3, 0, 1, 1)) == Poly.of(F3, 1, 1)

def test_gcd_with_zero(F3):
    f = Poly.of(F3, 1, 2)                 # 2x + 1
    assert gcd(f, Poly.zero(F3)) == monicize(f)[1]

def test_gcd_of_distinct_irreducibles(F2):
    f, g = enumerate_monic_irreducibles(F2, 3)
    assert gcd(f, g) == Poly.one(F2)

def test_gcd_both_zero_rejected(F2):
    with pytest.raises(ValueError):
        gcd(Poly.zero(F2), Poly.zero(F2))


def test_compose_example(F3):
    assert compose(Poly.of(F3, 1, 0, 1), Poly.of(F3, 1, 1)) == Poly.of(F3, 2, 2, 1)

def test_eval_example(F2):
    assert Poly.of(F2, 1, 1, 0, 1)(F2.one) == F2.one

def test_derivative_kills_characteristic_terms(F3):
    assert derivative(Poly.of(F3, 1, 2, 0, 1)) == Poly.of(F3, 2)

def test_compose_associativity_random(F5):
    rng = random.Random(4)
    for _ in range(50):
        f, g, h = (Poly(F5, [F5.from_encoding(rng.randrange(5))
                             for _ in range(rng.randrange(1, 4))])
                   for _ in range(3))
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)

def test_pow_mod_matches_plain_power(F3):
    base = Poly.of(F3, 1, 1)
    mod = Poly.of(F3, 1, 0, 1)
    assert pow_mod(base, 7, mod) == divrem(base ** 7, mod)[1]


def _naive_form(coeffs, u, v, k):
    # sum of c_i * u^i * v^(k-i) from power lists built by repeated products
    ring = u.ring
    upow, vpow = [Poly.one(ring)], [Poly.one(ring)]
    for _ in range(k):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    out = Poly.zero(ring)
    for i, c in enumerate(coeffs):
        out = out + (upow[i] * vpow[k - i]).scale(c)
    return out

@pytest.mark.parametrize("p,s", [(5, 1), (2, 2), (3, 2)])
def test_homogenize_matches_power_lists(p, s):
    ring = make_field(p, s)
    rng = random.Random(11)
    zero = ring.zero

    def rand_poly(max_len):
        return Poly(ring, [ring.from_encoding(rng.randrange(ring.order))
                           for _ in range(rng.randrange(0, max_len + 1))])
    for trial in range(150):
        u, v = rand_poly(3), rand_poly(3)
        if trial % 10 == 0:
            u = Poly.zero(ring)
        elif trial % 10 == 1:
            v = Poly.zero(ring)
        coeffs = [ring.from_encoding(rng.randrange(ring.order))
                  for _ in range(rng.randrange(0, 6))]
        if trial % 5 == 2:
            coeffs = [zero] + coeffs             # zero constant coefficient
        elif trial % 5 == 3:
            coeffs = coeffs + [zero]             # zero top coefficient
        top = len(coeffs) - 1
        for k in range(max(top, 0), top + 4):
            assert homogenize(coeffs, u, v, k) == _naive_form(coeffs, u, v, k)

def test_homogenize_rejects_short_form_degree(F3):
    x = Poly.x(F3)
    with pytest.raises(ValueError):
        homogenize((F3.one, F3.one, F3.one), x, x, 1)


def test_reciprocal_self_reciprocal_linear(F2):
    f = Poly.of(F2, 1, 1)
    assert reciprocal(f) == f

def test_reciprocal_reverses_coefficients(F3):
    assert reciprocal(Poly.of(F3, 2, 1, 1)) == Poly.of(F3, 1, 1, 2)

def test_reciprocal_involution_off_zero_constant(F5):
    rng = random.Random(7)
    for _ in range(100):
        coeffs = [F5.from_encoding(rng.randrange(1, 5))]
        coeffs += [F5.from_encoding(rng.randrange(5)) for _ in range(rng.randrange(5))]
        f = Poly(F5, coeffs)
        assert reciprocal(reciprocal(f)) == f

def test_reciprocal_drops_degree_at_zero_root(F3):
    assert reciprocal(Poly.of(F3, 0, 1, 1)).degree == 1


def test_irreducible_examples(F2):
    assert is_irreducible(Poly.of(F2, 1, 1, 1))
    assert not is_irreducible(Poly.of(F2, 1, 0, 1))      # (x+1)^2
    assert is_irreducible(Poly.of(F2, 1, 1, 0, 1))

def test_irreducible_rejects_constants(F2):
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F2))

@pytest.mark.parametrize("p", [2, 3])
def test_irreducible_against_trial_division(p):
    spec = make_field(p, 1)
    for n in range(2, 7):
        for f in monic_polys(spec, n):
            by_trial = not any(divides(g, f)
                               for d in range(1, n // 2 + 1)
                               for g in monic_polys(spec, d))
            assert is_irreducible(f) == by_trial

NECKLACE_FAST = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 9)]
                 + [(4, n) for n in range(1, 7)] + [(5, n) for n in range(1, 7)])

@pytest.mark.parametrize("q,n", NECKLACE_FAST)
def test_enumeration_matches_necklace_formula(q, n):
    spec = make_field(2, 2) if q == 4 else make_field(q, 1)
    assert len(enumerate_monic_irreducibles(spec, n)) == necklace_count(q, n)

@pytest.mark.slow
@pytest.mark.parametrize("q,n", [(4, 7), (4, 8), (5, 7), (5, 8)])
def test_enumeration_matches_necklace_formula_slow(q, n):
    spec = make_field(2, 2) if q == 4 else make_field(q, 1)
    assert len(enumerate_monic_irreducibles(spec, n)) == necklace_count(q, n)

def test_enumeration_f2_degree_3_exact(F2):
    assert list(enumerate_monic_irreducibles(F2, 3)) == [
        Poly.of(F2, 1, 1, 0, 1), Poly.of(F2, 1, 0, 1, 1)]

def test_enumeration_f2_degree_1(F2):
    assert list(enumerate_monic_irreducibles(F2, 1)) == [
        Poly.of(F2, 0, 1), Poly.of(F2, 1, 1)]

def test_enumeration_f3_degree_4_count(F3):
    assert len(enumerate_monic_irreducibles(F3, 4)) == 18


def test_text_form(F3):
    assert to_text(Poly.of(F3, 2, 0, 1)) == "x^2+2"
    assert to_text(Poly.zero(F3)) == "0"
    assert to_text(Poly.of(F3, 0, 2)) == "2*x"
