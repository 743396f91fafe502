import random

import pytest

from pgl2poly import (FieldSpec, artin_schreier_root, element_of_mult_order,
                      embed, frobenius_q, is_square, make_ext, make_field,
                      smallest_nonsquare, sqrt, try_descend)
from pgl2poly.fields import trace

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def test_make_field_f4_unique_quadratic():
    spec = make_field(2, 2)
    assert spec.modulus == (1, 1, 1)

def test_make_field_f9_scan_oracle():
    # first monic quadratic over GF(3), in encoding order, without a root
    found = None
    for code in range(9):
        c0, c1 = code % 3, code // 3
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            found = (c0, c1, 1)
            break
    spec = make_field(3, 2)
    assert spec.modulus == found == (1, 0, 1)

def test_make_field_degree_one_convention():
    assert make_field(5, 1).modulus == (0, 1)

def test_make_field_rejects_bad_args():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(3, 0)

def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)


def test_inverse_in_f5():
    F5 = make_field(5, 1)
    assert F5.from_encoding(2).inverse().encode() == 3

def test_generator_square_in_f4():
    F4 = make_field(2, 2)
    t = F4.from_encoding(2)
    assert (t * t).encode() == 3          # t^2 = t + 1, forced by the modulus

def test_pow_in_f3():
    F3 = make_field(3, 1)
    assert (F3.from_encoding(2) ** 2) == F3.one

def test_inverse_of_zero_raises():
    F3 = make_field(3, 1)
    with pytest.raises(ZeroDivisionError):
        F3.zero.inverse()

def test_mixed_specs_rejected():
    with pytest.raises(ValueError):
        make_field(3, 1).one + make_field(5, 1).one

def test_field_spec_equality_includes_the_modulus():
    spec = make_field(3, 2)                       # modulus x^2 + 1
    other = FieldSpec(3, 2, (2, 1, 1))            # x^2 + x + 2, also irreducible
    assert other != spec
    assert FieldSpec(3, 2, spec.modulus) == spec
    assert hash(FieldSpec(3, 2, spec.modulus)) == hash(spec)
    with pytest.raises(ValueError, match="mixed field specs"):
        other.from_encoding(4) * spec.from_encoding(4)


@pytest.mark.parametrize("p,s", SMALL_Q)
def test_field_axioms_sampled(p, s):
    spec = make_field(p, s)
    rng = random.Random(p * 100 + s)
    q = spec.order
    for _ in range(1000):
        x, y, z = (spec.from_encoding(rng.randrange(q)) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == spec.zero
        if x:
            assert x * x.inverse() == spec.one

@pytest.mark.parametrize("p,s", SMALL_Q)
def test_encoding_bijection_exhaustive(p, s):
    spec = make_field(p, s)
    seen = {x.encode() for x in spec.elements()}
    assert seen == set(range(spec.order))
    for n in range(spec.order):
        assert spec.from_encoding(n).encode() == n


def test_is_square_f5_against_square_set():
    F5 = make_field(5, 1)
    squares = {(x * x) % 5 for x in range(5)}
    for x in F5.elements():
        assert is_square(x) == (x.encode() in squares)
    assert not is_square(F5.from_encoding(2))

def test_is_square_even_characteristic_always():
    for spec in (make_field(2, 1), make_field(2, 2), make_field(2, 3)):
        assert all(is_square(x) for x in spec.elements())

@pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3)])
def test_smallest_nonsquare(p, expected):
    spec = make_field(p, 1)
    squares = {(x * x) % p for x in range(p)}
    assert smallest_nonsquare(spec).encode() == expected
    assert expected not in squares

def test_smallest_nonsquare_even_q_rejected():
    with pytest.raises(ValueError):
        smallest_nonsquare(make_field(2, 2))


# q = 3, 5, 9, 13, 17, 25, 27, 41, 49, 81, 97: the 2-adic valuation of q - 1
# takes every value 1..5
@pytest.mark.parametrize("p,s", [(3, 1), (5, 1), (3, 2), (13, 1), (17, 1),
                                 (5, 2), (3, 3), (41, 1), (7, 2), (3, 4),
                                 (97, 1)])
def test_sqrt_of_every_element_odd_q(p, s):
    spec = make_field(p, s)
    squares = {x * x for x in spec.elements()}
    for x in spec.elements():
        r = sqrt(x)
        if x in squares:
            assert r is not None and r * r == x
        else:
            assert r is None

@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_sqrt_even_q(s):
    spec = make_field(2, s)
    for x in spec.elements():
        assert sqrt(x) * sqrt(x) == x

@pytest.mark.parametrize("s", range(1, 7))
def test_artin_schreier_root_exhaustive(s):
    spec = make_field(2, s)
    image = {y * y + y for y in spec.elements()}   # the trace-0 hyperplane
    assert len(image) == spec.order // 2
    for t in spec.elements():
        y = artin_schreier_root(t)
        if t in image:
            assert y is not None and y * y + y == t
        else:
            assert y is None

def test_artin_schreier_root_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        artin_schreier_root(make_field(3, 1).one)


def test_element_of_mult_order_f5():
    F5 = make_field(5, 1)
    assert element_of_mult_order(F5, 2).encode() == 4   # the only element of order 2
    assert element_of_mult_order(F5, 1) == F5.one

def test_element_of_mult_order_f7():
    F7 = make_field(7, 1)
    x = element_of_mult_order(F7, 3)
    assert x ** 3 == F7.one and x != F7.one

@pytest.mark.parametrize("p,s", SMALL_Q)
def test_element_orders_are_exact(p, s):
    spec = make_field(p, s)
    n = spec.order - 1
    for d in range(1, n + 1):
        if n % d:
            continue
        x = element_of_mult_order(spec, d)
        assert x ** d == spec.one
        for e in range(1, d):
            if d % e == 0:
                assert x ** e != spec.one

def test_element_of_mult_order_bad_divisor():
    with pytest.raises(ValueError):
        element_of_mult_order(make_field(5, 1), 3)

def test_element_of_mult_order_in_extension():
    ext = make_ext(make_field(3, 1))
    for d in (1, 2, 4, 8):
        x = element_of_mult_order(ext, d)
        assert x ** d == ext.one
        assert all(x ** e != ext.one for e in range(1, d))


def _least_primitive(spec):
    # the brute scan: the first unit in encoding order whose order is #units
    n = spec.order - 1
    proper = [e for e in range(1, n) if n % e == 0]
    return next(x for x in spec.elements()
                if x and all(x ** e != spec.one for e in proper))

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                 (3, 2), (5, 2), (3, 3), (101, 1)])
def test_element_of_mult_order_is_a_power_of_the_least_primitive(p, s):
    base = make_field(p, s)
    for spec in (base, make_ext(base)):
        g0, n = _least_primitive(spec), spec.order - 1
        for d in range(1, n + 1):
            if n % d == 0:
                assert element_of_mult_order(spec, d) == g0 ** (n // d)


def test_make_ext_f2_modulus():
    ext = make_ext(make_field(2, 1))
    assert (ext.m0.encode(), ext.m1.encode()) == (1, 1)   # x^2 + x + 1

@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_trace_is_the_sum_of_the_conjugates(p, s):
    # x + x^p + ... + x^(p^(s-1)), each p-th power by p - 1 products rather
    # than through the log table; the trace lands in GF(p) (encodings below
    # p), is GF(p)-linear and takes each value q/p times
    spec = make_field(p, s)
    prime = [spec.from_encoding(a) for a in range(p)]
    seen = []
    for x in spec.elements():
        want, y = spec.zero, x
        for _ in range(s):
            want = want + y
            z = y
            for _ in range(p - 1):
                z = z * y
            y = z
        tr = trace(x)
        assert tr == want and tr.n < p, x
        seen.append(tr.n)
    assert sorted(seen) == sorted(list(range(p)) * (spec.order // p))
    rng = random.Random(5)
    for _ in range(50):
        a = rng.choice(prime)
        x, y = (spec.from_encoding(rng.randrange(spec.order)) for _ in range(2))
        assert trace(a * x + y) == a * trace(x) + trace(y)

@pytest.mark.parametrize("s", range(1, 11))
def test_make_ext_even_q_beta_matches_the_trace_scan(s):
    # the least beta whose sum beta + beta^2 + ... + beta^(2^(s-1)) is one,
    # the scan make_ext ran before it read fields.trace
    spec = make_field(2, s)
    beta = next(x for x in spec.elements()
                if sum((x ** 2**i for i in range(s)), spec.zero) == spec.one)
    ext = make_ext(spec)
    assert ext.m0 == beta and ext.m1 == spec.one

def test_make_ext_odd_q_modulus():
    spec = make_field(3, 1)
    ext = make_ext(spec)
    # x^2 - beta for the smallest non-square beta = 2
    assert ext.m1 == spec.zero and ext.m0 == -smallest_nonsquare(spec)

@pytest.mark.parametrize("p,s", SMALL_Q)
def test_frobenius_fixes_exactly_the_base(p, s):
    spec = make_field(p, s)
    ext = make_ext(spec)
    fixed = {z for z in ext.elements() if frobenius_q(z) == z}
    assert fixed == {embed(x) for x in spec.elements()}

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_frobenius_is_an_involution_and_a_homomorphism(p, s):
    spec = make_field(p, s)
    ext = make_ext(spec)
    rng = random.Random(11)
    for _ in range(300):
        z = ext.from_encoding(rng.randrange(ext.order))
        w = ext.from_encoding(rng.randrange(ext.order))
        assert frobenius_q(frobenius_q(z)) == z
        assert frobenius_q(z + w) == frobenius_q(z) + frobenius_q(w)
        assert frobenius_q(z * w) == frobenius_q(z) * frobenius_q(w)

def test_descend_embed_roundtrip():
    spec = make_field(5, 1)
    for x in spec.elements():
        assert try_descend(embed(x)) == x

def test_descend_outside_base_is_none():
    ext = make_ext(make_field(3, 1))
    assert try_descend(ext.omega) is None

def test_ext_field_axioms_sampled():
    ext = make_ext(make_field(3, 2))
    rng = random.Random(5)
    for _ in range(400):
        x, y, z = (ext.from_encoding(rng.randrange(ext.order)) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if x:
            assert x * x.inverse() == ext.one


# ---------------------------------------------------------------------------
# the log/Zech tables against an independent digit-vector reference

def _digits(n, p, s):
    return [n // p**i % p for i in range(s)]

def _encode(digits, p):
    return sum(d % p * p**i for i, d in enumerate(digits))

def _ref_mul(spec, a, b):
    # schoolbook product of the coordinate vectors, reduced by the modulus
    p, s = spec.p, spec.s
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(_digits(a, p, s)):
        for j, y in enumerate(_digits(b, p, s)):
            prod[i + j] += x * y
    for k in range(2 * s - 2, s - 1, -1):
        c = prod[k] % p
        for i, m in enumerate(spec.modulus):
            prod[k - s + i] -= c * m
    return _encode(prod[:s], p)

TABLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (5, 2), (3, 3), (7, 2), (2, 6), (3, 2, (2, 1, 1))]

@pytest.mark.parametrize("case", TABLE_FIELDS, ids=str)
def test_tables_match_digit_reference(case):
    p, s = case[:2]
    spec = make_field(p, s) if len(case) == 2 else FieldSpec(p, s, case[2])
    q = spec.order
    els = list(spec.elements())
    prod = [[_ref_mul(spec, a, b) for b in range(q)] for a in range(q)]
    inv = {a: prod[a].index(1) for a in range(1, q)}
    for a, x in enumerate(els):
        da = _digits(a, p, s)
        assert (-x).encode() == _encode([-d for d in da], p)
        for b, y in enumerate(els):
            db = _digits(b, p, s)
            assert (x + y).encode() == _encode([u + v for u, v in zip(da, db)], p)
            assert (x - y).encode() == _encode([u - v for u, v in zip(da, db)], p)
            assert (x * y).encode() == prod[a][b]
            if b:
                assert (x / y).encode() == prod[a][inv[b]]
        with pytest.raises(ZeroDivisionError):
            x / spec.zero
        if a:
            assert x.inverse().encode() == inv[a]
        up, down = [1], [1]               # a^k and a^-k for k = 0..2q
        for _ in range(2 * q):
            up.append(prod[up[-1]][a])
            down.append(prod[down[-1]][inv[a]] if a else None)
        for e in range(-q, 2 * q + 1):
            if a or e >= 0:
                assert (x ** e).encode() == (up[e] if e >= 0 else down[-e])
            else:
                with pytest.raises(ZeroDivisionError):
                    x ** e
    squares = {prod[a][a] for a in range(q)}
    for a, x in enumerate(els):
        assert is_square(x) == (a in squares)
        r = sqrt(x)
        assert (r is None) == (a not in squares)
        if r is not None:
            assert prod[r.encode()][r.encode()] == a
    if p > 2:
        assert smallest_nonsquare(spec).encode() == min(set(range(q)) - squares)

@pytest.mark.parametrize("modulus", [(0, 0, 1), (1, 0, 1)])   # x^2, (x + 1)^2
def test_field_spec_rejects_a_reducible_modulus(modulus):
    with pytest.raises(ValueError, match="not irreducible"):
        FieldSpec(2, 2, modulus)

def test_make_field_rejects_fields_above_the_table_limit():
    for p, s in ((2, 21), (1031, 2), (1048583, 1), (3, 10**9)):
        with pytest.raises(ValueError, match="too large"):
            make_field(p, s)

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_frobenius_is_the_q_th_power(p, s):
    ext = make_ext(make_field(p, s))
    for z in ext.elements():
        assert frobenius_q(z) == z ** ext.base.order

def _digit_walk(p, s, modulus, g):
    # g^0, g^1, ..., g^(q-2) by multiplying digit lists, Horner on g's digits
    # (the walk every extension field used before GF(2^s) got its bit walk)
    high_first = _digits(g, p, s)[::-1]
    while high_first and not high_first[0]:
        high_first.pop(0)
    tail = [(-m) % p for m in modulus[:s]]
    cur, exp = _digits(1, p, s), []
    for _ in range(p**s - 1):
        exp.append(_encode(cur, p))
        acc = [0] * s
        for c in high_first:
            top = acc[-1]
            acc = [(a + top * m + c * t) % p
                   for a, m, t in zip([0] + acc[:-1], tail, cur)]
        cur = acc
    return exp

def _ref_order(spec, a):
    k, x = 1, a
    while x != 1:
        k, x = k + 1, _ref_mul(spec, x, a)
    return k

@pytest.mark.parametrize("s", range(1, 13))
def test_binary_tables_match_the_digit_walk(s):
    spec = make_field(2, s)
    q = spec.order
    g = next(g for g in range(1, q) if _ref_order(spec, g) == q - 1)
    exp = _digit_walk(2, s, spec.modulus, g)
    log = [-1] * q
    for i, n in enumerate(exp):
        log[n] = i
    assert spec.exp == exp + exp
    assert spec.log == log
    assert spec.zech == [log[n ^ 1] for n in exp]        # 1 + n flips bit 0
