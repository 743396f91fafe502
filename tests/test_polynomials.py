import random
from itertools import product
from math import gcd as int_gcd

import pytest

from pgl2poly import (Felt, FieldSpec, Mat2, Poly, act, divrem, divides,
                      enumerate_monic_irreducibles, gcd, is_irreducible,
                      make_field, monic_polys, monicize, to_text)
from pgl2poly import action, polynomials
from pgl2poly.rational import RationalMap, substitute_mobius, transform
from pgl2poly.numutil import divisors
from pgl2poly.projective import ProjMat, all_classes, reduced_type4
from pgl2poly.verify import type_representatives


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
            f = Poly(spec, [rng.randrange(spec.order)
                            for _ in range(rng.randrange(1, 9))])
            g = Poly(spec, [rng.randrange(spec.order)
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


def test_pow_mod_matches_plain_power(F3):
    # _pow_logs, square-and-multiply on log lists
    logs, red = polynomials._logs, polynomials._reducer
    base = Poly.of(F3, 1, 1)
    mod = Poly.of(F3, 1, 0, 1)
    assert (polynomials._pow_logs(F3, logs(base), 7, red(F3, logs(mod)))
            == logs(divrem(base ** 7, mod)[1]))
    # e = 0, 1, the powers of two and everything between, against a
    # running product; the base is reduced once (degree above the modulus)
    big = Poly.of(F3, 2, 1, 0, 1, 2)
    mod = Poly.of(F3, 1, 2, 0, 1)
    r = red(F3, logs(mod))
    b, acc = polynomials._rem_logs(F3, logs(big), r), Poly.one(F3)
    for e in range(41):
        assert polynomials._pow_logs(F3, b, e, r) == logs(acc)
        acc = divrem(acc * big, mod)[1]

@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2),
                                  (11, 1), (13, 1), (31, 1), (101, 1), (2, 3),
                                  (5, 2), (3, 3)])
def test_frobenius_walk_matches_pow_mod(p, s):
    # the walk against x^(q^i) mod f, each a _ref_pow_mod q-th power of the
    # last, for f of degree 1..8, monic or not, some with a squared factor,
    # at consecutive steps, at the divisors of 12 (steps with gaps) and at no
    # step at all; then on the sparse criterion polynomials of degree q + 1
    # (and q^2 + 1 for q <= 7).  Small p takes the spread step, large p
    # _pow_logs on dense f and the spread step on the sparse ones
    ring = make_field(p, s)
    q = ring.order
    rng = random.Random(q * 10 + s)

    def ref_walk(f, top):
        out = [Poly.x(ring)]                       # x^(q^i) mod f at i = 0..top
        for _ in range(top):
            out.append(_ref_pow_mod(out[-1], q, f))
        return out

    def rand(deg, monic):
        return Poly(ring, [rng.randrange(q) for _ in range(deg)]
                    + [1 if monic else rng.randrange(1, q)])
    for trial in range(24):
        n, monic = trial % 8 + 1, trial % 2 == 0
        if trial % 3 == 2 and n >= 2:                   # a squared factor
            h = rand(n // 2, True)
            f = h * h * rand(n % 2, monic)
        else:
            f = rand(n, monic)
        ref = ref_walk(f, 12)
        for steps in (range(1, 9), divisors(12), ()):
            walk = polynomials._frobenius(ring, polynomials._logs(f), steps)
            assert ([polynomials._from_logs(ring, t) for t in walk]
                    == [ref[i] for i in steps])
    for _, rep in type_representatives(ring):
        for r in (1, 2) if q <= 7 else (1,):
            F = action.F_poly(rep, r)
            walk = polynomials._frobenius(ring, polynomials._logs(F), range(1, 4))
            assert ([polynomials._from_logs(ring, t) for t in walk]
                    == ref_walk(F, 3)[1:])


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (11, 1),
                                  (13, 1), (101, 1), (2, 3), (5, 2)])
def test_frobenius_step_matches_pow_logs(p, s):
    # the spread step against the square-and-multiply q-th power, whichever
    # of them the walk would choose, for t = 0, x and random t below deg f
    ring = make_field(p, s)
    q = ring.order
    rng = random.Random(q * 10 + s)
    for n in (1, 2, 12, 24):
        f = Poly(ring, [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)])
        red = polynomials._reducer(ring, polynomials._logs(f))
        cases = [[], polynomials._rem_logs(ring, [-1, 0], red)]
        for _ in range(4):
            cases.append(polynomials._logs(Poly(ring, [rng.randrange(q)
                                                       for _ in range(n)])))
        for t in cases:
            want = polynomials._pow_logs(ring, t, q, red)
            assert polynomials._frobenius_step(ring, t, red) == want


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2)])
def test_ben_or_makes_no_product(monkeypatch, p, s):
    # on the spread step an irreducible of degree 12 costs remainders and
    # gcds only: no step of the walk multiplies
    ring = make_field(p, s)
    q, rng = ring.order, random.Random(ring.order)
    while True:
        f = Poly(ring, [rng.randrange(q) for _ in range(12)] + [1])
        if is_irreducible(f):
            break
    is_irreducible.cache_clear()

    def refuse(*args):
        raise AssertionError("Ben-Or took a product")
    monkeypatch.setattr(polynomials, "_mul_logs", refuse)
    assert is_irreducible(f)


def _naive_form(coeffs, u, v, k):
    # sum of c_i * u^i * v^(k-i) from power lists built by repeated products
    ring = u.ring
    upow, vpow = [Poly.one(ring)], [Poly.one(ring)]
    for _ in range(k):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    out = Poly.zero(ring)
    for i, c in enumerate(coeffs):
        out = out + (upow[i] * vpow[k - i]).scale(ring.from_encoding(c))
    return out

def _linear_forms(m):
    # the two columns of m, read as a*x + c and b*x + d
    spec = m.spec
    return Poly(spec, (m.c.n, m.a.n)), Poly(spec, (m.d.n, m.b.n))

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_form_matrix_matches_homogenize(p, s):
    # column i is the form of x^i in u = a*x + c and v = b*x + d, from power
    # lists, for the columns of every class, a = 0 and b = 0 included
    ring = make_field(p, s)
    mats = [cls.rep for cls in all_classes(ring)]
    assert any(not m.a for m in mats) and any(not m.b for m in mats)
    for m in mats:
        u, v = _linear_forms(m)
        for k in range(9):
            rows = polynomials.form_matrix(ring, m, k)
            assert len(rows) == k + 1 and all(len(row) == k + 1 for row in rows)
            for i in range(k + 1):
                col = _naive_form((0,) * i + (1,), u, v, k)
                assert [row[i] for row in rows] == (
                    polynomials._logs(col) + [-1] * (k - col.degree))


def test_irreducible_examples(F2):
    assert is_irreducible(Poly.of(F2, 1, 1, 1))
    assert not is_irreducible(Poly.of(F2, 1, 0, 1))      # (x+1)^2
    assert is_irreducible(Poly.of(F2, 1, 1, 0, 1))

def test_irreducible_rejects_constants(F2):
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F2))

# q -> (p, s, highest degree checked)
TRIAL_FIELDS = {2: (2, 1, 6), 3: (3, 1, 6), 4: (2, 2, 5), 5: (5, 1, 4)}

@pytest.mark.parametrize("q", sorted(TRIAL_FIELDS))
def test_irreducible_against_trial_division(q):
    p, s, top = TRIAL_FIELDS[q]
    spec = make_field(p, s)
    for n in range(2, top + 1):
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


# -- the table kernels against Felt-operator schoolbook loops ---------------

KERNEL_FIELDS = [make_field(p, s) for p, s in
                 ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                  (5, 2), (3, 3), (7, 2), (2, 6))] + [FieldSpec(3, 2, (2, 1, 1))]


def _felts(f):
    return [f.ring.from_encoding(c) for c in f.coeffs]

def _from_felts(ring, coeffs):
    return Poly(ring, [c.n for c in coeffs])

def _ref_mul(f, g):
    a, b = _felts(f), _felts(g)
    if not a or not b:
        return Poly.zero(f.ring)
    out = [f.ring.zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] = out[i + j] + c * d
    return _from_felts(f.ring, out)

def _ref_divrem(f, g):
    ring = f.ring
    if f.degree < g.degree:
        return Poly.zero(ring), f
    ginv = g.lc().inverse()
    rem, gc, gdeg = _felts(f), _felts(g), g.degree
    quot = [ring.zero] * (len(rem) - gdeg)
    for k in range(len(rem) - gdeg - 1, -1, -1):
        top = rem[k + gdeg]
        if top:
            c = top * ginv
            quot[k] = c
            for i in range(gdeg + 1):
                rem[k + i] = rem[k + i] - c * gc[i]
    return _from_felts(ring, quot), _from_felts(ring, rem[:gdeg])

def _ref_add(f, g, sign):
    a, b = _felts(f), _felts(g)
    zero = f.ring.zero
    n = max(len(a), len(b))
    a, b = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
    return _from_felts(f.ring, [x + y if sign > 0 else x - y for x, y in zip(a, b)])

def _ref_eval(f, x):
    acc = f.ring.zero
    for c in reversed(_felts(f)):
        acc = acc * x + c
    return acc

def _ref_gcd(f, g):
    while g:
        f, g = g, _ref_divrem(f, g)[1]
    inv = f.lc().inverse()
    return _from_felts(f.ring, [c * inv for c in _felts(f)])

def _ref_pow_mod(base, e, modulus):
    result = Poly.one(base.ring)
    base = _ref_divrem(base, modulus)[1]
    while e:
        if e & 1:
            result = _ref_divrem(_ref_mul(result, base), modulus)[1]
        base = _ref_divrem(_ref_mul(base, base), modulus)[1]
        e >>= 1
    return result

def _kernel_cases(ring, rng, count):
    """Random polynomials of degree -1..40: the zero polynomial, a zero
    constant term, non-monic tops and constants all occur."""
    q = ring.order
    out = [Poly.zero(ring), Poly.one(ring), Poly(ring, (q - 1,)),
           Poly(ring, (1, 0, q - 1))]
    for i in range(count):
        deg = rng.choice((-1, 0, 1, 2, 5, 12, 20, 40)) if i % 3 else rng.randrange(41)
        coeffs = [rng.randrange(q) for _ in range(deg + 1)]
        if coeffs and i % 4 == 1:
            coeffs[0] = 0
        if coeffs and i % 5 == 2:
            coeffs[-1] = rng.randrange(1, q)
        out.append(Poly(ring, coeffs))
    return out

@pytest.mark.parametrize("ring", KERNEL_FIELDS, ids=repr)
def test_kernels_match_felt_reference(ring):
    rng = random.Random(ring.order * 31 + ring.modulus[0])
    polys = _kernel_cases(ring, rng, 24)
    points = list(ring.elements()) if ring.order <= 9 else [
        ring.from_encoding(rng.randrange(ring.order)) for _ in range(6)]
    for f in polys:
        assert -f == _ref_add(Poly.zero(ring), f, -1)
        for x in points:
            assert f.scale(x) == _ref_mul(f, Poly(ring, (x.n,)))
        for g in rng.sample(polys, 6):
            assert f * g == _ref_mul(f, g)
            assert f + g == _ref_add(f, g, 1)
            assert f - g == _ref_add(f, g, -1)
            if g:
                assert divrem(f, g) == _ref_divrem(f, g)
            if f or g:
                assert gcd(f, g) == _ref_gcd(f, g)
        h = rng.choice([h for h in polys if h])       # a common factor
        g = rng.choice(polys)
        if f or g:
            assert gcd(f * h, g * h) == _ref_gcd(_ref_mul(f, h), _ref_mul(g, h))
    # moduli of degree 1..40 and walks of up to 8*log2(q) squarings: a kernel
    # that left its logs unreduced would index past the doubled exp table
    q = ring.order
    for top in (q ** 3, q ** 3, q ** 8):
        modulus = next(g for g in rng.sample(polys, len(polys)) if g.degree >= 1)
        if top == q ** 8:
            modulus = Poly(ring, [rng.randrange(q) for _ in range(rng.randrange(13, 41))]
                           + [rng.randrange(1, q)])
        base, e = rng.choice(polys), rng.randrange(top)
        red = polynomials._reducer(ring, polynomials._logs(modulus))
        b = polynomials._rem_logs(ring, polynomials._logs(base), red)
        assert (polynomials._pow_logs(ring, b, e, red)
                == polynomials._logs(_ref_pow_mod(base, e, modulus)))

@pytest.mark.parametrize("ring", KERNEL_FIELDS, ids=repr)
def test_encode_is_the_base_q_sum(ring):
    q = ring.order
    for f in _kernel_cases(ring, random.Random(q), 12):
        assert f.encode() == sum(c * q**i for i, c in enumerate(f.coeffs))

def _all_polys(ring, n):
    # every polynomial of degree <= n, the zero polynomial and every
    # non-monic top included
    return [Poly(ring, c) for c in product(range(ring.order), repeat=n + 1)]

@pytest.mark.parametrize("p,s", [(2, 2), (5, 1)])
def test_gcd_matches_reference_on_every_low_degree_pair(p, s):
    # Euclid's in-place division shifts by log(-1) - log lc reduced mod q - 1;
    # left negative, the shift collides with the -1 of a zero coefficient
    ring = make_field(p, s)
    polys = _all_polys(ring, 2)
    for f in polys:
        for g in polys:
            if f or g:
                assert gcd(f, g) == _ref_gcd(f, g)

def _criterion_polys(ring):
    # the sparse criterion polynomials F_poly(base^j, m) of the type-4 classes
    # [[0, 1], [c, 1]], j prime to the order D, m <= 3
    for c in list(ring.elements())[1:]:
        base = reduced_type4(ring, c)
        if not is_irreducible(Poly(ring, (base.det.n, (-base.trace).n, 1))):
            continue                       # x^2 - x - c reducible
        D = ProjMat(base).order()
        for j in range(1, D):
            if int_gcd(j, D) == 1:
                yield from (action.F_poly(base ** j, m) for m in (1, 2, 3))

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_root_test_matches_evaluation(p, s):
    # every polynomial of degree <= 3, and over GF(2) and GF(3) the criterion
    # polynomials of degree q^m + 1, against Horner at every point
    ring = make_field(p, s)
    points = list(ring.elements())
    polys = _all_polys(ring, 3)
    if s == 1 and p <= 3:
        polys += _criterion_polys(ring)
    for f in polys:
        assert polynomials._has_root(ring, polynomials._logs(f)) == any(
            _ref_eval(f, a) == ring.zero for a in points)

@pytest.mark.parametrize("ring", KERNEL_FIELDS, ids=repr)
def test_kernels_return_reduced_trimmed_logs(ring):
    rng = random.Random(ring.order)
    m = ring.order - 1
    logs = [polynomials._logs(f) for f in _kernel_cases(ring, rng, 12)]

    def reduced(out):
        return all(-1 <= x < m for x in out) and (not out or out[-1] >= 0)
    for a in logs:
        for b in rng.sample(logs, 4):
            assert reduced(polynomials._mul_logs(ring, a, b))
            assert reduced(polynomials._add_logs(ring, list(a), b, rng.randrange(m + 1)))
            if b:
                r = list(a)
                red = polynomials._reducer(ring, b)
                assert reduced(polynomials._rem_logs(ring, r, red))
                assert reduced(r[red[0]:])              # the quotient

@pytest.mark.parametrize("ring", KERNEL_FIELDS, ids=repr)
def test_form_kernel_matches_power_lists(ring):
    # polynomials._form on log lists with a trailing zero, for u and v of
    # every degree -1..3 (zero and constant included), coefficient lists with
    # one to four zero low terms, zero-padded to k + 1 entries for
    # k = top..top+3; k = 40 keeps the logs unreduced over many Horner steps
    rng = random.Random(ring.order * 13 + ring.modulus[0])
    q = ring.order

    def rand_poly(deg):
        if deg < 0:
            return Poly.zero(ring)
        return Poly(ring, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])
    long_run = (ring.p, ring.s) in ((2, 6), (7, 2))
    for trial in range(50):
        u, v = rand_poly(trial % 5 - 1), rand_poly(trial // 5 % 5 - 1)
        coeffs = [rng.randrange(q) for _ in range(rng.randrange(6))]
        if trial % 3 == 1:
            coeffs = [0] * (1 + trial % 4) + coeffs      # zero low coefficients
        top = Poly(ring, coeffs).degree
        coeffs = coeffs[:top + 1]
        for k in [*range(max(top, 0), top + 4), *([40] if long_run else [])]:
            padded = tuple(coeffs + [0] * (k - top))
            assert polynomials._form(ring, padded, polynomials._logs(u) + [-1],
                                     polynomials._logs(v) + [-1]) == (
                _naive_form(coeffs, u, v, k))

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_mobius_form_matches_power_lists_on_every_class(p, s):
    # polynomials._mobius_form on the columns a*x + c and b*x + d of every
    # class, each of a, b, c and d zero for some class, against power lists:
    # coefficient lists with a zero lowest or a zero highest entry, and k up
    # to two above the degree; k = 30 keeps the logs unreduced over long shifts
    ring = make_field(p, s)
    q = ring.order
    rng = random.Random(q * 7 + s)
    mats = [cls.rep for cls in all_classes(ring)]
    for entry in "abcd":
        assert any(not getattr(m, entry) for m in mats)
    for i, m in enumerate(mats):
        u, v = _linear_forms(m)
        for trial in range(3):
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 6))]
            if trial:
                coeffs[0 if trial == 1 else -1] = 0    # zero lowest or highest
            top = Poly(ring, coeffs).degree
            for k in [*range(max(top, 0), top + 3), *([30] if i % 50 == 0 else [])]:
                assert polynomials._mobius_form(ring, tuple(coeffs), m, k) == (
                    _naive_form(coeffs[:top + 1], u, v, k))

@pytest.mark.parametrize("p,s", [(3, 1), (2, 2)])
def test_no_singular_matrix_reaches_the_mobius_form(p, s):
    # _mobius_form and form_matrix take a Mat2, and Mat2 refuses every
    # singular [[a, b], [c, d]], a zero column included, with an explicit
    # check that python -O keeps
    ring = make_field(p, s)
    for a, b, c, d in product(ring.elements(), repeat=4):
        if a * d == b * c:
            with pytest.raises(ValueError, match="singular"):
                Mat2(a, b, c, d)

def test_act_and_substitute_mobius_make_no_product(monkeypatch):
    # the Moebius form is two Taylor shifts and scalings; the Horner loop it
    # replaced made 2(k + 1) _mul_into calls per form
    F7 = make_field(7, 1)
    m = Mat2.from_encodings(F7, (2, 3, 5, 1))
    f = Poly(F7, [1, 0, 4, 6, 0, 2, 3])
    calls = []
    monkeypatch.setattr(polynomials, "_mul_into", lambda *args: calls.append(args))
    act(m, f)
    substitute_mobius(RationalMap(f, Poly.x(F7), 7), m)
    assert calls == []

def test_scale_and_monicize_make_no_product(monkeypatch):
    # scaling is one log shift per coefficient; a product with a one-term
    # Poly made a _mul_into call per scaling
    F7 = make_field(7, 1)
    f = Poly(F7, [1, 0, 4, 6, 0, 2, 3])
    calls = []
    monkeypatch.setattr(polynomials, "_mul_into", lambda *args: calls.append(args))
    assert f.scale(F7.from_encoding(5)).lc() == F7.from_encoding(1)
    assert monicize(f)[1].is_monic
    assert calls == []

def test_euclid_takes_no_reducer_and_ben_or_one(monkeypatch):
    # Euclid divides in place; only the Frobenius walk builds a reducer, once.
    # A reducer per Euclid step made dozens on this case
    F3 = make_field(3, 1)
    rng = random.Random(9)
    while True:
        f = Poly(F3, [rng.randrange(3) for _ in range(14)] + [1])
        if is_irreducible(f):
            break
    g = Poly(F3, [rng.randrange(3) for _ in range(13)] + [2])
    is_irreducible.cache_clear()
    calls = []
    reducer = polynomials._reducer
    monkeypatch.setattr(polynomials, "_reducer",
                        lambda *args: calls.append(args) or reducer(*args))
    gcd(f, g)
    assert calls == []
    assert is_irreducible(f)
    assert len(calls) == 1

def test_kernel_field_products_stay_out_of_felt(monkeypatch):
    # the Frobenius walk, act and divrem index the tables directly; the
    # Felt-level schoolbook loops made 16,222 Felt products and sums on this
    # case
    F5 = make_field(5, 1)
    rng = random.Random(12)
    f = Poly(F5, [rng.randrange(5) for _ in range(12)] + [3])
    dividend = Poly(F5, [rng.randrange(5) for _ in range(19)] + [2])
    A = Mat2.from_encodings(F5, (2, 3, 1, 1))
    calls = [0]
    for name in ("__mul__", "__add__", "__sub__"):
        def counted(x, y, _op=vars(Felt)[name]):
            calls[0] += 1
            return _op(x, y)
        monkeypatch.setattr(Felt, name, counted)
    list(polynomials._frobenius(F5, polynomials._logs(f), [12]))
    act(A, f)
    divrem(dividend, f)
    assert calls[0] <= 4

def test_act_and_pow_mod_build_at_most_three_polys(monkeypatch):
    # act and the Frobenius walk run in the log domain and build at most
    # their result; a Poly per intermediate product made hundreds
    F5 = make_field(5, 1)
    rng = random.Random(12)
    f = Poly(F5, [rng.randrange(5) for _ in range(12)] + [3])
    A = Mat2.from_encodings(F5, (2, 3, 1, 1))
    built = [0]
    init, unchecked = Poly.__init__, polynomials._poly

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counted_poly(*args):
        built[0] += 1
        return unchecked(*args)
    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(polynomials, "_poly", counted_poly)
    for run in (lambda: act(A, f),
                lambda: list(polynomials._frobenius(F5, polynomials._logs(f), [12]))):
        built[0] = 0
        run()
        assert built[0] <= 3


def test_act_builds_only_its_result(monkeypatch):
    # act reads the logs of a*x + c and b*x + d off the matrix; building the
    # two linear forms as Polys made 3
    F5 = make_field(5, 1)
    f = Poly.of(F5, 1, 4, 0, 2, 3)
    built = []
    init, unchecked = Poly.__init__, polynomials._poly
    monkeypatch.setattr(Poly, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(polynomials, "_poly", lambda *a: built.append(a) or unchecked(*a))
    for entries in ((2, 3, 1, 1), (0, 1, 1, 0), (1, 0, 4, 2)):
        built.clear()
        act(Mat2.from_encodings(F5, entries), f)
        assert len(built) == 1

def test_transform_calls_no_product_kernel(monkeypatch):
    # one Horner kernel: the per-step _mul_logs, _add_logs and _from_logs
    # calls (each rebuilding term lists and reducing logs) are gone
    F7 = make_field(7, 1)
    Q = RationalMap(Poly.of(F7, 3, 2), Poly.of(F7, 1, 5, 6), 2)
    F = Poly(F7, tuple(range(1, 7)) * 2 + (4,))
    want = _naive_form(F.coeffs, Q.num, Q.den, 12)
    for name in ("_mul_logs", "_add_logs", "_from_logs"):
        monkeypatch.setattr(polynomials, name, None)
    assert transform(F, Q) == want

# -- polynomials over different fields never mix ----------------------------

MIXED = [((3, 1), (3, 2)), ((2, 1), (2, 2))]

def _mixed_pair(small, big):
    a, b = make_field(*small), make_field(*big)
    return Poly.of(a, 1, 1, 1), Poly.of(b, 1, 1, 1), a, b

BINARY = {"add": lambda f, g: f + g, "sub": lambda f, g: f - g,
          "mul": lambda f, g: f * g, "divrem": divrem, "gcd": gcd,
          "divides": divides,
          "transform": lambda f, g: transform(Poly.x(f.ring), RationalMap(f, g, 2)),
          "substitute_mobius": lambda f, g: substitute_mobius(RationalMap(f, g, 2),
                                                              Mat2.identity(f.ring))}

@pytest.mark.parametrize("small,big", MIXED)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_operations_reject_mixed_fields(small, big, name):
    f, g, a, b = _mixed_pair(small, big)
    for x, y in ((f, g), (g, f), (f, Poly.zero(b)), (Poly.zero(a), g)):
        with pytest.raises(ValueError, match="mixed field specs"):
            BINARY[name](x, y)

@pytest.mark.parametrize("small,big", MIXED)
def test_field_value_arguments_reject_mixed_fields(small, big):
    f, g, a, b = _mixed_pair(small, big)
    with pytest.raises(ValueError, match="mixed field specs"):
        f.scale(b.one)
    with pytest.raises(ValueError, match="mixed field specs"):
        Poly.monomial(a, b.one, 2)
    for m, h in ((Mat2.identity(b), f), (Mat2.identity(a), g)):
        with pytest.raises(ValueError, match="mixed field specs"):
            act(m, h)                     # f's encodings are valid in b

def test_monomial_rejects_a_negative_exponent(F3):
    assert Poly.monomial(F3, F3.one, 0) == Poly.one(F3)
    with pytest.raises(ValueError, match="exponent"):
        Poly.monomial(F3, F3.one, -1)

@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (2, 1), (2, 2)])
def test_constructor_rejects_non_encodings(p, s):
    ring = make_field(p, s)
    for bad in (-1, ring.order, ring.order + 5, 1.0, "1", None, True, ring.one):
        with pytest.raises(ValueError):
            Poly(ring, (1, bad, 1))
    assert Poly(ring, (ring.order - 1, 0, 0)).coeffs == (ring.order - 1,)
