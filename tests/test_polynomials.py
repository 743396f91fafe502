import random

import pytest

from pgl2poly import (Felt, FieldSpec, Mat2, Poly, act, divrem, divides,
                      enumerate_monic_irreducibles, gcd, homogenize,
                      is_irreducible, make_field, monic_polys, monicize,
                      pow_mod, reciprocal, to_text)
from pgl2poly import action, polynomials
from pgl2poly.projective import all_classes


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


def test_eval_example(F2):
    assert Poly.of(F2, 1, 1, 0, 1)(F2.one) == F2.one

def test_pow_mod_matches_plain_power(F3):
    base = Poly.of(F3, 1, 1)
    mod = Poly.of(F3, 1, 0, 1)
    assert pow_mod(base, 7, mod) == divrem(base ** 7, mod)[1]
    # e = 0, 1, the powers of two and everything between, against a
    # running product; the base is unreduced (degree above the modulus)
    big = Poly.of(F3, 2, 1, 0, 1, 2)
    mod = Poly.of(F3, 1, 2, 0, 1)
    acc = Poly.one(F3)
    for e in range(41):
        assert pow_mod(big, e, mod) == acc
        acc = divrem(acc * big, mod)[1]

def test_pow_mod_rejects_negative_exponent(F3):
    with pytest.raises(ValueError):
        pow_mod(Poly.x(F3), -1, Poly.of(F3, 1, 0, 1))


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

@pytest.mark.parametrize("p,s", [(5, 1), (2, 2), (3, 2)])
def test_homogenize_matches_power_lists(p, s):
    ring = make_field(p, s)
    rng = random.Random(11)
    zero = 0

    def rand_poly(max_len):
        return Poly(ring, [rng.randrange(ring.order)
                           for _ in range(rng.randrange(0, max_len + 1))])
    for trial in range(150):
        u, v = rand_poly(3), rand_poly(3)
        if trial % 10 == 0:
            u = Poly.zero(ring)
        elif trial % 10 == 1:
            v = Poly.zero(ring)
        coeffs = [rng.randrange(ring.order)
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
        homogenize((1, 1, 1), x, x, 1)

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_form_matrix_matches_homogenize(p, s):
    # column i is homogenize(x^i, u, v, k) for the linear forms u = a*x + c
    # and v = b*x + d of every class, a constant u (a = 0) and a constant v
    # (b = 0) included; two extra rows check the zero padding
    ring = make_field(p, s)
    forms = [action._linear_forms(cls.rep) for cls in all_classes(ring)]
    assert any(u.degree == 0 for u, _ in forms) and any(v.degree == 0 for _, v in forms)
    for u, v in forms:
        for k in range(9):
            rows = polynomials.form_matrix(u, v, k, k + 3)
            assert len(rows) == k + 3 and all(len(row) == k + 1 for row in rows)
            for i in range(k + 1):
                col = homogenize((0,) * i + (1,), u, v, k)
                assert [row[i] for row in rows] == (
                    polynomials._logs(col) + [-1] * (k + 2 - col.degree))


def test_reciprocal_self_reciprocal_linear(F2):
    f = Poly.of(F2, 1, 1)
    assert reciprocal(f) == f

def test_reciprocal_reverses_coefficients(F3):
    assert reciprocal(Poly.of(F3, 2, 1, 1)) == Poly.of(F3, 1, 1, 2)

def test_reciprocal_involution_off_zero_constant(F5):
    rng = random.Random(7)
    for _ in range(100):
        coeffs = [rng.randrange(1, 5)]
        coeffs += [rng.randrange(5) for _ in range(rng.randrange(5))]
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
            assert f(x) == _ref_eval(f, x)
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
        assert pow_mod(base, e, modulus) == _ref_pow_mod(base, e, modulus)

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
    # polynomials._form, through homogenize and on log lists with a trailing
    # zero (as act passes a*x + c with a = 0), for u and v of every degree
    # -1..3 (zero and constant included), coefficient lists with a zero
    # constant or a zero top term and k = top..top+3; k = 40 keeps the logs
    # unreduced over many Horner steps
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
            coeffs = [0] + coeffs                # zero constant coefficient
        elif trial % 3 == 2:
            coeffs = coeffs + [0]                # zero top coefficient
        top = Poly(ring, coeffs).degree
        for k in [*range(max(top, 0), top + 4), *([40] if long_run else [])]:
            want = _naive_form(coeffs[:top + 1], u, v, k)
            assert homogenize(coeffs, u, v, k) == want
            assert polynomials._form(ring, tuple(coeffs), polynomials._logs(u) + [-1],
                                     polynomials._logs(v) + [-1], k) == want

def test_kernel_field_products_stay_out_of_felt(monkeypatch):
    # pow_mod, act and divrem index the tables directly; the Felt-level
    # schoolbook loops made 16,222 Felt products and sums on this case
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
    pow_mod(Poly.x(F5), 5**12, f)
    act(A, f)
    divrem(dividend, f)
    assert calls[0] <= 4

def test_act_and_pow_mod_build_at_most_three_polys(monkeypatch):
    # homogenize and pow_mod run in the log domain and build their result
    # once; a Poly per intermediate product made hundreds
    F5 = make_field(5, 1)
    rng = random.Random(12)
    f = Poly(F5, [rng.randrange(5) for _ in range(12)] + [3])
    x = Poly.x(F5)
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
    for run in (lambda: act(A, f), lambda: pow_mod(x, 5**12, f)):
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

def test_homogenize_calls_no_product_kernel(monkeypatch):
    # one Horner kernel: the per-step _mul_logs, _add_logs and _from_logs
    # calls (each rebuilding term lists and reducing logs) are gone
    F7 = make_field(7, 1)
    u, v = Poly.of(F7, 3, 2), Poly.of(F7, 1, 5, 6)
    coeffs = tuple(range(1, 7)) * 2 + (4,)
    want = homogenize(coeffs, u, v, 12)
    for name in ("_mul_logs", "_add_logs", "_from_logs"):
        monkeypatch.setattr(polynomials, name, None)
    assert homogenize(coeffs, u, v, 12) == want

# -- polynomials over different fields never mix ----------------------------

MIXED = [((3, 1), (3, 2)), ((2, 1), (2, 2))]

def _mixed_pair(small, big):
    a, b = make_field(*small), make_field(*big)
    return Poly.of(a, 1, 1, 1), Poly.of(b, 1, 1, 1), a, b

BINARY = {"add": lambda f, g: f + g, "sub": lambda f, g: f - g,
          "mul": lambda f, g: f * g, "divrem": divrem, "gcd": gcd,
          "divides": divides, "pow_mod": lambda f, g: pow_mod(f, 5, g),
          "homogenize": lambda f, g: homogenize((1, 1), f, g, 2)}

@pytest.mark.parametrize("small,big", MIXED)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_operations_reject_mixed_fields(small, big, name):
    f, g, a, b = _mixed_pair(small, big)
    for x, y in ((f, g), (g, f), (f, Poly.zero(b)), (Poly.zero(a), g)):
        if name == "pow_mod" and not y:
            continue                      # a zero modulus is refused first
        with pytest.raises(ValueError, match="mixed field specs"):
            BINARY[name](x, y)

@pytest.mark.parametrize("small,big", MIXED)
def test_field_value_arguments_reject_mixed_fields(small, big):
    f, g, a, b = _mixed_pair(small, big)
    with pytest.raises(ValueError, match="mixed field specs"):
        f.scale(b.one)
    with pytest.raises(ValueError, match="mixed field specs"):
        f(b.one)
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
        with pytest.raises(ValueError):
            homogenize((bad,), Poly.x(ring), Poly.one(ring), 1)
    assert Poly(ring, (ring.order - 1, 0, 0)).coeffs == (ring.order - 1,)
