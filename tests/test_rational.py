import math
import random

import pytest

from pgl2poly import (TYPE1, TYPE2, TYPE3, TYPE4, ContractError, Mat2, Poly,
                      ProjMat, RationalMap, act, classify, element_of_order,
                      enumerate_monic_irreducibles, frobenius_q,
                      generate_invariants, invariant_set, is_invariant,
                      is_irreducible, is_square, make_field, monicize, q_map,
                      reduce, reduced_type1, reduced_type2, reduced_type3,
                      reduced_type4, substitute_mobius, transform, try_descend)
from pgl2poly import polynomials, rational
from pgl2poly.rational import _type4_reduced_pair
from pgl2poly.verify import _random_matrix, type_representatives
from test_polynomials import _linear_forms


def test_q_map_worked_example_q3(F3):
    A = Mat2.from_encodings(F3, (0, 1, 2, 1))
    Q = q_map(A).map
    assert Q.num == Poly.of(F3, 0, 1, 1)          # x^2 + x
    assert Q.den == Poly.of(F3, 2, 0, 0, 1)       # x^3 - 1
    assert Q.degree == 3

def test_q_map_worked_example_q5(F5):
    A = Mat2.from_encodings(F5, (0, 1, 4, 1))
    Q = q_map(A).map
    assert Q.num == Poly.of(F5, 4, 0, 3, 1)       # x^3 + 3x^2 - 1
    assert Q.den == Poly.of(F5, 0, 3, 3)          # 3x^2 + 3x

def test_q_map_worked_example_q7(F7):
    A = Mat2.from_encodings(F7, (0, 1, 6, 1))
    Q = q_map(A).map
    assert Q.num == Poly.of(F7, 6, 6, 2, 1)       # (x+3)^3
    assert Q.den == Poly.of(F7, 6, 5, 1, 1)       # (x+5)^3

def test_q_map_f2_order3(F2):
    Q = q_map(reduced_type4(F2, F2.one)).map
    assert Q.num == Poly.of(F2, 1, 0, 1, 1)       # x^3 + x^2 + 1
    assert Q.den == Poly.of(F2, 0, 1, 1)          # x^2 + x

def test_q_map_rejects_identity(F3):
    with pytest.raises(ValueError):
        q_map(Mat2.identity(F3))

def test_q_map_reduced_forms_specialize():
    F5 = make_field(5, 1)
    a = F5.from_encoding(2)                       # order 4
    Q1 = q_map(reduced_type1(F5, a)).map
    assert Q1.num == Poly.monomial(F5, F5.one, 4) and Q1.den == Poly.one(F5)

    Q2 = q_map(reduced_type2(F5)).map
    assert Q2.num == Poly.of(F5, 0, 4, 0, 0, 0, 1)     # x^5 - x
    assert Q2.den == Poly.one(F5)

    b = F5.from_encoding(2)
    Q3 = q_map(reduced_type3(F5, b)).map
    assert Q3.num == Poly.of(F5, 2, 0, 1) and Q3.den == Poly.x(F5)

    F3 = make_field(3, 1)
    Q4 = q_map(reduced_type4(F3, F3.one)).map
    assert Q4.num.is_monic and Q4.num.degree == 4 and Q4.den.degree == 3

def _reference_q_map(m):
    # the map built per type from the conjugator's linear forms l1 = a*x + c
    # and l2 = b*x + d, by Poly powers and products, then scaled as q_map
    # scales it
    D = ProjMat(m).order()
    rf = reduce(m)
    l1, l2 = _linear_forms(rf.conjugator)
    kind = rf.info.kind
    if kind == TYPE1:
        num, den = l1**D, l2**D
    elif kind == TYPE2:
        p = m.spec.p
        num, den = l1**p - l1 * l2 ** (p - 1), l2**p
    elif kind == TYPE3:
        num, den = l1 * l1 + (l2 * l2).scale(rf.info.param), l1 * l2
    else:
        g, h = _type4_reduced_pair(rf, D)
        num, den = act(rf.conjugator, g), l2 * act(rf.conjugator, h)
    anchor = den if den.degree == D else num
    inv = anchor.lc().inverse()
    return RationalMap(num.scale(inv), den.scale(inv), D), rf

Q_MAP_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2),
                (3, 3), (31, 1), (7, 2), (53, 1), (101, 1)]

@pytest.mark.parametrize("p,s", Q_MAP_FIELDS)
def test_q_map_matches_the_per_type_construction(p, s):
    # every type representative and two seeded hidden conjugates of each:
    # one Moebius change of the reduced map gives the map, degree and source
    # of the construction from the conjugator's linear forms
    spec = make_field(p, s)
    rng = random.Random(41)
    kinds = set()
    for _, R in type_representatives(spec):
        for P in (Mat2.identity(spec), _random_matrix(spec, rng),
                  _random_matrix(spec, rng)):
            M = P * R * P.inverse()
            Q, rf = q_map(M)
            want, want_rf = _reference_q_map(M)
            assert (Q.num, Q.den, Q.degree) == (want.num, want.den, want.degree), M
            assert rf == want_rf
            kinds.add(rf.info.kind)
    assert kinds == ({TYPE2, TYPE4} | ({TYPE1} if spec.order > 2 else set())
                     | ({TYPE3} if p != 2 else set()))

def test_q_map_is_deterministic(F5):
    A = Mat2.from_encodings(F5, (1, 2, 3, 2))
    assert q_map(A).map == q_map(A).map


def test_substitute_translation(F3):
    Q = RationalMap(Poly.x(F3), Poly.one(F3), 1)
    out = substitute_mobius(Q, Mat2.from_encodings(F3, (1, 0, 1, 1)))
    assert out.num == Poly.of(F3, 1, 1) and out.den == Poly.one(F3)

def test_substitute_power_map_fixed_by_scaling(F5):
    a = F5.from_encoding(2)
    Q = RationalMap(Poly.monomial(F5, F5.one, 4), Poly.one(F5), 4)
    assert substitute_mobius(Q, reduced_type1(F5, a)) == Q

@pytest.mark.parametrize("num,den", [((0, 0, 1), (1,)), ((1,), (0, 0, 1))])
def test_substitute_rejects_a_degree_below_num_or_den(F5, num, den):
    # a map of stated degree 1 whose num (or den) is x^2: no form of degree 1
    Q = RationalMap(Poly.of(F5, *num), Poly.of(F5, *den), 1)
    with pytest.raises(ValueError, match="below"):
        substitute_mobius(Q, reduced_type2(F5))

def test_fixed_point_identity_for_random_classes(F5):
    rng = random.Random(13)
    for _ in range(40):
        while True:
            entries = [rng.randrange(5) for _ in range(4)]
            try:
                A = Mat2.from_encodings(F5, entries)
            except ValueError:
                continue
            if not ProjMat(A).is_identity():
                break
        Q = q_map(A).map
        assert substitute_mobius(Q, A).normalized() == Q.normalized()


def test_q_map_checks_lowest_terms_with_one_gcd(monkeypatch, F5):
    # one gcd checks that num and den are coprime; the fixed point is one
    # cross-multiplication and takes no normal form
    calls = []
    for name in ("gcd", "divrem"):
        monkeypatch.setattr(rational, name, lambda *args, _name=name,
                            _f=getattr(rational, name): calls.append(_name) or _f(*args))
    for rep in (reduced_type1(F5, F5.from_encoding(2)), reduced_type2(F5),
                reduced_type3(F5, F5.from_encoding(2)),
                reduced_type4(F5, F5.from_encoding(4))):
        calls.clear()
        Q = q_map(rep).map
        assert calls.count("gcd") == 1 and calls.count("divrem") == 0
        assert substitute_mobius(Q, rep).normalized() == Q.normalized()


def test_transform_examples(F2):
    Q = q_map(reduced_type4(F2, F2.one)).map
    assert transform(Poly.x(F2), Q) == Poly.of(F2, 1, 0, 1, 1)
    assert transform(Poly.of(F2, 1, 1), Q) == Poly.of(F2, 1, 1, 0, 1)

def test_transform_by_square_is_composition(F2):
    Q = RationalMap(Poly.monomial(F2, F2.one, 2), Poly.one(F2), 2)
    out = transform(Poly.of(F2, 1, 1, 1), Q)
    assert out == Poly.of(F2, 1, 0, 1, 0, 1)      # (x^2+x+1)(x^2) composed
    assert out == Poly.of(F2, 1, 1, 1) * Poly.of(F2, 1, 1, 1)

def test_transform_rejects_zero(F2):
    Q = q_map(reduced_type4(F2, F2.one)).map
    with pytest.raises(ValueError):
        transform(Poly.zero(F2), Q)


def test_generate_invariants_f2_cubics(F2):
    D1 = reduced_type4(F2, F2.one)
    assert generate_invariants(D1, 1) == [Poly.of(F2, 1, 1, 0, 1),
                                          Poly.of(F2, 1, 0, 1, 1)]
    assert generate_invariants(D1, 2) == []

def test_generate_invariants_f3_type3_quartics(F3):
    C2 = reduced_type3(F3, F3.from_encoding(2))
    got = generate_invariants(C2, 2)
    want = sorted(invariant_set(ProjMat(C2), 4), key=lambda f: f.encode())
    assert got == want and len(got) == 2

def test_generate_invariants_rejects_small_degree(F2):
    with pytest.raises(ValueError):
        generate_invariants(reduced_type2(F2), 1)      # D*m = 2


# -- the four criteria against the generator they replace -------------------

def _reference_generate(m, mdeg):
    # the generator before the criteria: transform every monic irreducible F
    # of degree mdeg and keep the monic transforms of degree D*mdeg that pass
    # Ben-Or; returns them sorted, and whether each F was kept
    Q = q_map(m).map
    D = Q.degree
    found, kept = set(), {}
    for F in enumerate_monic_irreducibles(m.spec, mdeg):
        t = monicize(transform(F, Q))[1]
        kept[F] = t.degree == D * mdeg and is_irreducible(t)
        if kept[F]:
            found.add(t)
    return sorted(found, key=Poly.encode), kept

def _reduced_forms(spec):
    # every reduced matrix: diag(a, 1), the unipotent, [[0,1],[b,0]] for a
    # non-square b and [[0,1],[c,1]] for x^2 - x - c irreducible
    out = [reduced_type1(spec, a) for a in spec.elements() if a and a != spec.one]
    out.append(reduced_type2(spec))
    for kind, build in ((TYPE3, reduced_type3), (TYPE4, reduced_type4)):
        out += [build(spec, x) for x in spec.elements()
                if x and classify(build(spec, x)).kind == kind]
    return out

# the bench's generation limits on D*m, with GF(8) and GF(11) added and GF(5)
# raised to 8 so that type 1 with 4 | D meets an even m
GRID_MAX_DEGREE = {(2, 1): 12, (3, 1): 9, (2, 2): 6, (5, 1): 8, (7, 1): 5,
                   (2, 3): 6, (3, 2): 5, (11, 1): 4}

def test_criteria_match_the_reference_generator():
    # every reduced form and one seeded hidden conjugate of each, over
    # GF(2, 3, 4, 5, 7, 8, 9, 11), each m with D*m > 2 up to the limit (and
    # m = 1 when D alone passes it)
    rng = random.Random(19)
    outcomes, shapes, lost = set(), set(), 0
    for (p, s), n_max in GRID_MAX_DEGREE.items():
        spec = make_field(p, s)
        for R in _reduced_forms(spec):
            P = _random_matrix(spec, rng)
            for M in (R, P * R * P.inverse()):
                Q, rf = q_map(M)
                D, kind = Q.degree, rf.info.kind
                for m in range(1, max(n_max // D, 1) + 1):
                    if D * m <= 2:
                        continue
                    want, kept = _reference_generate(M, m)
                    assert generate_invariants(M, m) == want, (M, m)
                    passes = rational._criterion(rf, D, m)
                    for F, ok in kept.items():
                        assert bool(passes(F)) == ok, (M, m, F)
                        outcomes.add((kind, s > 1, ok))
                    shapes.add((kind, D % 4 == 0, m % 2))
                    lost += m == 1 and any(transform(F, Q).degree < D for F in kept)
    for kind in (TYPE1, TYPE2, TYPE3, TYPE4):            # both outcomes of each
        assert {(kind, False, True), (kind, False, False)} <= outcomes
    assert {(TYPE2, True, True), (TYPE2, True, False)} <= outcomes   # trace to GF(p)
    assert {(TYPE3, True, True), (TYPE3, True, False)} <= outcomes   # over GF(9)
    assert {(kind, True, parity) for kind in (TYPE1, TYPE4)
            for parity in (0, 1)} <= shapes                 # 4 | D, both parities
    assert lost                                           # m = 1 degree drops


@pytest.mark.parametrize("p,s", [(3, 2), (5, 2), (3, 3)])
def test_type3_criterion_matches_the_reference_over_extensions(p, s):
    # the square test of y^2 - 4b per F, on the first three non-square b and
    # a seeded conjugate of each, at D*m = 4 (GF(9) is in the grid above too)
    spec = make_field(p, s)
    rng = random.Random(27)
    bs = [x for x in spec.elements() if x and not is_square(x)][:3]
    outcomes = set()
    for b in bs:
        R = reduced_type3(spec, b)
        P = _random_matrix(spec, rng)
        for M in (R, P * R * P.inverse()):
            Q, rf = q_map(M)
            want, kept = _reference_generate(M, 2)
            assert generate_invariants(M, 2) == want, M
            passes = rational._criterion(rf, 2, 2)
            for F, ok in kept.items():
                assert bool(passes(F)) == ok, (M, F)
                outcomes.add(ok)
    assert outcomes == {True, False}


PIN_CASES = [((5, 1), (2, 0, 0, 1), 3), ((7, 1), (0, 1, 4, 1), 2),
             ((3, 2), (1, 0, 1, 1), 3), ((5, 1), (4, 2, 1, 1), 3),
             ((3, 2), (6, 6, 2, 3), 2)]

@pytest.mark.parametrize("field,entries,mdeg", PIN_CASES)
def test_generation_transforms_only_the_invariants(monkeypatch, field, entries, mdeg):
    # no Ben-Or at all, and one transform per output
    M = Mat2.from_encodings(make_field(*field), entries)
    enumerate_monic_irreducibles(M.spec, mdeg)    # cached first: its Ben-Or is not generation's
    calls = []
    for module in (polynomials, rational):
        monkeypatch.setattr(module, "is_irreducible",
                            lambda f: calls.append("is_irreducible") or True,
                            raising=False)
    monkeypatch.setattr(rational, "transform", lambda F, Q, _f=transform:
                        calls.append("transform") or _f(F, Q))
    got = generate_invariants(M, mdeg)
    assert got and calls.count("is_irreducible") == 0
    assert calls.count("transform") == len(got)

def test_a_transform_that_loses_degree_is_a_contract_error(monkeypatch, F5):
    # with every F let through: the transform of x by the map of a hidden
    # type-2 conjugate has degree 4, not D = 5
    M = Mat2.from_encodings(F5, (2, 1, 1, 1))
    assert transform(Poly.x(F5), q_map(M).map).degree == 4
    monkeypatch.setattr(rational, "_criterion", lambda rf, D, mdeg: lambda F: True)
    with pytest.raises(ContractError, match="lost degree"):
        generate_invariants(M, 1)


@pytest.mark.parametrize("p,c_enc,ms", [(2, 1, (1, 2)), (5, 4, (1, 2))])
def test_type4_scalar_law_on_generated_invariants(p, c_enc, ms):
    # (x+1)^(D*m) f(c/(x+1)) = theta^(D*m) f(x) for every generated invariant
    spec = make_field(p, 1)
    c = spec.from_encoding(c_enc)
    A = reduced_type4(spec, c)
    theta = q_map(A).source.eigenvalue
    D = ProjMat(A).order()
    for m in ms:
        lam = try_descend(theta ** (D * m))
        assert lam is not None
        for f in generate_invariants(A, m):
            assert act(A, f) == f.scale(lam)

def test_generated_invariants_verify_directly(F3):
    A = Mat2.from_encodings(F3, (0, 1, 2, 1))
    cls = ProjMat(A)
    for f in generate_invariants(A, 2):
        assert is_invariant(cls, f)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_fixed_point_suite_across_fields(p, s):
    from pgl2poly.verify import suite_qmap_fixed_point
    rows = suite_qmap_fixed_point(make_field(p, s), seed=29)
    assert rows and all(r.passed for r in rows)


# -- the type-4 pair from its closed form against the GF(q^2) expansion -----

def _ext_poly_mul(a, b):
    out = [a[0].ext.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out

def _reference_type4_pair(rf, D):
    # (x+t)^D and (x+T)^D by repeated products of coefficient lists, then
    # g = (T(x+T)^D - t(x+t)^D)/(T-t), h = ((x+T)^D - (x+t)^D)/(T-t)
    t = rf.eigenvalue
    T = frobenius_q(t)
    one = t.ext.one
    pt, pT = [one], [one]
    for _ in range(D):
        pt, pT = _ext_poly_mul(pt, [t, one]), _ext_poly_mul(pT, [T, one])
    dinv = (T - t).inverse()
    g = [(T * y - t * x) * dinv for x, y in zip(pt, pT)]
    h = [(y - x) * dinv for x, y in zip(pt, pT)]
    spec = rf.reduced.spec
    return tuple(Poly(spec, [try_descend(c).n for c in f]) for f in (g, h))

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 49])
def test_type4_pair_matches_extension_expansion(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    s = round(math.log(q, p))
    spec = make_field(p, s)
    checked = 0
    for c in spec.elements():
        if not c or classify(reduced_type4(spec, c)).kind != TYPE4:
            continue
        m = reduced_type4(spec, c)
        D = ProjMat(m).order()
        if D > 26:
            continue
        rf = reduce(m)
        assert _type4_reduced_pair(rf, D) == _reference_type4_pair(rf, D)
        checked += 1
    assert checked

def test_type4_pair_rejects_a_wrong_order(F5):
    # s(D) must be the first zero of the sequence after s(0)
    rf = reduce(element_of_order(F5, 6).rep)
    assert rf.info.kind == TYPE4 and _type4_reduced_pair(rf, 6)
    with pytest.raises(ContractError, match="must vanish"):
        _type4_reduced_pair(rf, 7)
