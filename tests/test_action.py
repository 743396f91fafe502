import random
import time
from itertools import product
from math import gcd

import pytest

from pgl2poly import (F_poly, Mat2, Poly, ProjMat, act, all_classes,
                      common_invariants, criterion_invariant, divides,
                      enumerate_monic_irreducibles, invariant_set, is_cyclic,
                      is_invariant, make_field, proj_act, reduced_type2,
                      reduced_type3, reduced_type4, subgroup_closure)
from pgl2poly import action, polynomials, verify
from pgl2poly.rational import RationalMap, substitute_mobius
from pgl2poly.verify import type_representatives
from test_counting import _count_walk_steps
from test_polynomials import _linear_forms, _naive_form


def _rand_matrix(spec, rng):
    while True:
        a, b, c, d = (spec.from_encoding(rng.randrange(spec.order)) for _ in range(4))
        if a * d != b * c:
            return Mat2(a, b, c, d)


def test_act_by_swap_is_reciprocal(F3):
    E = Mat2.from_encodings(F3, (0, 1, 1, 0))
    f = Poly.of(F3, 2, 1, 1)
    assert act(E, f) == Poly(F3, f.coeffs[::-1]) == Poly.of(F3, 1, 1, 2)

def test_act_by_identity(F5):
    f = Poly.of(F5, 3, 1, 1)
    assert act(Mat2.identity(F5), f) == f

def test_act_translation_char2(F2):
    T = Mat2.from_encodings(F2, (1, 0, 1, 1))
    f = Poly.of(F2, 1, 1, 1)
    assert act(T, f) == f                 # (x+1)^2 + (x+1) + 1 = x^2 + x + 1

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_act_matches_linear_forms_reference(p, s):
    # act on logs read off the matrix against power lists of the linear forms
    # a*x + c and b*x + d, for every invertible matrix (b = 0 and a = 0
    # included) and random f of degree 0..6; substitute_mobius on the same
    # columns, with the map degree one above f's
    spec = make_field(p, s)
    rng = random.Random(p * 10 + s)
    q = spec.order
    mats = [Mat2(a, b, c, d) for a, b, c, d in product(spec.elements(), repeat=4)
            if a * d != b * c]
    assert len(mats) == (q * q - 1) * (q * q - q)
    assert any(not m.a for m in mats) and any(not m.b for m in mats)
    for m in mats:
        u, v = _linear_forms(m)
        for deg in range(7):
            f = Poly(spec, [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)])
            assert act(m, f) == _naive_form(f.coeffs, u, v, deg)
        g = Poly(spec, [rng.randrange(q) for _ in range(4)])
        assert substitute_mobius(RationalMap(f, g, 7), m) == (
            _naive_form(f.coeffs, u, v, 7), _naive_form(g.coeffs, u, v, 7), 7)

def test_act_rejects_zero(F2):
    with pytest.raises(ValueError):
        act(Mat2.identity(F2), Poly.zero(F2))


def test_proj_act_monic_reciprocal(F3):
    E = ProjMat(Mat2.from_encodings(F3, (0, 1, 1, 0)))
    assert proj_act(E, Poly.of(F3, 2, 1, 1)) == Poly.of(F3, 2, 2, 1)

def test_proj_act_identity_class(F3):
    I = ProjMat(Mat2.identity(F3))
    for f in enumerate_monic_irreducibles(F3, 3):
        assert proj_act(I, f) == f

def test_proj_act_action_law_random(F5):
    rng = random.Random(23)
    cubics = enumerate_monic_irreducibles(F5, 3)
    for _ in range(200):
        A = ProjMat(_rand_matrix(F5, rng))
        B = ProjMat(_rand_matrix(F5, rng))
        f = rng.choice(cubics)
        assert proj_act(A, proj_act(B, f)) == proj_act(A * B, f)

def test_proj_act_rejects_bad_inputs(F2):
    cls = ProjMat(Mat2.identity(F2))
    with pytest.raises(ValueError):
        proj_act(cls, Poly.of(F2, 1, 1))            # degree 1
    with pytest.raises(ValueError):
        proj_act(cls, Poly.of(F2, 1, 0, 1))         # reducible


def test_whole_group_fixes_the_f2_quadratic(F2):
    f = Poly.of(F2, 1, 1, 1)
    for cls in subgroup_closure([ProjMat(reduced_type2(F2)),
                                 ProjMat(reduced_type4(F2, F2.one))]):
        assert is_invariant(cls, f)

def test_d1_fixes_both_cubics(F2):
    cls = ProjMat(reduced_type4(F2, F2.one))
    assert is_invariant(cls, Poly.of(F2, 1, 1, 0, 1))
    assert is_invariant(cls, Poly.of(F2, 1, 0, 1, 1))


def test_f_poly_of_d1(F2):
    D1 = reduced_type4(F2, F2.one)
    assert F_poly(D1, 1) == Poly.of(F2, 1, 1, 0, 1)
    assert F_poly(D1 ** 2, 1) == Poly.of(F2, 1, 0, 1, 1)

def test_f_poly_identity_r0_vanishes(F3):
    assert not F_poly(Mat2.identity(F3), 0)

def test_f_poly_degree(F5):
    A = reduced_type4(F5, F5.from_encoding(4))
    assert F_poly(A, 2).degree == 5 ** 2 + 1


def test_f_poly_stops_at_the_field_table_bound(F2):
    # q^r may reach MAX_ORDER = 2^20 and no further; past it F_poly refuses
    # before the dense monomial is built, and a huge r before q^r is taken
    A = reduced_type4(F2, F2.one)
    assert F_poly(A, 20).degree == 2**20 + 1
    for r in (21, 10**12):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"too large: it needs q\^r <= 2\^20"):
            F_poly(A, r)
        assert time.perf_counter() - start < 1


def test_criterion_on_d1_cubics(F2):
    D1 = reduced_type4(F2, F2.one)
    assert criterion_invariant(D1, Poly.of(F2, 1, 1, 0, 1))
    assert criterion_invariant(D1, Poly.of(F2, 1, 0, 1, 1))

def test_criterion_rejects_off_multiple_degrees(F2):
    D1 = reduced_type4(F2, F2.one)
    for f in enumerate_monic_irreducibles(F2, 4):
        assert not criterion_invariant(D1, f)
        assert not is_invariant(ProjMat(D1), f)

def test_criterion_equals_direct_for_identity(F3):
    I = Mat2.identity(F3)
    for f in enumerate_monic_irreducibles(F3, 4):
        assert criterion_invariant(I, f)

def test_criterion_agreement_sampled(F5):
    rng = random.Random(31)
    for n, samples in ((2, 60), (3, 60), (4, 60), (5, 25), (6, 25)):
        pool = enumerate_monic_irreducibles(F5, n)
        for _ in range(samples):
            A = _rand_matrix(F5, rng)
            f = rng.choice(pool)
            assert criterion_invariant(A, f) == is_invariant(ProjMat(A), f)

def _criterion_by_division(m, f):
    # the rule criterion_invariant replaced: build each F and divide
    n = f.degree
    cls = ProjMat(m)
    D = cls.order()
    if n == 2:
        return is_invariant(cls, f)
    if n % D:
        return False
    mm = n // D
    return any(divides(f, F_poly(m, ell * mm))
               for ell in range(1, D) if gcd(ell, D) == 1)

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2)])
def test_criterion_matches_division_into_F(p, s):
    spec = make_field(p, s)
    for _, rep in type_representatives(spec):
        for n in range(2, 7):
            for f in enumerate_monic_irreducibles(spec, n):
                assert criterion_invariant(rep, f) == _criterion_by_division(rep, f)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1)])
def test_criterion_takes_one_power_per_exponent(monkeypatch, p, s):
    # y steps from x^(q^((l-1)m)) to x^(q^(lm)) mod f by m q-th powers of
    # the Frobenius walk, so a class of order D makes at most (D - 1)*m,
    # with m = 2 on these degree-2D inputs, and at least m.  Over GF(2) and
    # GF(3) each step is the spread step, with no product
    spec = make_field(p, s)
    steps = _count_walk_steps(monkeypatch)
    for _, rep in type_representatives(spec):
        D = ProjMat(rep).order()
        for f in enumerate_monic_irreducibles(spec, 2 * D)[:60]:
            want = is_invariant(ProjMat(rep), f)      # warms is_irreducible(f)
            steps.clear()
            assert criterion_invariant(rep, f) == want
            assert steps == ["spread"] * len(steps)
            assert 2 <= len(steps) <= (D - 1) * 2


@pytest.mark.parametrize("entries,D", [((2, 0, 0, 1), 4), ((0, 1, 3, 1), 6)])
def test_criterion_divides_only_at_exponents_prime_to_the_order(monkeypatch, F5,
                                                                entries, D):
    # a class of order D tests f of degree D*m at l*m for the phi(D) values
    # l in [1, D-1] prime to D, and at no other l: a non-invariant f at all
    # of them, an invariant f at most at all of them.  diag(2, 1) is type 1
    # and [[0,1],[3,1]] type 4 over GF(5)
    rep = Mat2.from_encodings(F5, entries)
    assert ProjMat(rep).order() == D
    phi = sum(gcd(ell, D) == 1 for ell in range(1, D))
    calls = []
    monkeypatch.setattr(action, "_criterion_at", lambda m, y, _f=action._criterion_at:
                        calls.append(y) or _f(m, y))
    fixed, seen = invariant_set(ProjMat(rep), D), set()
    for f in enumerate_monic_irreducibles(F5, D):
        invariant = f in fixed
        calls.clear()
        assert criterion_invariant(rep, f) == invariant
        assert 1 <= len(calls) <= phi if invariant else len(calls) == phi
        seen.add(invariant)
    assert seen == {True, False}


def test_criterion_takes_pow_logs_steps_over_large_p(monkeypatch):
    # over GF(101) a dense f of degree 4 keeps the square-and-multiply step:
    # the spread step's remainder of a degree-303 spread costs more.  The
    # class x -> -x has order 2, so the walk makes m = 2 steps
    spec = make_field(101, 1)
    rep = Mat2.from_encodings(spec, (100, 0, 0, 1))
    rng = random.Random(101)
    cases = [Poly(spec, [rng.randrange(101) for _ in range(4)] + [1])
             for _ in range(40)]
    cases += [Poly(spec, (c, 0, b, 0, 1)) for b in range(3) for c in range(1, 30)]
    cases = [f for f in cases if polynomials.is_irreducible(f)]
    assert any(is_invariant(ProjMat(rep), f) for f in cases)
    assert not all(is_invariant(ProjMat(rep), f) for f in cases)
    steps = _count_walk_steps(monkeypatch)
    for f in cases:
        want = is_invariant(ProjMat(rep), f)
        steps.clear()
        assert criterion_invariant(rep, f) == want
        assert steps == [101, 101]


@pytest.mark.parametrize("p, s, top", [(2, 1, 6), (3, 1, 5), (2, 2, 4),
                                        (5, 1, 4), (7, 1, 3)])
def test_invariant_set_matches_direct_definition(p, s, top):
    # the eigenspace search against the direct definition, for every class
    # (the identity included) and degree: 1,338 (class, degree) pairs in all
    spec = make_field(p, s)
    for cls in all_classes(spec):
        for n in range(2, top + 1):
            want = tuple(f for f in enumerate_monic_irreducibles(spec, n)
                         if is_invariant(cls, f))
            assert invariant_set(cls, n) == want, (cls.rep, n)


@pytest.mark.parametrize("p, s, top", [(2, 1, 6), (3, 1, 5), (2, 2, 4),
                                        (5, 1, 4)])
def test_common_invariants_match_the_group_filter(p, s, top):
    # joint eigenspaces against is_invariant of each class on every
    # irreducible, for random lists of 0-3 classes drawn with the identity
    # among them
    spec = make_field(p, s)
    rng = random.Random(p * 10 + s)
    classes = all_classes(spec)
    identity = ProjMat(Mat2.identity(spec))
    for n in range(2, top + 1):
        pool = enumerate_monic_irreducibles(spec, n)
        for _ in range(40):
            gens = [rng.choice(classes) for _ in range(rng.randrange(3))]
            gens.insert(rng.randrange(len(gens) + 1), identity)
            gens = gens[:rng.randrange(4)]
            want = tuple(f for f in pool if all(is_invariant(g, f) for g in gens))
            assert common_invariants(spec, gens, n) == want, (gens, n)


def test_common_invariants_never_enumerate_for_a_moving_class(monkeypatch, F3):
    # a list with a non-identity class is solved in its eigenspaces; the
    # scan enumerated all 116 sextics over GF(3) for each class
    calls = []
    monkeypatch.setattr(action, "enumerate_monic_irreducibles",
                        lambda *args: calls.append(args))
    ident = ProjMat(Mat2.identity(F3))
    for _, rep in type_representatives(F3):
        for n in (2, 3, 4, 6):
            action.invariant_set.cache_clear()
            action.invariant_set(ProjMat(rep), n)
            common_invariants(F3, [ident, ProjMat(rep)], n)
    assert calls == []


def test_common_invariants_multiply_no_matrices(monkeypatch, F3):
    # D and mu come from the order's own sequence; A^D by square-and-multiply
    # made Mat2 products for every class
    calls = []
    mul = Mat2.__mul__
    monkeypatch.setattr(Mat2, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for _, rep in type_representatives(F3):
        common_invariants(F3, [ProjMat(rep)], 4)
    assert calls == []


@pytest.mark.parametrize("suite, p, s", [(verify.suite_noncyclic, 5, 1),
                                         (verify.suite_pgroup, 3, 2)])
def test_group_suites_do_not_generate_invariants(monkeypatch, suite, p, s):
    # the joint invariants come from the action alone, not from the
    # transforms whose completeness the generation suite tests
    calls = []
    monkeypatch.setattr(verify, "generate_invariants",
                        lambda *args: calls.append(args) or [])
    rows = suite(make_field(p, s), seed=12345)
    assert rows and all(r.passed for r in rows)
    assert calls == []


def test_invariant_set_builds_the_action_once_per_scan(monkeypatch, F3):
    # one search builds the action matrix once, from the power lists of its
    # two linear forms: 2n powers and n + 1 column products, at most 3n + 1
    # log products (a Horner form per column made 91 for n = 6), and it never
    # acts on a candidate; acting on each of the 116 sextics made 116+ calls
    n = 6
    assert len(enumerate_monic_irreducibles(F3, n)) == 116
    muls, builds, calls = [], [], []
    mul = polynomials._mul_logs
    monkeypatch.setattr(polynomials, "_mul_logs",
                        lambda *args: muls.append(1) or mul(*args))

    def counted_build(*args, _build=action.form_matrix):
        start = len(muls)
        rows = _build(*args)
        builds.append(len(muls) - start)
        return rows
    monkeypatch.setattr(action, "form_matrix", counted_build)
    for name in ("act", "is_invariant"):
        monkeypatch.setattr(action, name, lambda *args, _name=name,
                            _f=getattr(action, name): calls.append(_name) or _f(*args))
    for _, rep in [("identity", Mat2.identity(F3))] + type_representatives(F3):
        action.invariant_set.cache_clear()
        builds.clear()
        calls.clear()
        action.invariant_set(ProjMat(rep), n)
        assert len(builds) <= 1 and all(b <= 3 * n + 1 for b in builds)
        assert not calls


def test_closure_of_swap(F3):
    E = ProjMat(Mat2.from_encodings(F3, (0, 1, 1, 0)))
    group = subgroup_closure([E])
    assert len(group) == 2 and is_cyclic(group)

def test_closure_klein_four(F3):
    g1 = ProjMat(Mat2.from_encodings(F3, (2, 0, 0, 1)))     # diag(-1, 1)
    g2 = ProjMat(reduced_type3(F3, F3.from_encoding(2)))
    group = subgroup_closure([g1, g2])
    assert len(group) == 4 and not is_cyclic(group)

def test_is_cyclic_tries_members_in_ascending_encoding(monkeypatch, F3):
    # the order() calls made follow the encodings, not the set's hash order
    seen = []
    monkeypatch.setattr(ProjMat, "order", lambda g, _order=ProjMat.order:
                        seen.append(g.encode()) or _order(g))
    cyclic = subgroup_closure([ProjMat(reduced_type4(F3, F3.one))])
    klein = subgroup_closure([ProjMat(Mat2.from_encodings(F3, (2, 0, 0, 1))),
                              ProjMat(reduced_type3(F3, F3.from_encoding(2)))])
    for group, answer in ((cyclic, True), (klein, False)):
        seen.clear()
        assert is_cyclic(group) == answer
        codes = sorted(g.encode() for g in group)
        assert seen == codes[:len(seen)] and (answer or seen == codes)

def test_closure_full_group_f2(F2):
    gens = [ProjMat(reduced_type2(F2)), ProjMat(reduced_type4(F2, F2.one))]
    assert len(subgroup_closure(gens)) == 2 ** 3 - 2


def test_quadratic_invariants_full_group_f2(F2):
    gens = [ProjMat(reduced_type2(F2)), ProjMat(reduced_type4(F2, F2.one))]
    assert common_invariants(F2, gens, 2) == (Poly.of(F2, 1, 1, 1),)

def test_quadratic_invariants_translation_f3_empty(F3):
    # oracle: scan all monic irreducible quadratics for f(x+1) = f(x)
    T = reduced_type2(F3)
    oracle = [f for f in enumerate_monic_irreducibles(F3, 2)
              if act(T, f) == f]
    assert oracle == []
    assert common_invariants(F3, [ProjMat(T)], 2) == ()

def test_quadratic_invariants_no_generators(F3):
    assert common_invariants(F3, [], 2) == enumerate_monic_irreducibles(F3, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_conjugation_correspondence_suite(p):
    from pgl2poly.verify import suite_conjugation
    rows = suite_conjugation(make_field(p, 1), seed=19)
    assert rows and all(r.passed for r in rows)


def test_act_multiplicativity(F3):
    rng = random.Random(41)
    for _ in range(200):
        A = _rand_matrix(F3, rng)
        f = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        g = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        if f and g:
            assert act(A, f * g) == act(A, f) * act(A, g)
