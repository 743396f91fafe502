import random
import tracemalloc

import pytest

from pgl2poly import (IDENTITY, TYPE1, TYPE2, TYPE3, TYPE4, Felt, Mat2,
                      Poly, ProjMat, all_classes, classify, element_of_order,
                      is_square, lucas, make_field, power_closed_form, proj_eq,
                      reduce, reduced_type1, reduced_type2, reduced_type4,
                      sigma_product)
from pgl2poly import projective
from pgl2poly.fields import FieldSpec
from pgl2poly.projective import ContractError, lucas_order


def _rand_matrix(spec, rng):
    while True:
        a, b, c, d = (spec.from_encoding(rng.randrange(spec.order)) for _ in range(4))
        if a * d != b * c:
            return Mat2(a, b, c, d)


def test_singular_matrix_rejected(F3):
    with pytest.raises(ValueError):
        Mat2.from_encodings(F3, (1, 1, 1, 1))

def test_swap_matrix_is_an_involution(F3):
    E = Mat2.from_encodings(F3, (0, 1, 1, 0))
    assert E * E == Mat2.identity(F3)

def test_mat2_hash_reads_only_the_encodings(monkeypatch, F3):
    # equal matrices hash equal, with no Felt or FieldSpec hashing; the spec
    # still separates matrices in the equality test
    F9 = make_field(3, 2)
    A, B = (Mat2.from_encodings(F3, (1, 2, 0, 1)) for _ in range(2))
    C = Mat2.from_encodings(F9, (1, 2, 0, 1))

    def refuse(self):
        raise AssertionError("Mat2.__hash__ must hash only encodings")
    for cls in (Felt, type(F3)):
        monkeypatch.setattr(cls, "__hash__", refuse)
    assert A is not B and A == B and hash(A) == hash(B) == hash(C)
    assert A != C and len({A, B, C}) == 2
    assert hash(ProjMat(A.scale(F3.from_encoding(2)))) == hash(ProjMat(B))

def test_char_poly_of_worked_example(F7):
    A = Mat2.from_encodings(F7, (0, 1, 6, 1))
    chi = Poly(F7, (A.det.n, (-A.trace).n, 1))           # x^2 - tr*x + det
    assert chi == Poly.of(F7, 1, 6, 1)                    # x^2 - x + 1

def test_det_example(F2):
    assert Mat2.from_encodings(F2, (0, 1, 1, 1)).det == F2.one

def test_inverse_and_transpose(F5):
    rng = random.Random(0)
    for _ in range(50):
        A = _rand_matrix(F5, rng)
        assert A * A.inverse() == Mat2.identity(F5)


def test_projective_scaling(F5):
    cls = ProjMat(Mat2.from_encodings(F5, (2, 0, 0, 2)))
    assert cls.rep == Mat2.identity(F5)

def test_proj_eq_up_to_scalar(F5):
    assert proj_eq(Mat2.from_encodings(F5, (2, 4, 0, 2)),
                   Mat2.from_encodings(F5, (1, 2, 0, 1)))

@pytest.mark.parametrize("p,s", [(3, 1), (2, 2), (5, 1)])
def test_proj_eq_matches_the_normal_form(p, s):
    # every pair of (class representative * nonzero scalar) against
    # ProjMat(m1) == ProjMat(m2)
    spec = make_field(p, s)
    mats = [cls.rep.scale(t) for cls in all_classes(spec)
            for t in spec.elements() if t]
    normal = [ProjMat(m) for m in mats]
    wrong = [(m1, m2) for m1, n1 in zip(mats, normal)
             for m2, n2 in zip(mats, normal) if proj_eq(m1, m2) != (n1 == n2)]
    assert wrong == []

def test_proj_eq_refuses_another_zero_pattern(F5):
    # m2 is a class representative with one zero entry filled, scaled: the
    # entries nonzero in both are proportional, the zero patterns differ
    units = [t for t in F5.elements() if t]
    pairs = 0
    for cls in all_classes(F5):
        codes = [x.n for x in cls.rep.entries()]
        for i in (i for i, n in enumerate(codes) if not n):
            for fill in range(1, 5):
                try:
                    filled = Mat2.from_encodings(F5, codes[:i] + [fill] + codes[i + 1:])
                except ValueError:                      # singular
                    continue
                for t in units:
                    m2 = filled.scale(t)
                    assert ProjMat(cls.rep) != ProjMat(m2)
                    assert not proj_eq(cls.rep, m2) and not proj_eq(m2, cls.rep)
                    pairs += 1
    assert pairs > 1000

@pytest.mark.parametrize("pq", [((3, 1), (3, 2)), ((2, 1), (2, 2)), ((5, 1), (3, 1))])
def test_proj_eq_across_fields_is_false(pq):
    F, G = (make_field(p, s) for p, s in pq)
    for codes in ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1)):
        m1, m2 = Mat2.from_encodings(F, codes), Mat2.from_encodings(G, codes)
        assert (ProjMat(m1) == ProjMat(m2)) is False
        assert proj_eq(m1, m2) is False and proj_eq(m2, m1) is False

def test_proj_inverse(F5):
    rng = random.Random(1)
    for _ in range(50):
        cls = ProjMat(_rand_matrix(F5, rng))
        assert (cls.inverse() * cls).is_identity()


@pytest.mark.parametrize("p,entries,order", [
    (3, (0, 1, 1, 0), 2),
    (3, (0, 1, 2, 1), 3),
    (5, (0, 1, 4, 1), 3),
    (7, (0, 1, 6, 1), 3),
    (2, (0, 1, 1, 1), 3),
])
def test_projective_orders(p, entries, order):
    spec = make_field(p, 1)
    assert ProjMat(Mat2.from_encodings(spec, entries)).order() == order


def test_classify_worked_example_three_ways():
    A7 = Mat2.from_encodings(make_field(7, 1), (0, 1, 6, 1))
    info = classify(A7)
    assert info.kind == TYPE1 and info.param.encode() == 2

    A3 = Mat2.from_encodings(make_field(3, 1), (0, 1, 2, 1))
    assert classify(A3).kind == TYPE2

    A5 = Mat2.from_encodings(make_field(5, 1), (0, 1, 4, 1))
    info5 = classify(A5)
    assert info5.kind == TYPE4 and info5.param.encode() == 4

def test_classify_identity(F3):
    assert classify(Mat2.from_encodings(F3, (2, 0, 0, 2))).kind == IDENTITY

def test_classify_type3(F3):
    info = classify(Mat2.from_encodings(F3, (0, 1, 2, 0)))
    assert info.kind == TYPE3 and info.param.encode() == 2


def test_reduce_worked_example_q7():
    spec = make_field(7, 1)
    A = Mat2.from_encodings(spec, (0, 1, 6, 1))
    rf = reduce(A)
    assert rf.reduced == reduced_type1(spec, spec.from_encoding(2))
    assert rf.conjugator == Mat2.from_encodings(spec, (1, 1, 3, 5))

def test_reduce_worked_example_q3():
    spec = make_field(3, 1)
    rf = reduce(Mat2.from_encodings(spec, (0, 1, 2, 1)))
    assert rf.reduced == reduced_type2(spec)

def test_reduce_of_reduced_form_gives_identity_conjugator(F5):
    rf = reduce(reduced_type4(F5, F5.from_encoding(4)))
    assert rf.conjugator == Mat2.identity(F5)

def test_reduce_rejects_identity(F3):
    with pytest.raises(ValueError):
        reduce(Mat2.identity(F3))

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (5, 1)])
def test_reduce_consistency_exhaustive(p, s):
    spec = make_field(p, s)
    for cls in all_classes(spec):
        if cls.is_identity():
            continue
        rf = reduce(cls.rep)
        assert rf.info == classify(cls.rep)
        assert ProjMat(rf.conjugator * rf.reduced * rf.conjugator.inverse()) == cls

@pytest.mark.parametrize("p,s", [(7, 1), (3, 2)])
def test_reduce_consistency_random(p, s):
    spec = make_field(p, s)
    rng = random.Random(17)
    for _ in range(1000):
        A = _rand_matrix(spec, rng)
        if ProjMat(A).is_identity():
            continue
        rf = reduce(A)
        assert rf.info == classify(A)
        assert proj_eq(rf.conjugator * rf.reduced * rf.conjugator.inverse(), A)

def test_reduce_cost_is_logarithmic_in_q(monkeypatch):
    # closed-form roots and conjugator: O(log q) products, where scanning
    # GF(q^2) and the q^2 kernel points took about 1.9 million at q = 401
    spec = make_field(401, 1)
    c = next(c for c in spec.elements()
             if c and not is_square(spec.one + c + c + c + c))
    P = Mat2.from_encodings(spec, (1, 2, 3, 5))
    m = P * reduced_type4(spec, c) * P.inverse()
    calls = [0]
    mul = Felt.__mul__

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)
    monkeypatch.setattr(Felt, "__mul__", counted)
    rf = reduce(m)
    assert rf.info.kind == TYPE4 and rf.conjugator != Mat2.identity(spec)
    assert calls[0] < 2000

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_reduce_solves_one_quadratic(monkeypatch, p, s):
    # the type-4 eigenvalue, the least root of x^2 - x - c, is the least root
    # of m's characteristic polynomial over tr; solving x^2 - x - c again
    # made a second call for every type-4 class
    spec = make_field(p, s)
    roots, calls = projective._quadratic_roots, []
    monkeypatch.setattr(projective, "_quadratic_roots",
                        lambda *args: calls.append(args) or roots(*args))
    for cls in all_classes(spec):
        if cls.is_identity():
            continue
        calls.clear()
        rf = reduce(cls.rep)
        assert len(calls) == 1
        if rf.info.kind == TYPE4:
            assert rf.eigenvalue == roots(-rf.info.param, -spec.one)[0]

def power_loop_order(cls):
    # reference: multiply the representative until the power is scalar
    d, cur = 1, cls.rep
    while not cur.is_scalar():
        cur = cur * cls.rep
        d += 1
    return d

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_order_matches_power_loop(p, s):
    for cls in all_classes(make_field(p, s)):
        assert cls.order() == power_loop_order(cls)

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_lucas_matches_repeated_products(p, s):
    # u_0..u_D and mu against the powers A, A^2, ..., A^(D+1) by products:
    # D is the power-loop order, A^D = mu*I and A^j = u_j*A - det*u_(j-1)*I
    for cls in all_classes(make_field(p, s)):
        if cls.is_identity():
            continue
        A = cls.rep
        u = lucas(A)
        D = len(u) - 2
        assert D == power_loop_order(cls)
        assert lucas_order(A) == (D, u[-1])
        power = A
        for j in range(1, D + 2):
            if j == D:
                assert power == Mat2.identity(A.spec).scale(u[-1])
            t = A.det * u[j - 1]
            assert power.entries() == (u[j] * A.a - t, u[j] * A.b,
                                       u[j] * A.c, u[j] * A.d - t)
            power = power * A

def felt_lucas(m):
    # reference: lucas(m) by the Felt recurrence u_(j+1) = tr*u_j - det*u_(j-1),
    # two products per step, with the walk's two checks
    if m.is_scalar():
        raise ValueError("a scalar matrix has no Lucas sequence")
    spec, tr, det = m.spec, m.trace, m.det
    q = spec.order
    u = [spec.zero, spec.one]
    while u[-1]:
        u.append(tr * u[-1] - det * u[-2])
        if len(u) - 1 > q + 1:
            raise ContractError("projective order exceeded q+1")
    if len(u) - 1 not in ({spec.p} | set(projective.divisors(q - 1))
                          | set(projective.divisors(q + 1))):
        raise ContractError(f"order {len(u) - 1} outside the admissible divisor set")
    return u + [-det * u[-2]]

def assert_walk_matches_felt_lucas(m):
    u = felt_lucas(m)
    D = len(u) - 2
    assert lucas(m) == u
    assert lucas_order(m) == (D, u[-1])
    assert ProjMat(m).order() == D

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_lucas_walk_matches_felt_reference_on_every_class(p, s):
    # each representative and its multiple by the primitive element exp[1]
    spec = make_field(p, s)
    g = spec.from_encoding(spec.exp[1])
    for cls in all_classes(spec):
        if not cls.is_identity():
            assert_walk_matches_felt_lucas(cls.rep)
            assert_walk_matches_felt_lucas(cls.rep.scale(g))

@pytest.mark.parametrize("p,s", [(5, 2), (3, 3), (7, 2), (53, 1), (101, 1)])
def test_lucas_walk_matches_felt_reference_on_hidden_classes(p, s):
    # a hidden conjugate of a class of every admissible order, random
    # matrices, and zero-trace matrices [[a, b], [c, -a]] (order 2)
    spec = make_field(p, s)
    q = spec.order
    rng = random.Random(q)
    admissible = {spec.p} | {d for d in range(2, q + 2)
                             if (q - 1) % d == 0 or (d > 2 and (q + 1) % d == 0)}
    hidden = []
    for D in sorted(admissible):
        P = _rand_matrix(spec, rng)
        hidden.append(P * element_of_order(spec, D).rep * P.inverse())
    hidden += [_rand_matrix(spec, rng) for _ in range(50)]
    zero_trace = 0
    while zero_trace < 20:
        a, b, c = (spec.from_encoding(rng.randrange(q)) for _ in range(3))
        if (b or c) and a * a + b * c:
            hidden.append(Mat2(a, b, c, -a))
            zero_trace += 1
    for m in hidden:
        if not m.is_scalar():
            assert_walk_matches_felt_lucas(m)
    assert {len(felt_lucas(m)) - 2 for m in hidden[:len(admissible)]} == admissible

def test_lucas_walk_refuses_an_inadmissible_order(monkeypatch, F5):
    # with no admissible divisors the order 4 of diag(2, 1) is refused
    monkeypatch.setattr(projective, "divisors", lambda n: [1])
    m = Mat2.from_encodings(F5, (2, 0, 0, 1))
    for walk in (felt_lucas, lucas, lucas_order, lambda m: ProjMat(m).order()):
        with pytest.raises(ContractError, match="outside the admissible divisor set"):
            walk(m)

def test_lucas_walk_refuses_an_order_past_q_plus_one():
    # in a copy of GF(5) whose Zech table never gives 1 + g^k = 0, no sum
    # cancels, so u_j never vanishes and the walk passes q + 1
    spec = FieldSpec(5, 1, (0, 1))
    spec.zech = [max(z, 0) for z in spec.zech]
    m = Mat2.from_encodings(spec, (0, 1, 4, 1))
    for walk in (felt_lucas, lucas, lucas_order, lambda m: ProjMat(m).order()):
        with pytest.raises(ContractError, match="exceeded q"):
            walk(m)

def test_lucas_rejects_scalar_matrices(F2, F5):
    # a*I has u_j = j*a^(j-1), first zero at j = p: no order to read off
    for m in (Mat2.identity(F2), Mat2.identity(F5).scale(F5.from_encoding(3))):
        with pytest.raises(ValueError):
            lucas(m)

def test_order_cost_is_two_products_per_power(monkeypatch):
    # the order steps its two-term recurrence on logs, one Zech addition per
    # power, so its Felt products and sums do not grow with D; a Felt step
    # would make two products and a difference per power
    spec = make_field(401, 1)
    classes = {D: element_of_order(spec, D) for D in (2, 3, 25, 401, 402)}
    calls = [0]
    for name in ("__mul__", "__add__", "__sub__"):
        op = getattr(Felt, name)

        def counted(x, y, op=op):
            calls[0] += 1
            return op(x, y)
        monkeypatch.setattr(Felt, name, counted)
    for D, cls in classes.items():
        calls[0] = 0
        assert cls.order() == D
        assert calls[0] <= 2

def test_order_keeps_two_lucas_terms():
    # order() walks the sequence without the list u_0..u_(D+1): for the
    # order-8192 type-4 class over GF(8191) the list peaked at 455 KiB
    cls = element_of_order(make_field(8191, 1), 8192)
    assert classify(cls.rep).kind == TYPE4
    tracemalloc.start()
    try:
        assert cls.order() == 8192
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024

def test_conjugate_orders_agree(F5):
    rng = random.Random(3)
    for _ in range(100):
        A, P = _rand_matrix(F5, rng), _rand_matrix(F5, rng)
        assert ProjMat(P * A * P.inverse()).order() == ProjMat(A).order()

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (5, 1)])
def test_type_frequencies_cover_group(p, s):
    spec = make_field(p, s)
    kinds = [classify(cls.rep).kind for cls in all_classes(spec)]
    assert kinds.count(IDENTITY) == 1
    assert sum(1 for k in kinds if k in (TYPE1, TYPE2, TYPE3, TYPE4)) == len(kinds) - 1


def test_sigma_identity_pair(F3):
    I = Mat2.identity(F3)
    assert sigma_product(I, I) == I

def test_sigma_det_identity_random(F5):
    rng = random.Random(9)
    for _ in range(100):
        A, B = _rand_matrix(F5, rng), _rand_matrix(F5, rng)
        assert sigma_product(A, B).det == A.det * B.det * B.det


def test_power_closed_form_small_example(F2):
    assert power_closed_form(F2.one, 2) == Mat2.from_encodings(F2, (1, 1, 1, 0))

def test_power_closed_form_first_power_and_order(F2):
    D1 = reduced_type4(F2, F2.one)
    assert power_closed_form(F2.one, 1) == D1
    assert power_closed_form(F2.one, 3).is_scalar()

def test_power_closed_form_rejects_reducible(F3):
    with pytest.raises(ValueError):
        power_closed_form(F3.from_encoding(2), 1)     # x^2 - x - 2 = (x+1)(x+2)


def test_element_of_order_examples():
    F5, F2, F3 = make_field(5, 1), make_field(2, 1), make_field(3, 1)
    a4 = element_of_order(F5, 4)
    assert a4.order() == 4 and classify(a4.rep).kind == TYPE1
    assert classify(a4.rep).param.encode() in (2, 3)
    assert element_of_order(F2, 3) == ProjMat(reduced_type4(F2, F2.one))
    assert element_of_order(F3, 3) == ProjMat(reduced_type2(F3))

def test_element_of_order_rejects_impossible():
    with pytest.raises(ValueError):
        element_of_order(make_field(5, 1), 7)
    with pytest.raises(ValueError):
        element_of_order(make_field(5, 1), 1)

@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_element_of_order_whole_admissible_range(p, s):
    spec = make_field(p, s)
    q = spec.order
    admissible = {spec.p} | {d for d in range(2, q + 2) if (q - 1) % d == 0
                             or (d > 2 and (q + 1) % d == 0)}
    for D in sorted(admissible):
        assert element_of_order(spec, D).order() == D
