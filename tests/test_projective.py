import random
import tracemalloc

import pytest

from pgl2poly import (IDENTITY, TYPE1, TYPE2, TYPE3, TYPE4, Felt, Mat2,
                      Poly, ProjMat, all_classes, classify, element_of_order,
                      is_square, lucas, make_field, power_closed_form, proj_eq,
                      reduce, reduced_type1, reduced_type2, reduced_type3,
                      reduced_type4, sigma_product, smallest_nonsquare)
from pgl2poly.projective import lucas_order


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
        assert A.transpose().transpose() == A


def test_projective_scaling(F5):
    cls = ProjMat(Mat2.from_encodings(F5, (2, 0, 0, 2)))
    assert cls.rep == Mat2.identity(F5)

def test_proj_eq_up_to_scalar(F5):
    assert proj_eq(Mat2.from_encodings(F5, (2, 4, 0, 2)),
                   Mat2.from_encodings(F5, (1, 2, 0, 1)))

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

def test_lucas_rejects_scalar_matrices(F2, F5):
    # a*I has u_j = j*a^(j-1), first zero at j = p: no order to read off
    for m in (Mat2.identity(F2), Mat2.identity(F5).scale(F5.from_encoding(3))):
        with pytest.raises(ValueError):
            lucas(m)

def test_order_cost_is_two_products_per_power(monkeypatch):
    # the order steps a two-term recurrence: two field products per power
    spec = make_field(401, 1)
    cls = element_of_order(spec, 402)
    calls = [0]
    mul = Felt.__mul__

    def counted(x, y):
        calls[0] += 1
        return mul(x, y)
    monkeypatch.setattr(Felt, "__mul__", counted)
    assert cls.order() == 402
    assert calls[0] <= 2 * (spec.order + 1)

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
