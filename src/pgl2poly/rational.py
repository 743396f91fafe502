"""Degree-D rational maps whose transforms generate every invariant.

For a non-identity class of order D there is a rational function Q = num/den
of degree D, fixed by the Moebius substitution of the class, such that the
invariants of degree D*m are exactly the monic rescalings of
den^m * F(num/den) with F of degree m, transform: the binary form of F in
num and den, polynomials._form.  F, num, den and the matrix substitute_mobius
hands to polynomials._mobius_form lie over one field; a mix raises
ValueError.  Q is the reduced map Q_red of the class's type, x^D, x^p - x,
x + b/x or g/h, after the Moebius change by the class's conjugator P, and
each has a closed form in the columns u = a*x + c and v = b*x + d of P:
(u^D, v^D), (u^p - u v^(p-1), v^p), (u^2 + b v^2, u v), and for type 4,
with t and T the roots of x^2 - x - c (so T^2 = T + c and t + T = 1),
num - t*den = (u + T v)^D: writing (u + T v)^D = X0 + X1*T over GF(q),
num = X0 + X1 and den = X1.  Each power of a linear form is read term by
term from Lucas's theorem (polynomials._lin_pow), so q_map builds the pair
in O(D) term operations.  Its O(D^2) check, a substitute_mobius of the map
by the class itself, runs the other kernel, Taylor shifts, so it also checks
the construction; coprimality follows from the fixed point (see q_map).

Which F give an irreducible transform is decided from F alone, with no
irreducibility test on the degree-D*m result.  The Moebius change keeps
irreducibility, and by Capelli's lemma
the transform is irreducible of degree D*m exactly when num_red - a*den_red
is irreducible of degree D over GF(q^m) = GF(q)(a), for a a root of F.
A norm takes the test down to GF(q) or GF(q^2):
  type 1, x^D with D | q-1: F(0) != 0 and N(a) = (-1)^m F(0) is no r-th
    power for any prime r | D, that is gcd(log N(a), D) = 1 (Cohen 1969;
    Lidl-Niederreiter, Finite Fields, Thm 3.35 on F(x^D));
  type 2, x^p - x: Tr_{GF(q)/GF(p)}(-f_(m-1)) != 0, since Tr_{q^m/q}(a) =
    -f_(m-1) (Lidl-Niederreiter Thm 3.78);
  type 3, x + b/x: v^2 - 4b*u^2 is a non-square for F mod (x^2 - 4b) =
    u*x + v, being the norm of the discriminant a^2 - 4b;
  type 4, D | q+1: F(t) != 0 and F(t) is no r-th power in GF(q^2) for any
    prime r | D, for t a root of x^2 - x - c, the class's eigenvalue.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd as int_gcd

from .fields import is_square, trace
from .polynomials import (Poly, _add_logs, _columns, _form, _from_logs,
                          _lin_pow, _logs, _mobius_form, _mul_logs, _reducer,
                          _rem_logs, _same, divrem,
                          enumerate_monic_irreducibles, gcd, monicize)
from .projective import (TYPE1, TYPE2, TYPE3, ContractError, Mat2, ProjMat,
                         ReducedForm, reduce)


class RationalMap(namedtuple("RationalMap", "num den degree")):
    __slots__ = ()

    def normalized(self) -> "RationalMap":
        """Lowest terms with the pair scaled so the denominator is monic."""
        g = gcd(self.num, self.den)
        num, den = divrem(self.num, g)[0], divrem(self.den, g)[0]
        inv = den.lc().inverse()
        return RationalMap(num.scale(inv), den.scale(inv),
                           max(num.degree, den.degree))

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


QConstruction = namedtuple("QConstruction", "map source")


def _log_dot(spec, a: int, b: int, c: int, d: int) -> int:
    # log(g^a g^b + g^c g^d), reduced, any of the four -1 for a zero factor
    m = spec.order - 1
    s = a + b if a >= 0 and b >= 0 else -1
    t = c + d if c >= 0 and d >= 0 else -1
    if s < 0 or t < 0:
        s = max(s, t)
        return s % m if s >= 0 else -1
    z = spec.zech[(t - s) % m]
    return (s + z) % m if z >= 0 else -1


def _pair_mul(spec, lt: int, x: tuple, y: tuple) -> tuple:
    # x*y in GF(q)(T), T^2 = T + g^lt, each a pair of logs (of z0, z1 for
    # z0 + z1*T): (x0y0 + c x1y1) + (x0y1 + x1(y0 + y1))T
    (x0, x1), (y0, y1) = x, y
    return (_log_dot(spec, x0, y0, x1, y1 + lt if y1 >= 0 else -1),
            _log_dot(spec, x0, y1, x1, _log_dot(spec, y0, 0, y1, 0)))


def _type4_pair(spec, lt: int, u: tuple, v: tuple, D: int) -> tuple[list, list]:
    # num = X0 + X1 and den = X1, as logs, for L^D = X0 + X1*T with L = u +
    # T*v = alpha*x + beta over GF(q)(T), T^2 = T + g^lt: the x^k coefficient
    # of L^D is C(D, k) beta^D gamma^k for gamma = alpha/beta, one pair
    # product per k; C(D, k) mod p are the logs of (x + 1)^D.  beta is not
    # zero: u and v are columns of an invertible matrix
    m = spec.order - 1
    alpha, beta = (u[0], v[0]), (u[1], v[1])
    # 1/beta = conj(beta)/N(beta), conj(T) = 1 - T: conj(c + dT) = (c + d) - dT
    conj = (_log_dot(spec, beta[0], 0, beta[1], 0),
            (beta[1] + spec.neg) % m if beta[1] >= 0 else -1)
    norm = _pair_mul(spec, lt, beta, conj)[0]      # in GF(q), nonzero
    gamma = tuple((x - norm) % m if x >= 0 else -1
                  for x in _pair_mul(spec, lt, alpha, conj))
    z, e = (0, -1), D                              # z = beta^D
    while e:
        if e & 1:
            z = _pair_mul(spec, lt, z, beta)
        e >>= 1
        if e:
            beta = _pair_mul(spec, lt, beta, beta)
    num, den = [], []
    for b in _lin_pow(spec, 0, 0, D):
        x0, x1 = z
        den.append((x1 + b) % m if x1 >= 0 and b >= 0 else -1)
        num.append(_log_dot(spec, x0, b, x1, b))
        z = _pair_mul(spec, lt, z, gamma)
    return num, den


def _q_pair(rf: ReducedForm, D: int) -> tuple[list, list]:
    """The logs of num and den: the reduced pair of rf's type as forms of
    degree D in the columns u = a*x + c and v = b*x + d of the conjugator,
    the pair substitute_mobius gives, each a Lucas power (_lin_pow) or a
    small combination of them: (u^D, v^D) for type 1, (u^p - u v^(p-1), v^p)
    for type 2, (u^2 + b v^2, u v) for type 3, and for type 4 the two
    GF(q)-coordinates of the power (u + T v)^D, T^2 = T + c."""
    spec = rf.conjugator.spec
    u, v = _columns(spec, rf.conjugator)
    kind = rf.info.kind
    if kind == TYPE1:
        return _lin_pow(spec, *u, D), _lin_pow(spec, *v, D)
    if kind == TYPE2:                                      # D = p
        uv = _mul_logs(spec, _lin_pow(spec, *u, 1), _lin_pow(spec, *v, D - 1))
        return (_add_logs(spec, _lin_pow(spec, *u, D), uv, spec.neg),
                _lin_pow(spec, *v, D))
    param = spec.log[rf.info.param.n]
    if kind == TYPE3:
        return (_add_logs(spec, _lin_pow(spec, *u, 2), _lin_pow(spec, *v, 2), param),
                _mul_logs(spec, _lin_pow(spec, *u, 1), _lin_pow(spec, *v, 1)))
    return _type4_pair(spec, param, u, v, D)


def q_map(m: Mat2) -> QConstruction:
    """Q = Q_red of the class of m after the Moebius change by its conjugator,
    from the closed forms of the module docstring (_q_pair, O(D) term
    operations) and scaled so its degree-D side is monic.  Every call checks
    it: the pair must be fixed by m's own Moebius substitution, O(D^2) by
    Taylor shifts in polynomials._mobius_form, and independent, which for a
    fixed pair of degree D means coprime (see the comment at the test).  A
    failed check raises ContractError."""
    cls = ProjMat(m)
    if cls.is_identity():
        raise ValueError("the identity class has no rational map")
    D = cls.order()
    rf = reduce(m)
    spec = m.spec
    num, den = (_from_logs(spec, f) for f in _q_pair(rf, D))

    # one scalar on the pair: make the degree-D side monic
    if max(num.degree, den.degree) != D:
        raise ContractError("the map degree must be the larger degree of num and den")
    anchor = den if den.degree == D else num
    inv = anchor.lc().inverse()
    num, den = num.scale(inv), den.scale(inv)

    out = RationalMap(num, den, D)
    # Coprime once Q is fixed and not constant: <m> has order D in
    # Aut(GF(q)(x)), so its fixed field has index D (Artin), and
    # [GF(q)(x) : GF(q)(Q)] = deg Q in lowest terms (Lueroth); so D divides
    # deg Q <= max(deg num, deg den) = D, and no common factor is left.  Q is
    # constant exactly when a side is zero, or both have degree D (den is the
    # monic anchor) and num = lc(num) * den.  This needs the fixed-point check
    # below and the exact order: a D above the true order d would pass
    # h * (num', den'), num'/den' of degree d and h of degree D - d fixed by m
    # up to a scalar.  _lucas_walk's D is the first j >= 1 with u_j = 0, and
    # m^j = u_j*m - det*u_(j-1)*I, m not scalar, is scalar only when u_j = 0.
    if not num or not den or (num.degree == D == den.degree
                              and num == den.scale(num.lc())):
        raise ContractError("num and den must be coprime")
    # fixed: sub = lam * (num, den), lam read off the monic side; for a
    # coprime pair, exactly when sub.num * den == sub.den * num
    sub = substitute_mobius(out, m)
    side = (sub.den if den.degree == D else sub.num).coeffs
    lam = spec.from_encoding(side[D] if len(side) > D else 0)
    if (sub.num, sub.den) != (num.scale(lam), den.scale(lam)):
        raise ContractError("map must be fixed by its own Moebius substitution")
    return QConstruction(out, rf)


def substitute_mobius(Q: RationalMap, m: Mat2) -> RationalMap:
    """Q((ax+c)/(bx+d)) as the pair of degree-Q.degree forms in (ax+c, bx+d),
    each one polynomials._mobius_form of m; not reduced: compare it with Q
    by cross-multiplying, or normalize both."""
    n, spec = Q.degree, m.spec
    _same(spec, Q.num.ring)
    _same(spec, Q.den.ring)
    if n < max(Q.num.degree, Q.den.degree):
        raise ValueError(f"map degree {n} is below the degree of its num or den")
    return RationalMap(_mobius_form(spec, Q.num.coeffs, m, n),
                       _mobius_form(spec, Q.den.coeffs, m, n), n)


def transform(F: Poly, Q: RationalMap) -> Poly:
    """den^m * F(num/den) for m = deg F; linear in F and not monicized."""
    if not F:
        raise ValueError("transform of the zero polynomial")
    _same(F.ring, Q.num.ring)
    _same(F.ring, Q.den.ring)
    return _form(F.ring, F.coeffs, _logs(Q.num), _logs(Q.den))


def _by_ratio(spec, c0, c1, test):
    # F -> test(y) for F = u*x + v mod x^2 + c1*x + c0 and y = v/u, or False
    # when u = 0; test sees y's encoding, once per y in one call
    log, exp, m = spec.log, spec.exp, spec.order - 1
    red = _reducer(spec, [log[c0.n], log[c1.n], 0])
    memo = {}

    def passes(F):
        lv, lu = (_rem_logs(spec, _logs(F), red) + [-1, -1])[:2]
        if lu < 0:
            return False
        y = exp[(lv - lu) % m] if lv >= 0 else 0
        if y not in memo:
            memo[y] = test(y)
        return memo[y]
    return passes


def _criterion(rf: ReducedForm, D: int, mdeg: int):
    """The test, on a monic irreducible F of degree mdeg, for transform(F, Q)
    to be irreducible of degree D*mdeg, Q being the map of the class that rf
    reduces; the module docstring gives the four cases and their sources.

    Types 1 and 4 read their power test as a coprimality.  For type 1, D
    divides q - 1, so N is an r-th power exactly when r divides log N.  For
    type 4, F(t)^((q^2-1)/D) is a D-th root of unity, the power j of
    zeta = t^(q-1) = T/t, which has order D because t^j = T^j exactly when
    the j-th power of the class is scalar; F(t) is an r-th power exactly
    when r divides j.  The index of each power of zeta is listed once.

    Types 3 and 4 write F = u*x + v mod their quadratic, and then only
    y = v/u matters: the norm v^2 - 4b*u^2 is u^2 (y^2 - 4b), and F(t) =
    u*(t + y) with u^(q-1) = 1.  When u = 0 the norm v^2 is a square, and
    F(t) = v lies in GF(q), where every element is a (q+1)-th power."""
    spec, kind = rf.reduced.spec, rf.info.kind
    log = spec.log
    if kind == TYPE1:
        k0 = mdeg * spec.neg                               # log (-1)^m
        return lambda F: F.coeffs[0] and int_gcd(log[F.coeffs[0]] + k0, D) == 1
    if kind == TYPE2:                                      # coeffs[-2] = f_(m-1)
        return lambda F: bool(trace(spec.from_encoding(F.coeffs[-2])))
    if kind == TYPE3:
        four_b = rf.info.param * spec.from_encoding(4 % spec.p)
        return _by_ratio(spec, -four_b, spec.zero,
                         lambda y: not is_square(spec.from_encoding(y) ** 2 - four_b))
    t = rf.eigenvalue
    ext, e = t.ext, (spec.order + 1) // D
    zeta, index = t.conjugate() / t, {}
    z = ext.one
    for j in range(D):
        index[z.encode()] = j
        z = z * zeta

    def coprime_power(y):                                  # of t + y
        z = t + ext.from_encoding(y)
        return int_gcd(index[((z.conjugate() / z) ** e).encode()], D) == 1
    return _by_ratio(spec, -rf.info.param, -spec.one, coprime_power)


def generate_invariants(m: Mat2, mdeg: int) -> list[Poly]:
    """All invariants of degree D*mdeg, produced as monic rescalings of
    transforms of the monic irreducibles of degree mdeg; sorted by encoding.

    Reducible F need no scan.  transform is multiplicative: F = F1*F2 gives
    t = t1*t2, and deg t_i <= D*deg F_i.  So deg t = D*mdeg forces every
    deg t_i = D*deg F_i >= 2, and t is reducible.  Of the irreducible F,
    only those that pass the test of their type (_criterion: a power
    residue of the norm of a root for types 1 and 4, a trace for type 2, a
    quadratic character for type 3) are transformed, and each of those
    transforms is irreducible of degree D*mdeg; distinct monic F give
    distinct transforms, so no set is needed."""
    Q, rf = q_map(m)
    D = Q.degree
    if D * mdeg <= 2:
        raise ValueError("generation requires D*m > 2")
    passes = _criterion(rf, D, mdeg)
    found = []
    for F in enumerate_monic_irreducibles(m.spec, mdeg):
        if passes(F):
            t = transform(F, Q)
            if t.degree != D * mdeg:
                raise ContractError("a transform that passed the criterion lost degree")
            found.append(monicize(t)[1])
    return sorted(found, key=Poly.encode)
