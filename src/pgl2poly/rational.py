"""Degree-D rational maps whose transforms generate every invariant.

For a non-identity class of order D there is a rational function
Q = num/den of degree D, fixed by the Moebius substitution of the class,
such that the invariants of degree D*m are exactly the monic rescalings of
den^m * F(num/den) with F of degree m.  The map is assembled per type from
the two linear forms of the conjugator; type 4 additionally builds a pair
of polynomials whose coefficients are the order's own sequence: the
Cayley-Hamilton sequence of the reduced matrix, projective.lucas.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from . import linalg
from .polynomials import (Poly, _from_logs, _logs, divrem,
                          enumerate_monic_irreducibles, form_matrix, gcd,
                          homogenize, is_irreducible, monicize)
from .projective import (TYPE1, TYPE2, TYPE3, ContractError, Mat2, ProjMat,
                         ReducedForm, lucas, reduce)
from .action import _linear_forms, act


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


def _type4_reduced_pair(rf: ReducedForm, D: int) -> tuple[Poly, Poly]:
    """g = (T(x+T)^D - t(x+t)^D)/(T-t) and h = ((x+T)^D - (x+t)^D)/(T-t)
    for t and T the roots of x^2 - x - c in GF(q^2); both lie over GF(q).

    By the binomial theorem g_k = C(D,k) s(D-k+1) and h_k = C(D,k) s(D-k)
    with s(j) = (T^j - t^j)/(T-t), which is lucas(rf.reduced): t and T are
    the eigenvalues of the reduced [[0,1],[c,1]], and s(D) = 0 is its first
    zero after s(0) since t^D = T^D.  C(D,k) is read mod p, an element of
    the prime field whose encoding is itself."""
    spec = rf.reduced.spec
    s = lucas(rf.reduced)
    if len(s) != D + 2:
        raise ContractError("s(D) must vanish first: t^D = T^D in GF(q)")
    binom = [spec.from_encoding(comb(D, k) % spec.p) for k in range(D + 1)]
    g = Poly(spec, [(b * s[D - k + 1]).n for k, b in enumerate(binom)])
    h = Poly(spec, [(b * s[D - k]).n for k, b in enumerate(binom)])
    if not (g.degree == D and g.is_monic and h.degree == D - 1):
        raise ContractError("type-4 pair must have degrees D (monic) and D-1")
    return g, h


def q_map(m: Mat2) -> QConstruction:
    """The degree-D rational map attached to the class of m."""
    cls = ProjMat(m)
    if cls.is_identity():
        raise ValueError("the identity class has no rational map")
    D = cls.order()
    rf = reduce(m)
    l1, l2 = _linear_forms(rf.conjugator)
    kind = rf.info.kind
    if kind == TYPE1:
        num, den = l1**D, l2**D
    elif kind == TYPE2:
        p = m.spec.p
        num = l1**p - l1 * l2 ** (p - 1)
        den = l2**p
    elif kind == TYPE3:
        num = l1 * l1 + (l2 * l2).scale(rf.info.param)
        den = l1 * l2
    else:
        g, h = _type4_reduced_pair(rf, D)
        num = act(rf.conjugator, g)
        den = l2 * act(rf.conjugator, h)

    # one scalar on the pair: make the degree-D side monic
    anchor = den if den.degree == D else num
    if anchor.degree != D:
        raise ContractError("neither side realizes the map degree")
    inv = anchor.lc().inverse()
    num, den = num.scale(inv), den.scale(inv)

    out = RationalMap(num, den, D)
    if gcd(num, den) != Poly.one(m.spec):
        raise ContractError("num and den must be coprime")
    sub = substitute_mobius(out, m)
    if sub.num * den != sub.den * num:
        raise ContractError("map must be fixed by its own Moebius substitution")
    return QConstruction(out, rf)


def substitute_mobius(Q: RationalMap, m: Mat2) -> RationalMap:
    """Q((ax+c)/(bx+d)) as the pair of degree-Q.degree forms in (ax+c, bx+d),
    not reduced: compare it with Q by cross-multiplying, or normalize both."""
    n = Q.degree
    u, v = _linear_forms(m)
    return RationalMap(homogenize(Q.num.coeffs, u, v, n),
                       homogenize(Q.den.coeffs, u, v, n), n)


def transform(F: Poly, Q: RationalMap) -> Poly:
    """den^m * F(num/den) for m = deg F; linear in F and not monicized."""
    if not F:
        raise ValueError("transform of the zero polynomial")
    return homogenize(F.coeffs, Q.num, Q.den, F.degree)


def generate_invariants(m: Mat2, mdeg: int) -> list[Poly]:
    """All invariants of degree D*mdeg, produced as monic rescalings of
    transforms of the monic irreducibles of degree mdeg; sorted by encoding.

    Reducible F need no scan.  transform is multiplicative: F = F1*F2 gives
    t = t1*t2, and deg t_i <= D*deg F_i.  So deg t = D*mdeg forces every
    deg t_i = D*deg F_i >= 2, and t is reducible.  A factor whose image
    drops in degree (a constant image, say) only lowers deg t, and the
    degree check below drops that t as well."""
    Q = q_map(m).map
    D = Q.degree
    if D * mdeg <= 2:
        raise ValueError("generation requires D*m > 2")
    found = set()
    for F in enumerate_monic_irreducibles(m.spec, mdeg):
        t = transform(F, Q)
        if not t:
            raise ContractError("transform of a nonzero polynomial vanished")
        t = monicize(t)[1]
        if t.degree == D * mdeg and is_irreducible(t):
            found.add(t)
    return sorted(found, key=lambda f: f.encode())


def decompose(f: Poly, Q: RationalMap) -> Poly:
    """The monic F with monicize(transform(F, Q)) = f, recovered by solving
    the linear system in the coefficients of F; raises when f is not a
    transform (which signals non-invariance)."""
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    D = Q.degree
    if f.degree % D:
        raise ValueError(f"degree {f.degree} is not a multiple of {D}")
    mdeg = f.degree // D
    rows = form_matrix(Q.num, Q.den, mdeg, f.degree + 1)
    sol = linalg.solve(f.ring, rows, _logs(f))
    if sol is None:
        raise ValueError("polynomial is not a transform under this map")
    F = _from_logs(f.ring, sol)
    if not F:
        raise ContractError("decomposition produced the zero polynomial")
    return monicize(F)[1]
