"""The Moebius action of GL2/PGL2 on polynomials over GF(q).

For A = [[a, b], [c, d]] and f of degree k the raw action is
(bx+d)^k f((ax+c)/(bx+d)); the class action rescales the result monic.
Fixed points of the class action are characterized by divisibility into
the criterion polynomials b*x^(q^r + 1) - a*x^(q^r) + d*x - c.

The raw action on forms of degree n is linear in the coefficients, so the
brute-force scan (invariant_set) builds its (n+1) x (n+1) matrix once, from
the images of 1, x, ..., x^n, and tests each candidate on its rows, top row
first, stopping at the first mismatch.  is_invariant, proj_act and act are
the direct definition; the tests check the scan against them.
"""

from __future__ import annotations

import functools
from math import gcd as int_gcd

from .fields import FieldSpec
from .polynomials import (Poly, _dot_logs, divrem,
                          enumerate_monic_irreducibles, homogenize,
                          is_irreducible, monicize, pow_mod)
from .projective import ContractError, Mat2, ProjMat


def act(m: Mat2, f: Poly) -> Poly:
    """Raw action: sum of f_i (ax+c)^i (bx+d)^(k-i) for k = deg f."""
    if not f:
        raise ValueError("the action is undefined on the zero polynomial")
    spec = m.spec
    return homogenize(f.coeffs, Poly(spec, (m.c.n, m.a.n)),
                      Poly(spec, (m.d.n, m.b.n)), f.degree)


def star_act(m: Mat2, f: Poly) -> Poly:
    """The transposed-matrix variant of the action."""
    return act(m.transpose(), f)


def _check_actable(f: Poly):
    if f.degree < 2:
        raise ValueError("class action requires degree >= 2")
    if not f.is_monic:
        raise ValueError("class action requires a monic polynomial")
    if not is_irreducible(f):
        raise ValueError("class action requires an irreducible polynomial")


def proj_act(cls: ProjMat, f: Poly) -> Poly:
    """Class action: the monic rescaling of the raw action.  Maps monic
    irreducibles of degree >= 2 to monic irreducibles of the same degree."""
    _check_actable(f)
    g = act(cls.rep, f)
    if g.degree != f.degree:
        raise ContractError("degree drop on an irreducible input")
    return monicize(g)[1]


def is_invariant(cls: ProjMat, f: Poly) -> bool:
    return proj_act(cls, f) == f


def _criterion_at(m: Mat2, y: Poly) -> Poly:
    # (b*x - a)*y + d*x - c: the criterion polynomial with y for x^(q^r)
    spec = m.spec
    return Poly(spec, ((-m.a).n, m.b.n)) * y + Poly(spec, ((-m.c).n, m.d.n))


def F_poly(m: Mat2, r: int) -> Poly:
    """The criterion polynomial b*x^(q^r+1) - a*x^(q^r) + d*x - c."""
    if r < 0:
        raise ValueError("r must be >= 0")
    spec = m.spec
    return _criterion_at(m, Poly.monomial(spec, spec.one, spec.order**r))


def criterion_invariant(m: Mat2, f: Poly) -> bool:
    """Invariance decided through the criterion polynomials: for deg f = Dm > 2
    it is enough to test divisibility into F at the exponents l*m with
    l in [1, D-1] prime to D; degree-2 inputs fall back to the direct test.

    F is never built: f divides F iff it divides F with x^(q^r) replaced by
    its residue mod f, which steps through r = m, 2m, ... by y <- y^(q^m) mod f."""
    _check_actable(f)
    n = f.degree
    cls = ProjMat(m)
    D = cls.order()
    if D == 1:
        return True
    if n == 2:
        return is_invariant(cls, f)
    if n % D:
        return False
    mm = n // D
    y, step = Poly.x(m.spec), m.spec.order**mm
    for ell in range(1, D):
        y = pow_mod(y, step, f)                          # x^(q^(ell*m)) mod f
        if int_gcd(ell, D) == 1 and not divrem(_criterion_at(m, y), f)[1]:
            return True
    return False


def subgroup_closure(generators) -> frozenset[ProjMat]:
    """Closure of the generated subgroup under multiplication (BFS)."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    spec = gens[0].spec
    bound = spec.order**3 - spec.order
    identity = ProjMat(Mat2.identity(spec))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if len(seen) > bound:
            raise ContractError("closure outgrew PGL2(GF(q))")
    return frozenset(seen)


def is_cyclic(group) -> bool:
    """True iff some member generates the whole set."""
    members = list(group)
    n = len(members)
    return any(g.order() == n for g in members)


def group_invariant(generators, f: Poly) -> bool:
    """True iff every generator (hence the whole closure) fixes f."""
    return all(is_invariant(g, f) for g in generators)


def quadratic_invariants(spec: FieldSpec, generators) -> list[Poly]:
    """All monic irreducible quadratics fixed by every generator, found by
    scanning the q^2 monic quadratics."""
    gens = list(generators)
    out = []
    for f in enumerate_monic_irreducibles(spec, 2):
        if all(is_invariant(g, f) for g in gens):
            out.append(f)
    return out


@functools.lru_cache(maxsize=4096)
def invariant_set(cls: ProjMat, n: int) -> tuple[Poly, ...]:
    """Brute-force oracle: every monic irreducible of degree n fixed by cls,
    in enumeration order.

    Column i of the action matrix is act(rep, x^i) as a form of degree n, so
    row j dotted with f is the x^j coefficient of act(f).  Row n gives
    lam = lc(act f) = b^n f(a/b) (a^n when b = 0), nonzero for an
    irreducible f of degree >= 2.  So monic(act f) = f exactly when
    act f = lam * f, that is when row j . f = lam * f_j for every j < n.
    The rows are compared from j = n - 1 down, and the first mismatch
    rejects f, usually within a row or two: O(n) work per candidate in
    place of an O(n^2) action."""
    if n < 2:
        raise ValueError("invariants are defined for degree >= 2")
    spec, a = cls.spec, cls.rep
    log, m = spec.log, spec.order - 1
    u, v = Poly(spec, (a.c.n, a.a.n)), Poly(spec, (a.d.n, a.b.n))
    cols = [homogenize((0,) * i + (1,), u, v, n).coeffs for i in range(n + 1)]
    rows = [[(i, log[col[j]]) for i, col in enumerate(cols)
             if j < len(col) and col[j]] for j in range(n + 1)]

    def fixed(f: Poly) -> bool:
        b = [log[c] for c in f.coeffs]
        lam = _dot_logs(spec, rows[n], b)
        if lam < 0:
            raise ContractError("degree drop on an irreducible input")
        for j in range(n - 1, -1, -1):
            t = b[j]
            if _dot_logs(spec, rows[j], b) != ((lam + t) % m if t >= 0 else -1):
                return False
        return True

    return tuple(f for f in enumerate_monic_irreducibles(spec, n) if fixed(f))
