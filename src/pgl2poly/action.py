"""The Moebius action of GL2/PGL2 on polynomials over GF(q).

For A = [[a, b], [c, d]] and f of degree k the raw action is
(bx+d)^k f((ax+c)/(bx+d)); the class action rescales the result monic.
Fixed points of the class action are characterized by divisibility into
the criterion polynomials b*x^(q^r + 1) - a*x^(q^r) + d*x - c.

The raw action on forms of degree n is linear in the coefficients: an
(n+1) x (n+1) matrix M whose columns are the images of 1, x, ..., x^n,
polynomials.form_matrix of A, which reads A's columns as
polynomials._mobius_form does for act.  A monic irreducible f of degree n is
fixed by the class exactly when M f = lam * f for some nonzero lam, so
common_invariants finds the invariants of a list of classes in their joint
eigenspaces, with no scan over the irreducibles.  The matrix, the eigenvalues
and the kernel vectors are discrete logs throughout.  is_invariant, proj_act
and act are the direct definition; the tests check the eigenspace search
against them.
"""

from __future__ import annotations

import functools
from itertools import product
from math import gcd as int_gcd

from . import linalg
from .fields import FieldSpec
from .numutil import MAX_ORDER
from .polynomials import (Poly, _add_logs, _frobenius, _from_logs, _logs,
                          _mobius_form, _same, divrem,
                          enumerate_monic_irreducibles, form_matrix,
                          is_irreducible, monicize)
from .projective import ContractError, Mat2, ProjMat, lucas_order


def act(m: Mat2, f: Poly) -> Poly:
    """Raw action: sum of f_i (ax+c)^i (bx+d)^(k-i) for k = deg f, one
    polynomials._mobius_form of m: Taylor shifts and scalings, about half
    the term operations of the Horner form and no polynomial product."""
    if not f:
        raise ValueError("the action is undefined on the zero polynomial")
    _same(m.spec, f.ring)
    return _mobius_form(m.spec, f.coeffs, m, f.degree)


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
    """The criterion polynomial b*x^(q^r+1) - a*x^(q^r) + d*x - c, stored
    densely, so refused before it is built unless q^r <= MAX_ORDER."""
    if r < 0:
        raise ValueError("r must be >= 0")
    spec = m.spec
    if r >= MAX_ORDER.bit_length() or spec.order**r > MAX_ORDER:   # q >= 2
        raise ValueError(f"the criterion polynomial for r = {r} over {spec!r} is "
                         "too large: it needs q^r <= 2^20")
    return _criterion_at(m, Poly.monomial(spec, spec.one, spec.order**r))


def criterion_invariant(m: Mat2, f: Poly) -> bool:
    """Invariance decided through the criterion polynomials: for deg f = Dm > 2
    it is enough to test divisibility into F at the exponents l*m with
    l in [1, D-1] prime to D; degree-2 inputs fall back to the direct test.

    F is never built: f divides F iff it divides F with x^(q^r) replaced by
    its residue mod f, which the walk polynomials._frobenius gives at
    r = m, 2m, ..., (D-1)m."""
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
    for ell, y in enumerate(_frobenius(f.ring, _logs(f), range(mm, n, mm)), 1):
        if (int_gcd(ell, D) == 1                    # y = x^(q^(ell*m)) mod f
                and not divrem(_criterion_at(m, _from_logs(f.ring, y)), f)[1]):
            return True
    return False


def subgroup_closure(generators, limit=None) -> frozenset[ProjMat] | None:
    """Closure of the generated subgroup under multiplication (BFS), or None
    when a limit is given and the closure has more classes: the search stops
    at the first level past it."""
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
        if limit is not None and len(seen) > limit:
            return None
        if len(seen) > bound:
            raise ContractError("closure outgrew PGL2(GF(q))")
    return frozenset(seen)


def is_cyclic(group) -> bool:
    """True iff some member, tried in ascending encoding, generates the set."""
    members = sorted(group, key=ProjMat.encode)
    n = len(members)
    return any(g.order() == n for g in members)


def _kernel(spec: FieldSpec, rows) -> list:
    # linalg.nullspace, each basis vector checked: the columns it weights sum to 0
    basis = linalg.nullspace(spec, rows)
    cols = list(zip(*rows))
    for vec in basis:
        acc = []
        for x, col in zip(vec, cols):
            if x >= 0:
                acc = _add_logs(spec, acc, col, x)
        if acc:
            raise ContractError("nullspace vector outside the kernel")
    return basis


def common_invariants(spec: FieldSpec, classes, n: int) -> tuple[Poly, ...]:
    """Every monic irreducible of degree n fixed by each class in classes,
    in encoding order; all of them when no class moves anything.

    Column i of a class's action matrix M is act(rep, x^i) as a form of
    degree n, so M f holds the coefficients of act f.  An irreducible f of
    degree n >= 2 keeps its degree, so monic(act f) = f exactly when
    M f = lam * f with lam = lc(act f) nonzero: the invariants are the monic
    irreducible vectors of the joint eigenspaces, one kernel of the stacked
    rows M_k - lam_k * I per tuple of eigenvalues.  For a class of order D,
    A^D = mu * I with (D, mu) = lucas_order(A), so M^D = mu^n * I and lam_k
    runs over the roots of lam^D = mu^n in GF(q)*: log lam * D = n * log mu
    mod q - 1.  Elimination leaves the free columns ascending and the basis
    vector of free column j zero above j, so a monic vector exists only when
    column n is free: that basis vector plus any mix of the others.  Rows,
    eigenvalues and vectors are discrete logs (-1 for zero), as in linalg."""
    if n < 2:
        raise ValueError("invariants are defined for degree >= 2")
    log, m = spec.log, spec.order - 1          # log: GF(q) in encoding order
    eigen = []                           # per class: [(M - lam * I) rows]
    for cls in classes:
        if cls.is_identity():
            continue
        rep = cls.rep
        D, mu = lucas_order(rep)
        M = form_matrix(spec, rep, n)
        target = log[mu.n] * n
        eigen.append([[row[:i] + (_add_logs(spec, row[i:i + 1], [lam], spec.neg)
                                  or [-1]) + row[i + 1:]
                       for i, row in enumerate(M)]
                      for lam in log[1:] if (lam * D - target) % m == 0])
    if not eigen:
        return enumerate_monic_irreducibles(spec, n)
    found = []
    for blocks in product(*eigen):
        basis = _kernel(spec, [row for block in blocks for row in block])
        if not basis or basis[-1][n] < 0:
            continue
        top, rest = basis[-1], basis[:-1]
        for cs in product(log, repeat=len(rest)):
            vec = list(top)
            for c, b in zip(cs, rest):
                if c >= 0:
                    vec = _add_logs(spec, vec, b, c)     # entry n stays 1
            f = _from_logs(spec, vec)
            if is_irreducible(f):
                found.append(f)
    return tuple(sorted(found, key=Poly.encode))


@functools.lru_cache(maxsize=4096)
def invariant_set(cls: ProjMat, n: int) -> tuple[Poly, ...]:
    """The oracle behind the brute-force count: every monic irreducible of
    degree n fixed by cls, in encoding order (common_invariants of cls)."""
    return common_invariants(cls.spec, (cls,), n)
