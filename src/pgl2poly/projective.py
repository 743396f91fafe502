"""GL2/PGL2 over GF(q): arithmetic, orders, type classification, reduction
to canonical form, the sigma product and closed-form powers.

Every non-identity class is conjugate to exactly one kind of reduced matrix:
diag(a, 1) when the eigenvalues are distinct in GF(q) (type 1), the unipotent
[[1,0],[1,1]] when they coincide (type 2), [[0,1],[b,0]] with b a non-square
when they are opposite elements of GF(q^2) \\ GF(q) (type 3), and
[[0,1],[c,1]] with x^2 - x - c irreducible otherwise (type 4).
"""

from __future__ import annotations

from collections import deque, namedtuple

from .fields import (ExtElt, Felt, FieldSpec, artin_schreier_root,
                     element_of_mult_order, embed, frobenius_q, make_ext, sqrt,
                     try_descend)
from .numutil import divisors, power

IDENTITY, TYPE1, TYPE2, TYPE3, TYPE4 = 0, 1, 2, 3, 4


class ContractError(Exception):
    """An internal check failed: the program, not its input, is at fault.

    Raised explicitly so the check survives python -O; deliberately not a
    ValueError, which the command line reports as invalid input.
    """


class Mat2:
    """An invertible 2x2 matrix [[a, b], [c, d]] over GF(q)."""

    __slots__ = ("spec", "a", "b", "c", "d", "det")

    def __init__(self, a: Felt, b: Felt, c: Felt, d: Felt):
        self.spec = a.spec
        self.a, self.b, self.c, self.d = a, b, c, d
        self.det = a * d - b * c
        if not self.det:
            raise ValueError("matrix is singular")

    @classmethod
    def from_encodings(cls, spec: FieldSpec, entries) -> "Mat2":
        a, b, c, d = (spec.from_encoding(e) for e in entries)
        return cls(a, b, c, d)

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Mat2":
        return cls(spec.one, spec.zero, spec.zero, spec.one)

    def entries(self) -> tuple[Felt, Felt, Felt, Felt]:
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> Felt:
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def inverse(self) -> "Mat2":
        f = self.det.inverse()
        return Mat2(self.d * f, -self.b * f, -self.c * f, self.a * f)

    def __pow__(self, j: int) -> "Mat2":
        if j < 0:
            return self.inverse() ** (-j)
        return power(self, j, Mat2.identity(self.spec))

    def scale(self, t: Felt) -> "Mat2":
        return Mat2(self.a * t, self.b * t, self.c * t, self.d * t)

    def is_scalar(self) -> bool:
        return not self.b and not self.c and self.a == self.d

    def encode(self) -> int:
        q = self.spec.order
        return (self.a.encode() + q * self.b.encode()
                + q * q * self.c.encode() + q**3 * self.d.encode())

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.spec == other.spec
                and self.entries() == other.entries())

    def __hash__(self):
        return hash((self.a.n, self.b.n, self.c.n, self.d.n))

    def __repr__(self):
        return "[" + ",".join(str(x.encode()) for x in self.entries()) + "]"


def reduced_type1(spec: FieldSpec, a: Felt) -> Mat2:
    """diag(a, 1) for a outside {0, 1}."""
    if not a or a == spec.one:
        raise ValueError("type-1 parameter must avoid 0 and 1")
    return Mat2(a, spec.zero, spec.zero, spec.one)

def reduced_type2(spec: FieldSpec) -> Mat2:
    """The unipotent [[1, 0], [1, 1]]."""
    return Mat2(spec.one, spec.zero, spec.one, spec.one)

def reduced_type3(spec: FieldSpec, b: Felt) -> Mat2:
    """[[0, 1], [b, 0]] for a non-square b."""
    return Mat2(spec.zero, spec.one, b, spec.zero)

def reduced_type4(spec: FieldSpec, c: Felt) -> Mat2:
    """[[0, 1], [c, 1]] for c with x^2 - x - c irreducible."""
    return Mat2(spec.zero, spec.one, c, spec.one)


class ProjMat:
    """A class in PGL2(GF(q)), stored as the representative scaled so the
    first nonzero entry in (a, b, c, d) order equals 1."""

    __slots__ = ("rep",)

    def __init__(self, m: Mat2):
        lead = next(x for x in m.entries() if x)
        self.rep = m if lead == m.spec.one else m.scale(lead.inverse())

    @property
    def spec(self) -> FieldSpec:
        return self.rep.spec

    def __mul__(self, other: "ProjMat") -> "ProjMat":
        return ProjMat(self.rep * other.rep)

    def inverse(self) -> "ProjMat":
        return ProjMat(self.rep.inverse())

    def is_identity(self) -> bool:
        return self.rep.is_scalar()

    def order(self) -> int:
        """Least D >= 1 with the D-th power scalar, from lucas_order(rep)."""
        return 1 if self.is_identity() else lucas_order(self.rep)[0]

    def encode(self) -> int:
        return self.rep.encode()

    def __eq__(self, other):
        return isinstance(other, ProjMat) and self.rep == other.rep

    def __hash__(self):
        return hash(("proj", self.rep))

    def __repr__(self):
        return f"[{self.rep!r}]"


def lucas(m: Mat2) -> list[Felt]:
    """u_0, ..., u_D and then mu, for a non-scalar m whose class has order D
    (in divisors(q-1) | {p} | divisors(q+1)) and m^D = mu*I.

    By Cayley-Hamilton A^2 = tr*A - det*I, so A^j = u_j*A - det*u_(j-1)*I
    with u_0 = 0, u_1 = 1, u_(j+1) = tr*u_j - det*u_(j-1).  A^j is scalar
    exactly when u_j = 0, so D is the first such j >= 1 and mu = u_(D+1) =
    -det*u_(D-1).  A scalar a*I has u_j = j*a^(j-1): the false order p.
    The terms are _lucas_walk's logs, each made a Felt here."""
    spec = m.spec
    return [Felt(spec, spec.exp[k]) if k >= 0 else spec.zero
            for k in _lucas_walk(m)]


def lucas_order(m: Mat2) -> tuple[int, Felt]:
    """(D, mu) of lucas(m), from a walk that keeps the last two terms."""
    (D, _), (_, mu) = deque(enumerate(_lucas_walk(m)), maxlen=2)
    return D, Felt(m.spec, m.spec.exp[mu])


def _lucas_walk(m: Mat2):
    """The logs (-1 for zero) of u_0, ..., u_D and mu = u_(D+1) of lucas(m);
    D is checked before u_D = 0 is yielded.  With t = log tr and e =
    log(-det), each step u_(j+1) = g^(t + log u_j) + g^(e + log u_(j-1)) is
    one Zech addition.  u_2 = tr, so a zero trace ends the walk at D = 2."""
    if m.is_scalar():
        raise ValueError("a scalar matrix has no Lucas sequence")
    spec = m.spec
    q, zech = spec.order, spec.zech
    n = q - 1
    t = spec.log[m.trace.n]
    e = (spec.log[m.det.n] + spec.neg) % n
    yield -1                                    # u_0 = 0
    u, v, D = 0, t, 2                           # logs of u_(D-1), u_D
    while v >= 0:                               # so tr != 0 and t >= 0
        yield u
        a = t + v
        z = zech[(e + u - a) % n]
        u, v, D = v, (a + z) % n if z >= 0 else -1, D + 1
        if D > q + 1:
            raise ContractError("projective order exceeded q+1")
    if D not in {spec.p} | set(divisors(q - 1)) | set(divisors(q + 1)):
        raise ContractError(f"order {D} outside the admissible divisor set")
    yield from (u, v, (e + u) % n)


def proj_eq(m1: Mat2, m2: Mat2) -> bool:
    """[m1] == [m2]: one field, zeros in the same places and one log ratio
    log x1 - log x2 over every pair of nonzero entries; the same answer as
    ProjMat(m1) == ProjMat(m2) with no normalized matrix built."""
    spec = m1.spec
    if spec != m2.spec:
        return False
    log, n = spec.log, spec.order - 1
    ratios = set()
    for x, y in zip(m1.entries(), m2.entries()):
        if x.n and y.n:
            ratios.add((log[x.n] - log[y.n]) % n)
        elif x.n or y.n:
            return False
    return len(ratios) == 1


def all_classes(spec: FieldSpec) -> list[ProjMat]:
    """All of PGL2(GF(q)) via canonical representatives; |result| = q^3 - q."""
    out = []
    one, zero = spec.one, spec.zero
    for b in spec.elements():
        for c in spec.elements():
            for d in spec.elements():
                if one * d != b * c:
                    out.append(ProjMat(Mat2(one, b, c, d)))
    for c in spec.elements():
        if c:
            for d in spec.elements():
                out.append(ProjMat(Mat2(zero, one, c, d)))
    q = spec.order
    if len(out) != q**3 - q:
        raise ContractError(f"{len(out)} classes instead of q^3 - q")
    return out


# Classification of a non-identity class: kind 1..4 plus its parameter (a for
# type 1, b for type 3, c for type 4); kind 0 is the identity.
TypeInfo = namedtuple("TypeInfo", "kind param", defaults=(None,))
ReducedForm = namedtuple("ReducedForm", "info reduced conjugator eigenvalue")


def _quadratic_roots(c0: Felt, c1: Felt) -> list[ExtElt]:
    """Every root of x^2 + c1*x + c0 in GF(q^2), a double root once, in
    ascending encoding u + q*v: roots in GF(q) have v = 0, and an irreducible
    quadratic gives its conjugate pair (type 1 with ratio -1 takes the first
    root as its eigenvalue)."""
    spec = c0.spec
    ext = make_ext(spec)
    if spec.p == 2:
        if not c1:
            roots = [embed(sqrt(c0))]                   # x^2 = c0: double root
        else:
            # x = c1*y with y^2 + y = c0/c1^2, else x = c1*(y + w) with
            # w^2 + w = beta and y^2 + y = c0/c1^2 + beta; the other root
            # adds c1 to u
            t = c0 / (c1 * c1)
            y, v = artin_schreier_root(t), spec.zero
            if y is None:
                y, v = artin_schreier_root(t + ext.m0), c1
            if y is None:
                raise ContractError("quadratic has no root in GF(q^2)")
            roots = [ExtElt(ext, c1 * y, v), ExtElt(ext, c1 * y + c1, v)]
    else:
        # x = (-c1 +- r)/2 with r^2 = disc, else x = (-c1 +- r*w)/2 with
        # w^2 = beta and r^2 = disc/beta
        half = spec.from_encoding((spec.p + 1) // 2)   # 1/2 lies in GF(p)
        disc = c1 * c1 - (c0 + c0 + c0 + c0)
        r = sqrt(disc)
        if r is not None:
            roots = [embed((r - c1) * half), embed(-(r + c1) * half)]
        else:
            r = sqrt(disc / -ext.m0)
            if r is None:
                raise ContractError("quadratic has no root in GF(q^2)")
            u = -c1 * half
            roots = [ExtElt(ext, u, r * half), ExtElt(ext, u, -r * half)]
    roots = sorted(set(roots), key=ExtElt.encode)
    r1, r2 = roots[0], roots[-1]
    if r1 + r2 != embed(-c1) or r1 * r2 != embed(c0):
        raise ContractError(f"{roots!r} are not the roots of x^2 + c1*x + c0")
    return roots


def _classify(m: Mat2) -> tuple[TypeInfo, list[ExtElt]]:
    # the type of [m] and the roots of its characteristic polynomial
    if m.is_scalar():
        return TypeInfo(IDENTITY), []
    tr = m.trace
    roots = _quadratic_roots(m.det, -tr)
    if roots[0].v:
        info = TypeInfo(TYPE4, -m.det / (tr * tr)) if tr else TypeInfo(TYPE3, -m.det)
    elif len(roots) == 1:
        info = TypeInfo(TYPE2)
    else:
        r1, r2 = roots[0].u, roots[1].u
        info = TypeInfo(TYPE1, min(r1 / r2, r2 / r1, key=Felt.encode))
    return info, roots


def classify(m: Mat2) -> TypeInfo:
    """Type of [m] from the eigenvalue layout of its characteristic polynomial."""
    return _classify(m)[0]


def _eigenvector(m: Mat2, lam: Felt) -> tuple[Felt, Felt]:
    # kernel of (m - lam*I), which has rank 1 off the identity class
    v = (m.b, lam - m.a)
    if not v[0] and not v[1]:
        v = (lam - m.d, m.c)
    if not v[0] and not v[1]:
        raise ContractError(f"{lam!r} is not an eigenvalue of {m!r}")
    return v


def _invertible(a: Felt, b: Felt, c: Felt, d: Felt) -> Mat2:
    if a * d == b * c:
        raise ContractError("conjugator is singular")
    return Mat2(a, b, c, d)


def _min_encoding_conjugator(scaled: Mat2, target: Mat2) -> Mat2:
    """Minimal-encoding invertible P with scaled*P = P*target, for a target
    [[0, 1], [c, t]] with scaled's characteristic polynomial x^2 - t*x - c.

    By columns P = [u | v] and P*target = [c*v | u + t*v], so u = (scaled-t)*v,
    and then scaled*u = c*v holds by Cayley-Hamilton.  Every nonzero v gives
    an invertible P, being no eigenvector of an irreducible action.  Read as
    base-q digits (a, b, c, d), d most significant, P has d = v_2,
    c = scaled.c*v_1 + (scaled.d - t)*v_2 and b = v_1.  The least d = 0 forces
    v_1 != 0, so c = scaled.c*v_1 != 0 is least at 1: v = (1/scaled.c, 0) and
    P = [[(scaled.a - t)/scaled.c, 1/scaled.c], [1, 0]].
    """
    if not scaled.c:
        raise ContractError("conjugator needs a nonzero lower-left entry")
    inv = scaled.c.inverse()
    return _invertible((scaled.a - target.d) * inv, inv,
                       scaled.spec.one, scaled.spec.zero)


def reduce(m: Mat2) -> ReducedForm:
    """Type info, reduced matrix R, conjugator P with [m] = [P][R][P]^-1,
    and the distinguished eigenvalue in GF(q^2).  Internal checks raise
    ContractError."""
    info, roots = _classify(m)
    if info.kind == IDENTITY:
        raise ValueError("the identity class has no reduced form")
    spec = m.spec

    if info.kind == TYPE1:
        alpha, beta = roots if roots[0].u / roots[1].u == info.param else roots[::-1]
        red = reduced_type1(spec, info.param)
        va = _eigenvector(m, alpha.u)
        vb = _eigenvector(m, beta.u)
        conj = _invertible(va[0], vb[0], va[1], vb[1])
        eig = alpha
    elif info.kind == TYPE2:
        red = reduced_type2(spec)
        nil = m.scale(roots[0].u.inverse())     # N = m/lam - I is nilpotent
        n_a, n_b = nil.a - spec.one, nil.b
        n_c, n_d = nil.c, nil.d - spec.one
        # [u | N u] for u = e1, or e2 when N e1 = 0: N u is a column of N
        conj = (_invertible(spec.one, n_a, spec.zero, n_c) if n_a or n_c
                else _invertible(spec.zero, n_b, spec.one, n_d))
        eig = roots[0]
    else:                       # [[0, 1], [c, t]], conjugate to m or to m/tr
        if info.kind == TYPE3:
            red, inv = reduced_type3(spec, info.param), None
            eig = roots[0]              # m's x^2 + det is the reduced x^2 - b
        else:                           # m/tr has eigenvalues r/tr, x^2 - x - c
            red, inv = reduced_type4(spec, info.param), m.trace.inverse()
            eig = min((ExtElt(r.ext, r.u * inv, r.v * inv) for r in roots),
                      key=ExtElt.encode)
        conj = (Mat2.identity(spec) if proj_eq(m, red) else
                _min_encoding_conjugator(m if inv is None else m.scale(inv), red))

    if not proj_eq(conj * red, m * conj):               # conj is invertible
        raise ContractError("conjugation identity failed")
    return ReducedForm(info, red, conj, eig)


def sigma_product(m: Mat2, m0: Mat2) -> Mat2:
    """The bilinear product carrying the action of m0 on the criterion
    polynomials of m; det comes out as det(m) * det(m0)^2."""
    a, b, c, d = m.entries()
    a0, b0, c0, d0 = m0.entries()
    s1 = -(b * a0 * c0 - a * a0 * d0 + d * c0 * b0 - c * b0 * d0)
    s2 = b * a0 * a0 - a * a0 * b0 + d * a0 * b0 - c * b0 * b0
    s3 = -(b * c0 * c0 - a * c0 * d0 + d * d0 * c0 - c * d0 * d0)
    s4 = b * a0 * c0 - a * c0 * b0 + d * d0 * a0 - c * b0 * d0
    out = Mat2(s1, s2, s3, s4)
    if out.det != m.det * m0.det * m0.det:
        raise ContractError("sigma product must have det det(m) * det(m0)^2")
    return out


def power_closed_form(c: Felt, j: int) -> Mat2:
    """[[0,1],[c,1]]^j through the eigenvalue alpha of x^2 - x - c in GF(q^2),
    descended back to GF(q)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    spec = c.spec
    base = reduced_type4(spec, c)       # validates invertibility (c != 0)
    roots = _quadratic_roots(-c, -spec.one)
    if not roots[0].v:
        raise ValueError("x^2 - x - c must be irreducible")
    alpha, aq = roots                   # the conjugate root is alpha^q
    delta = (aq - alpha).inverse()
    powers = {e: alpha**e for e in {j, j + 1}}
    qpowers = {e: aq**e for e in {j, j + 1}}
    ent_a = (powers[j] * aq - qpowers[j] * alpha) * delta
    ent_b = (qpowers[j] - powers[j]) * delta
    ent_c = (powers[j + 1] * aq - qpowers[j + 1] * alpha) * delta
    ent_d = (qpowers[j + 1] - powers[j + 1]) * delta
    descended = [try_descend(z) for z in (ent_a, ent_b, ent_c, ent_d)]
    if any(x is None for x in descended):
        raise ContractError("entries must lie in GF(q)")
    a, b, cc, d = descended
    if not (a or b or cc or d):
        raise ContractError("zero matrix from closed form")
    result = Mat2(a, b, cc, d)
    D = ProjMat(base).order()
    if j % D and not result.c:
        raise ContractError("lower-left entry must be nonzero off multiples of D")
    if not j % D and not result.is_scalar():
        raise ContractError("multiples of D must give a scalar matrix")
    return result


def element_of_order(spec: FieldSpec, D: int) -> ProjMat:
    """A class of order exactly D, in reduced form: diag(a,1) with ord(a)=D
    when D | q-1, the unipotent when D = p, and [[0,1],[c,1]] built from a
    primitive element of GF(q^2) when D | q+1 with D > 2."""
    q = spec.order
    if D <= 1:
        raise ValueError("order must be > 1")
    if D == spec.p:
        out = ProjMat(reduced_type2(spec))
    elif (q - 1) % D == 0:
        out = ProjMat(reduced_type1(spec, element_of_mult_order(spec, D)))
    elif D > 2 and (q + 1) % D == 0:
        ext = make_ext(spec)
        beta = element_of_mult_order(ext, (q - 1) * D)
        tr = try_descend(beta + frobenius_q(beta))
        if not tr:                        # None or zero
            raise ContractError("trace of beta must be a nonzero scalar")
        alpha = beta * embed(tr).inverse()
        c = try_descend(alpha * alpha - alpha)
        if c is None:
            raise ContractError("c must land in GF(q)")
        out = ProjMat(reduced_type4(spec, c))
    else:
        raise ValueError(f"no class of order {D} exists in PGL2(GF({q}))")
    if out.order() != D:
        raise ContractError(f"built a class of order {out.order()}, not {D}")
    return out
