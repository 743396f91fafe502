"""Dense univariate polynomials over GF(q).

Coefficients are the field's integer encodings in [0, q), stored ascending
with no trailing zeros; the zero polynomial has an empty coefficient tuple
and degree -1.  Coefficient sequences are encodings (the constructor,
.coeffs); single field values are Felt (lc, scale, monomial).
Arithmetic runs on log lists (log_g of each coefficient, -1 for zero) in three
kernels: _mul_into (acc += a*b, b given by its nonzero terms), _add_logs
(g^x + g^t = g^(x + zech[(t - x) mod (q-1)])) and _rem_logs (division by
-g/lc, taken once per divisor by _reducer: divrem, the walk, rational's
reduction mod a quadratic and the primitive test of fields build one each).
Logs may pass q - 1 inside a kernel; _mul_into leaves them so, and _mul_logs
(one product), _add_logs and _rem_logs return them reduced mod q - 1,
trimmed.  gcd and is_irreducible chain these and convert from and to
encodings once per call; _pow_logs is square-and-multiply on them.
Euclid (_gcd_logs) divides in place with no reducer and no quotient write,
and stops at a nonzero constant.  scale is a log shift, exp[log c + log a]
per coefficient, with no product.
_frobenius walks x^(q^i) mod f, f given by its logs, by q-th powers on one
reducer for Ben-Or, the factor counts and the criterion test; Ben-Or takes
f's logs once, for its root test (_has_root), its walk and a copy per gcd.
In characteristic p the p-th power is linear, (sum a_i x^i)^p = sum a_i^p
x^(ip), so a step can be s spreads of the logs and s remainders with no
product (_frobenius_step).  The walk takes it when its term count is at most
that of square-and-multiply (_pow_logs): always for p <= 7 and for the
sparse criterion polynomials, for dense f past p = 11 only at low degree.
The binary form sum c_i u^i v^(k-i) of rational's transform (u, v of any
degree) is one Horner loop, _form, on term lists of u and v built once, with
logs unreduced until its one result; act and substitute_mobius pass their
Mat2 to _mobius_form, which reads u = ax + c and v = bx + d off its columns:
two Taylor shifts and scalings on one log list, about half the term
operations, no product; the eigenspace search passes a class's Mat2 to
form_matrix, the form's matrix, as rows of logs for linalg.nullspace.  Only
this module knows which entries of the matrix make u and v; _columns hands
them to rational as log pairs.  _lin_pow writes a power (ax + c)^e of one
such form in O(e) with no product, from Lucas's theorem on the base-p digits
of e; rational.q_map builds its pair from these powers.
"""

from __future__ import annotations

import functools
from itertools import product
from collections.abc import Iterator

from .numutil import MAX_ORDER, power


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=()):
        self.ring, self.coeffs = ring, _checked(ring, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "Poly":
        return _poly(ring, ())

    @classmethod
    def one(cls, ring) -> "Poly":
        return _poly(ring, (1,))

    @classmethod
    def x(cls, ring) -> "Poly":
        return _poly(ring, (0, 1))

    @classmethod
    def of(cls, ring, *encodings: int) -> "Poly":
        """Build from ascending coefficient encodings: of(F3, 2, 0, 1) = x^2 + 2."""
        return cls(ring, encodings)

    @classmethod
    def monomial(cls, ring, coeff, exponent: int) -> "Poly":
        _same(ring, coeff.spec)
        if exponent < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {exponent}")
        return cls(ring, (0,) * exponent + (coeff.n,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.ring.from_encoding(self.coeffs[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((hash(self.ring), self.coeffs))

    def encode(self) -> int:
        """Integer encoding: sum of coefficient encodings in base q, by Horner
        from the top."""
        q, e = self.ring.order, 0
        for c in reversed(self.coeffs):
            e = e * q + c
        return e

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _add(self, other, 0)

    def __sub__(self, other: "Poly") -> "Poly":
        return _add(self, other, self.ring.neg)

    def __neg__(self) -> "Poly":
        return Poly.zero(self.ring) - self

    def __mul__(self, other: "Poly") -> "Poly":
        ring = self.ring
        _same(ring, other.ring)
        return _from_logs(ring, _mul_logs(ring, _logs(self), _logs(other)))

    def scale(self, c) -> "Poly":
        ring = self.ring
        _same(ring, c.spec)
        if not c.n:
            return _poly(ring, ())
        exp, log, lc = ring.exp, ring.log, ring.log[c.n]   # exp is doubled
        return _poly(ring, [exp[lc + log[x]] if x else 0 for x in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly.one(self.ring))      # ValueError for e < 0

    def __repr__(self):
        return to_text(self)


def _checked(ring, coeffs) -> tuple:
    # the trimmed tuple of coeffs, each checked to be an encoding of ring
    coeffs = tuple(coeffs)
    for c in coeffs:
        if type(c) is not int or not 0 <= c < ring.order:
            raise ValueError(f"coefficient {c!r} is not an encoding of {ring!r}")
    return _trim(coeffs)


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _poly(ring, coeffs) -> Poly:
    # the unchecked constructor: coeffs holds valid encodings of ring
    f = object.__new__(Poly)
    f.ring = ring
    f.coeffs = _trim(coeffs)
    return f


def _same(ring, other):
    if other is not ring and other != ring:
        raise ValueError(f"mixed field specs: {ring.describe()} vs "
                         f"{other.describe()}")


# -- the log-list kernels ----------------------------------------------------

def _logs(f: Poly) -> list:
    log = f.ring.log                               # log[0] = -1
    return [log[c] for c in f.coeffs]


def _from_logs(ring, logs) -> Poly:
    exp = ring.exp                                 # logs are reduced
    return _poly(ring, [exp[x] if x >= 0 else 0 for x in logs])


def _mul_logs(ring, a: list, b: list) -> list:
    # the product a * b
    if not a or not b:
        return []
    m, acc = ring.order - 1, [-1] * (len(a) + len(b) - 1)
    _mul_into(ring.zech, m, acc, a, [(j, t) for j, t in enumerate(b) if t >= 0])
    return [x % m if x > 0 else x for x in acc]   # a[-1] * b[-1] is nonzero


def _mul_into(zech, m: int, acc: list, a: list, terms: list):
    # acc += a * b in place, for b given by its terms [(j, log b_j) if b_j];
    # logs may come in unreduced and stay so
    for i, s in enumerate(a):
        if s >= 0:
            for j, t in terms:
                j += i
                x = acc[j]
                t += s
                if x < 0:
                    acc[j] = t
                else:
                    z = zech[(t - x) % m]
                    acc[j] = x + z if z >= 0 else -1


def _add_logs(ring, acc: list, b: list, shift: int) -> list:
    # acc += b * g^shift, in place
    zech, m = ring.zech, ring.order - 1
    acc += [-1] * (len(b) - len(acc))
    for i, t in enumerate(b):
        if t >= 0:
            t += shift
            x = acc[i]
            if x < 0:
                acc[i] = t % m
            else:
                z = zech[(t - x) % m]
                acc[i] = (x + z) % m if z >= 0 else -1
    while acc and acc[-1] < 0:
        acc.pop()
    return acc


def _reducer(ring, g: list) -> tuple:
    # (deg g, log 1/lc, [(i, log(-g_i/lc)) for the nonzero g_i below the top])
    m, d = ring.order - 1, len(g) - 1
    li = -g[d] % m
    return d, li, [(i, (t + ring.neg + li) % m) for i, t in enumerate(g[:d]) if t >= 0]


def _rem_logs(ring, r: list, reducer: tuple) -> list:
    # the remainder of r by the reducer's g, dividing in place: the quotient's
    # logs are left in r[deg g:]
    d, li, ng = reducer
    zech, m = ring.zech, ring.order - 1
    for k in range(len(r) - d - 1, -1, -1):
        top = r[k + d]
        if top >= 0:
            r[k + d] = (top + li) % m
            for i, t in ng:
                i += k
                x = r[i]
                t += top
                if x < 0:
                    r[i] = t
                else:
                    z = zech[(t - x) % m]
                    r[i] = x + z if z >= 0 else -1
    rem = [x % m if x > 0 else x for x in r[:d]]   # 0 and -1 stay
    while rem and rem[-1] < 0:
        rem.pop()
    return rem


def _add(f: Poly, g: Poly, shift: int) -> Poly:
    # f + g*g0^shift: shift is 0 for a sum and log(-1) for a difference
    ring = f.ring
    _same(ring, g.ring)
    return _from_logs(ring, _add_logs(ring, _logs(f), _logs(g), shift))


def to_text(f: Poly) -> str:
    """Render as c_k*x^k+...+c_0 with coefficients shown as encodings."""
    if not f:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        e = f.coeffs[i]
        if not e:
            continue
        if i == 0:
            parts.append(str(e))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if e == 1 else f"{e}*{xs}")
    return "+".join(parts)


def divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg(rem) < deg(g)."""
    ring = f.ring
    _same(ring, g.ring)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r, d = _logs(f), g.degree
    rem = _rem_logs(ring, r, _reducer(ring, _logs(g)))
    return _from_logs(ring, r[d:]), _from_logs(ring, rem)


def divides(g: Poly, f: Poly) -> bool:
    """True iff g divides f."""
    return not divrem(f, g)[1]


def monicize(f: Poly):
    """(leading coefficient, f scaled monic)."""
    if not f:
        raise ValueError("cannot monicize the zero polynomial")
    c = f.lc()
    if c == f.ring.one:
        return c, f
    return c, f.scale(c.inverse())


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    ring = f.ring
    _same(ring, g.ring)
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    a = _gcd_logs(ring, _logs(f), _logs(g))
    return _from_logs(ring, _add_logs(ring, [], a, -a[-1]))          # monic


def _gcd_logs(ring, a: list, b: list) -> list:
    # the last nonzero remainder of Euclid's loop, reduced; a and b are
    # consumed.  Each step divides a by b in place with no quotient write and
    # no reducer; a's logs stay unreduced, b's terms are reduced each step so
    # they stay small.  A nonzero constant b ends the loop: it divides a
    zech, m = ring.zech, ring.order - 1
    while len(b) > 1:
        d = len(b) - 1
        sh = (ring.neg - b[d]) % m                 # log(-1/lc): never negative
        ng = [(i, (t + sh) % m) for i, t in enumerate(b[:d]) if t >= 0]
        for k in range(len(a) - d - 1, -1, -1):
            top = a[k + d]
            if top >= 0:
                for i, t in ng:
                    i += k
                    x = a[i]
                    t += top
                    if x < 0:
                        a[i] = t
                    else:
                        z = zech[(t - x) % m]
                        a[i] = x + z if z >= 0 else -1
        del a[d:]
        while a and a[-1] < 0:
            a.pop()
        a, b = b, a
    return [x % m if x > 0 else x for x in (b or a)]


def _form(ring, coeffs, lu: list, lv: list) -> Poly:
    # the binary form sum of c_i * u^i * v^(k-i), k = len(coeffs) - 1, for
    # valid coeffs and u, v given by logs (trailing -1s allowed), by Horner:
    # acc <- acc*u + c_i*v^(k-i), then v^(k-i) <- v^(k-i)*v, on term lists of
    # u and v built once, with logs unreduced until the result
    log, zech, m = ring.log, ring.zech, ring.order - 1
    tu = [(j, t) for j, t in enumerate(lu) if t >= 0]
    tv = [(j, t) for j, t in enumerate(lv) if t >= 0]
    du, dv = len(lu) - 1, len(lv) - 1
    acc, vp = [], [0]                              # vp = v^(k-i), logs
    for i in range(len(coeffs) - 1, -1, -1):
        c = log[coeffs[i]]
        nxt = [t + c if t >= 0 else -1 for t in vp] if c >= 0 else []
        nxt += [-1] * (len(acc) + du - len(nxt))
        _mul_into(zech, m, nxt, acc, tu)
        acc = nxt
        if i:
            nxt = [-1] * (len(vp) + dv)
            _mul_into(zech, m, nxt, vp, tv)
            vp = nxt
    exp = ring.exp
    return _poly(ring, [exp[x % m] if x >= 0 else 0 for x in acc])


def _mobius_form(ring, coeffs, A, k: int) -> Poly:
    # _form in degree k for u = a*x + c, v = b*x + d, the columns of the Mat2
    # A, with no product.  For b != 0, y = x + d/b gives v = b*y, u = a*y + B,
    # B = (bc - ad)/b = -det/b, so v^k C(u/v) = sum_j C1_j B^j (b*y)^(k-j),
    # C1 = C(x + a/b): a shift, the scalings by B^j and b^l around a reversal
    # into degree k, a shift.  For b = 0 it is d^k C((a/d)(x + c/a)).  Logs
    # stay unreduced until the result
    log, zech, m = ring.log, ring.zech, ring.order - 1
    a, b, c, d = log[A.a.n], log[A.b.n], log[A.c.n], log[A.d.n]
    t = [log[e] for e in coeffs]
    if b >= 0:
        if a >= 0:
            _taylor_shift(zech, m, t, (a - b) % m)
        lB, t = (log[A.det.n] + ring.neg - b) % m, t[k::-1]
        t = [-1] * (k + 1 - len(t)) + t            # C1_(k-l) at l
        t = [x + (k - l) * lB + l * b if x >= 0 else -1 for l, x in enumerate(t)]
        while t and t[-1] < 0:
            t.pop()
        if d >= 0:
            _taylor_shift(zech, m, t, (d - b) % m)
    else:
        r = (a - d) % m
        t = [x + j * r + k * d if x >= 0 else -1 for j, x in enumerate(t)]
        if c >= 0:
            _taylor_shift(zech, m, t, (c - a) % m)
    exp = ring.exp
    return _poly(ring, [exp[x % m] if x >= 0 else 0 for x in t])


def _taylor_shift(zech, m: int, t: list, s: int):
    # t(x + g^s) in place by synthetic division: pass i sets t[j] += g^s *
    # t[j+1] for j from the top down to i (von zur Gathen-Gerhard, ISSAC 1997)
    n = len(t) - 1
    for i in range(n):
        y = t[n]                                   # the new t[j+1]
        for j in range(n - 1, i - 1, -1):
            x = t[j]
            if y < 0:
                y = x
            else:
                y += s
                if x >= 0:
                    z = zech[(y - x) % m]
                    y = x + z if z >= 0 else -1
                t[j] = y


def _columns(ring, A) -> tuple:
    # the columns of the Mat2 A as linear forms u = a*x + c, v = b*x + d:
    # ((log a, log c), (log b, log d)), the arguments of _lin_pow
    log = ring.log
    return (log[A.a.n], log[A.c.n]), (log[A.b.n], log[A.d.n])


def _lin_pow(ring, la: int, lc: int, e: int) -> list:
    # the logs of (g^la*x + g^lc)^e, trimmed and reduced, la or lc -1 for a
    # zero coefficient (not both), by Lucas's theorem: over the base-p digits
    # e_j of e, (a*x + c)^e = prod_j (a^P x^P + c^P)^(e_j) with P = p^j.  The
    # factors below P make a polynomial of degree below P, so the factor at P
    # places shifted copies of it with no sum.  C(e_j, i) mod p is an integer
    # below p, its own encoding, stepped on logs by (e_j - i)/(i + 1)
    m = ring.order - 1
    if la < 0:
        return [e * lc % m]
    if lc < 0:
        return [-1] * e + [e * la % m]
    log, p = ring.log, ring.p
    out, P = [0], 1                                # the factors below P
    while e:
        e, d = divmod(e, p)
        if d:
            A, C = P * la % m, P * lc % m          # logs of a^P and c^P
            pad, nxt, b = [-1] * (P - len(out)), [], 0   # b = log C(d, i)
            for i in range(d + 1):
                s = b + i * A + (d - i) * C
                nxt += [x + s if x >= 0 else -1 for x in out]
                if i < d:
                    nxt += pad
                    b = (b + log[d - i] - log[i + 1]) % m
            out = nxt
        P *= p
    return [x % m if x >= 0 else -1 for x in out]


def form_matrix(ring, A, k: int) -> list:
    """The matrix of the linear map coeffs -> sum of coeffs[i] * u^i * v^(k-i)
    on coefficient vectors of length k + 1, for u = a*x + c and v = b*x + d
    the columns of the Mat2 A, as in _mobius_form: k + 1 rows of logs (-1 for
    zero), with the coefficients of u^i * v^(k-i) down column i, each column
    one product from the power lists u^0..u^k and v^0..v^k."""
    log = ring.log
    lu, lv = [log[A.c.n], log[A.a.n]], [log[A.d.n], log[A.b.n]]
    up, vp = [[0]], [[0]]
    for _ in range(k):
        up.append(_mul_logs(ring, up[-1], lu))
        vp.append(_mul_logs(ring, vp[-1], lv))
    cols = [_mul_logs(ring, up[i], vp[k - i]) for i in range(k + 1)]
    return [[col[j] if j < len(col) else -1 for col in cols] for j in range(k + 1)]


def _pow_logs(ring, b: list, e: int, red: tuple) -> list:
    # b^e mod the reducer's g, for b of lower degree and e >= 0, squaring
    # from the lowest set bit of e and not after the highest one
    result = None
    while True:
        if e & 1:
            result = b if result is None else _rem_logs(
                ring, _mul_logs(ring, result, b), red)
        e >>= 1
        if not e:
            return [0] if result is None else result
        b = _rem_logs(ring, _mul_logs(ring, b, b), red)


def _frobenius_step(ring, t: list, red: tuple) -> list:
    # t^q mod the reducer's g, for t of lower degree, by s p-th powers: in
    # characteristic p, (sum a_i x^i)^p = sum a_i^p x^(ip), so each is a
    # spread of the logs to every p-th index and one remainder, no product
    p, m = ring.p, ring.order - 1
    for _ in range(ring.s):
        r = [-1] * (p * len(t) - p + 1)            # [] for t = []
        r[::p] = [p * x % m if x >= 0 else -1 for x in t]
        t = _rem_logs(ring, r, red)
    return t


def _frobenius(ring, lf: list, steps) -> Iterator[list]:
    # x^(q^i) mod f, for f of degree >= 1 given by its logs lf (only read), as
    # a log list (not to be changed) at each i >= 1 of the ascending steps,
    # every step of the walk a q-th power on one reducer:
    # the spread step when its s(p-1)(n-1)w term operations, for n = deg f
    # and w terms below the top, are at most _pow_logs's (its bit_length(q)
    # + popcount(q) - 2 products, each n^2 plus a remainder of (n-1)w)
    q, red = ring.order, _reducer(ring, lf)
    n, w = red[0], len(red[2])
    spread = (ring.s * (ring.p - 1) * (n - 1) * w
              <= (q.bit_length() + q.bit_count() - 2) * (n * n + (n - 1) * w))
    t, i = _rem_logs(ring, [-1, 0], red), 0
    for j in steps:
        while i < j:
            t = _frobenius_step(ring, t, red) if spread else _pow_logs(ring, t, q, red)
            i += 1
        yield t


@functools.lru_cache(maxsize=1 << 17)
def is_irreducible(f: Poly) -> bool:
    """Ben-Or test: f of degree n is irreducible iff gcd(x^(q^i) - x, f) = 1
    for i = 1..n/2 (i = 1 is the root test).  x^(q^i) - x is the product of
    the monic irreducibles of degree dividing i; a reducible f, squarefree or
    not, has such a factor for some i <= n/2, and an irreducible f has none.
    f's logs are taken once: the root test (_has_root) reads them, and past
    the n <= 3 shortcut _frobenius walks i = 2..n/2 on them and each gcd
    takes a copy.  For p <= 7 each step is a spread of the logs and a
    remainder, so the test makes no product, only remainders and gcds."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for constants")
    if n == 1:
        return True
    ring, lf = f.ring, _logs(f)
    if _has_root(ring, lf):
        return False
    if n <= 3:
        return True
    x = [-1, 0]
    for t in _frobenius(ring, lf, range(2, n // 2 + 1)):   # x^(q^i) mod f
        t_minus_x = _add_logs(ring, list(t), x, ring.neg)
        if len(_gcd_logs(ring, list(lf), t_minus_x)) > 1:   # a common factor
            return False
    return True


def _has_root(ring, lf: list) -> bool:
    # True iff the polynomial with logs lf vanishes at 0 (lf[0] = -1) or at
    # some g^k, 0 <= k < q - 1: one Horner loop per k, logs unreduced
    if not lf or lf[0] < 0:
        return True
    zech, m, rl = ring.zech, ring.order - 1, lf[::-1]
    for k in range(m):
        acc = -1
        for t in rl:
            if acc >= 0:
                acc += k
            if t >= 0:
                if acc < 0:
                    acc = t
                else:
                    z = zech[(t - acc) % m]
                    acc = acc + z if z >= 0 else -1
        if acc < 0:
            return True
    return False


def monic_polys(ring, n: int) -> Iterator[Poly]:
    """All monic polynomials of degree n, in encoding order of the low part."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    for low in product(range(ring.order), repeat=n):   # last digit fastest
        yield _poly(ring, low[::-1] + (1,))


@functools.lru_cache(maxsize=None)
def enumerate_monic_irreducibles(ring, n: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree n in encoding order, refused before
    the scan unless q^n <= MAX_ORDER."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n >= MAX_ORDER.bit_length() or ring.order**n > MAX_ORDER:   # q >= 2
        raise ValueError(f"the enumeration of degree {n} over {ring!r} is too "
                         "large: it needs q^n <= 2^20")
    return tuple(f for f in monic_polys(ring, n) if is_irreducible(f))
