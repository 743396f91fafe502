"""Dense univariate polynomials over GF(q).

Coefficients are the field's integer encodings in [0, q), stored ascending
with no trailing zeros; the zero polynomial has an empty coefficient tuple
and degree -1.  Coefficient sequences are encodings (the constructor,
.coeffs, homogenize); single field values are Felt (lc, coeff, evaluation,
scale, monomial).  Arithmetic runs on log lists (log_g of each coefficient,
-1 for zero) in three kernels: _mul_into (acc += a*b, b given by its
nonzero terms), _add_logs (g^x + g^t = g^(x + zech[(t - x) mod (q-1)])) and
_rem_logs (division by -g/lc, taken once per divisor by _reducer).  Logs may
pass q - 1 inside a kernel; _mul_into leaves them so, and _mul_logs (one
product), _add_logs and _rem_logs return them reduced mod q - 1, trimmed.
pow_mod, gcd and is_irreducible chain these and convert from and to
encodings once per call.  homogenize (and act) is one Horner loop, _form, on
term lists of u and v built once, with logs unreduced until its one result;
form_matrix returns logs, the rows that linalg eliminates.
"""

from __future__ import annotations

import functools
from itertools import product
from collections.abc import Iterator

from .numutil import power


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

    def coeff(self, i: int):
        return self.ring.from_encoding(
            self.coeffs[i] if 0 <= i < len(self.coeffs) else 0)

    def encode(self) -> int:
        """Integer encoding: sum of coefficient encodings in base q."""
        return sum(c * self.ring.order**i for i, c in enumerate(self.coeffs))

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
        _same(self.ring, c.spec)
        return self * _poly(self.ring, (c.n,))

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly.one(self.ring))      # ValueError for e < 0

    def __call__(self, x):
        """Evaluate at a field element, by Horner."""
        _same(self.ring, x.spec)
        return self.ring.from_encoding(_eval(self, x.n))

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


def _eval(f: Poly, n: int) -> int:
    # the encoding of f at the element with encoding n, by Horner
    if not n:
        return f.coeffs[0] if f.coeffs else 0
    ring = f.ring
    exp, log, zech, m = ring.exp, ring.log, ring.zech, ring.order - 1
    ln, acc = log[n], -1
    for c in reversed(f.coeffs):
        if acc >= 0:
            acc += ln
        if c:
            t = log[c]
            if acc < 0:
                acc = t
            else:
                z = zech[(t - acc) % m]
                acc = acc + z if z >= 0 else -1
    return exp[acc % m] if acc >= 0 else 0


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
    # the last nonzero remainder of Euclid's loop; a and b are consumed
    while b:
        a, b = b, _rem_logs(ring, a, _reducer(ring, b))
    return a


def homogenize(coeffs, u: Poly, v: Poly, k: int) -> Poly:
    """The binary form sum of coeffs[i] * u^i * v^(k-i), for coefficient
    encodings coeffs and k >= their degree: the checks, then _form."""
    ring = u.ring
    _same(ring, v.ring)
    coeffs = _checked(ring, coeffs)
    top = len(coeffs) - 1
    if k < top:
        raise ValueError(f"form degree {k} is below the coefficient degree {top}")
    return _form(ring, coeffs, _logs(u), _logs(v), k)


def _form(ring, coeffs, lu: list, lv: list, k: int) -> Poly:
    # homogenize for valid coeffs and u, v given by logs (trailing -1s allowed),
    # by Horner: acc <- acc*u + c_i*v^(k-i), then v^(k-i) <- v^(k-i)*v, on term
    # lists of u and v built once, with logs unreduced until the result
    log, zech, m, top = ring.log, ring.zech, ring.order - 1, len(coeffs) - 1
    tu = [(j, t) for j, t in enumerate(lu) if t >= 0]
    tv = [(j, t) for j, t in enumerate(lv) if t >= 0]
    du, dv = len(lu) - 1, len(lv) - 1
    acc, vp = [], [0]                              # vp = v^(k-i), logs
    for i in range(k, -1, -1):
        c = log[coeffs[i]] if i <= top else -1
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


def form_matrix(u: Poly, v: Poly, k: int, height: int) -> list:
    """The matrix of the linear map coeffs -> homogenize(coeffs, u, v, k) on
    coefficient vectors of length k + 1: height rows of logs (-1 for zero),
    with the coefficients of u^i * v^(k-i) down column i, each column one
    product from the power lists u^0..u^k and v^0..v^k."""
    ring = u.ring
    _same(ring, v.ring)
    lu, lv, up, vp = _logs(u), _logs(v), [[0]], [[0]]
    for _ in range(k):
        up.append(_mul_logs(ring, up[-1], lu))
        vp.append(_mul_logs(ring, vp[-1], lv))
    cols = [_mul_logs(ring, up[i], vp[k - i]) for i in range(k + 1)]
    return [[col[j] if j < len(col) else -1 for col in cols] for j in range(height)]


def pow_mod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e mod modulus for e >= 0, by square-and-multiply from the lowest
    set bit of e, with no squaring after the highest one."""
    if modulus.degree < 1:
        raise ValueError("pow_mod modulus must have degree >= 1")
    if e < 0:
        raise ValueError(f"pow_mod requires e >= 0, got {e}")
    ring = modulus.ring
    _same(ring, base.ring)
    red = _reducer(ring, _logs(modulus))
    return _from_logs(ring, _pow_logs(ring, _rem_logs(ring, _logs(base), red), e, red))


def _pow_logs(ring, b: list, e: int, red: tuple) -> list:
    # b^e mod the reducer's g, for b of lower degree
    result = None
    while True:
        if e & 1:
            result = b if result is None else _rem_logs(
                ring, _mul_logs(ring, result, b), red)
        e >>= 1
        if not e:
            return [0] if result is None else result
        b = _rem_logs(ring, _mul_logs(ring, b, b), red)


def reciprocal(f: Poly) -> Poly:
    """x^deg(f) * f(1/x): the coefficient sequence reversed."""
    if not f:
        raise ValueError("reciprocal of the zero polynomial")
    return _poly(f.ring, f.coeffs[::-1])


@functools.lru_cache(maxsize=1 << 17)
def is_irreducible(f: Poly) -> bool:
    """Ben-Or test: f of degree n is irreducible iff gcd(x^(q^i) - x, f) = 1
    for i = 1..n/2 (i = 1 is the root test).  x^(q^i) - x is the product of
    the monic irreducibles of degree dividing i; a reducible f, squarefree or
    not, has such a factor for some i <= n/2, and an irreducible f has none."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for constants")
    if n == 1:
        return True
    if any(not _eval(f, a) for a in range(f.ring.order)):     # a root
        return False
    if n <= 3:
        return True
    ring, x = f.ring, [-1, 0]
    red = _reducer(ring, _logs(f))
    t = _pow_logs(ring, x, ring.order, red)    # x^q mod f
    for _ in range(2, n // 2 + 1):
        t = _pow_logs(ring, t, ring.order, red)          # x^(q^i) mod f
        t_minus_x = _add_logs(ring, list(t), x, ring.neg)
        if len(_gcd_logs(ring, _logs(f), t_minus_x)) > 1:   # a common factor
            return False
    return True


def monic_polys(ring, n: int) -> Iterator[Poly]:
    """All monic polynomials of degree n, in encoding order of the low part."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    for low in product(range(ring.order), repeat=n):   # last digit fastest
        yield _poly(ring, low[::-1] + (1,))


@functools.lru_cache(maxsize=None)
def enumerate_monic_irreducibles(ring, n: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree n in encoding order."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(f for f in monic_polys(ring, n) if is_irreducible(f))
