"""Dense univariate polynomials over GF(q).

Coefficients are the field's integer encodings in [0, q), stored ascending
with no trailing zeros; the zero polynomial has an empty coefficient tuple
and degree -1.  Coefficient sequences are encodings (the constructor,
.coeffs, homogenize); single field values are Felt (lc, coeff, evaluation,
scale, monomial).  The kernels index the field's tables: a product is
exp[log a + log b], a sum a + g^t is exp[log a + zech[(t - log a) mod (q-1)]].
Partial sums are kept as logs (-1 for zero), reduced mod q - 1 only when
they turn back into encodings.
"""

from __future__ import annotations

import functools
from itertools import product
from collections.abc import Iterator

from .numutil import power


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if type(c) is not int or not 0 <= c < ring.order:
                raise ValueError(f"coefficient {c!r} is not an encoding of {ring!r}")
        self.ring, self.coeffs = ring, _trim(coeffs)

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
        q = self.ring.order
        e = 0
        for c in reversed(self.coeffs):
            e = e * q + c
        return e

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _add(self, other, 0)

    def __sub__(self, other: "Poly") -> "Poly":
        return _add(self, other, self.ring.neg)

    def __neg__(self) -> "Poly":
        return _scaled(self, self.ring.p - 1)         # -1 lies in GF(p)

    def __mul__(self, other: "Poly") -> "Poly":
        ring = self.ring
        _same(ring, other.ring)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(ring, ())
        log, zech, m = ring.log, ring.zech, ring.order - 1
        terms = [(j, log[d]) for j, d in enumerate(b) if d]
        acc = [-1] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, t in terms:
                    j += i
                    x = acc[j]
                    t += lc
                    if x < 0:
                        acc[j] = t
                    else:
                        z = zech[(t - x) % m]
                        acc[j] = x + z if z >= 0 else -1
        return _from_logs(ring, acc)

    def scale(self, c) -> "Poly":
        _same(self.ring, c.spec)
        return _scaled(self, c.n)

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly.one(self.ring))      # ValueError for e < 0

    def __call__(self, x):
        """Evaluate at a field element, by Horner."""
        _same(self.ring, x.spec)
        return self.ring.from_encoding(_eval(self, x.n))

    def __repr__(self):
        return to_text(self)


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


def _from_logs(ring, logs) -> Poly:
    exp, m = ring.exp, ring.order - 1
    return _poly(ring, [exp[x % m] if x >= 0 else 0 for x in logs])


def _add(f: Poly, g: Poly, shift: int) -> Poly:
    # f + g*g0^shift: shift is 0 for a sum and log(-1) for a difference
    ring = f.ring
    _same(ring, g.ring)
    exp, log, zech, m = ring.exp, ring.log, ring.zech, ring.order - 1
    out = list(f.coeffs)
    out += [0] * (len(g.coeffs) - len(out))
    for i, c in enumerate(g.coeffs):
        if c:
            t = log[c] + shift
            x = out[i]
            if x:
                x = log[x]
                z = zech[(t - x) % m]
                out[i] = exp[x + z] if z >= 0 else 0
            else:
                out[i] = exp[t]
    return _poly(ring, out)


def _scaled(f: Poly, n: int) -> Poly:
    # f times the element with encoding n
    ring = f.ring
    if not n:
        return _poly(ring, ())
    exp, log = ring.exp, ring.log
    ln = log[n]
    return _poly(ring, [exp[log[a] + ln] if a else 0 for a in f.coeffs])


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
    if f.degree < g.degree:
        return _poly(ring, ()), f
    exp, log, zech, m = ring.exp, ring.log, ring.zech, ring.order - 1
    gc = g.coeffs
    d = len(gc) - 1
    li = m - log[gc[d]]                            # log of 1/lc(g)
    ng = [(i, log[c] + ring.neg + li) for i, c in enumerate(gc[:d]) if c]  # -g/lc
    rem = [log[c] for c in f.coeffs]               # log[0] = -1
    quot = [0] * (len(rem) - d)
    for k in range(len(rem) - d - 1, -1, -1):
        top = rem[k + d]
        if top >= 0:
            quot[k] = exp[(top + li) % m]
            for i, t in ng:
                i += k
                x = rem[i]
                t += top
                if x < 0:
                    rem[i] = t
                else:
                    z = zech[(t - x) % m]
                    rem[i] = x + z if z >= 0 else -1
    return _poly(ring, quot), _from_logs(ring, rem[:d])


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
    _same(f.ring, g.ring)
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        f, g = g, divrem(f, g)[1]
    return monicize(f)[1]


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x)), by Horner in the polynomial ring."""
    ring = f.ring
    _same(ring, g.ring)
    acc = Poly.zero(ring)
    for c in reversed(f.coeffs):
        acc = acc * g + _poly(ring, (c,))
    return acc


def homogenize(coeffs, u: Poly, v: Poly, k: int) -> Poly:
    """The binary form sum of coeffs[i] * u^i * v^(k-i), for coefficient
    encodings coeffs and k >= their degree, by Horner on the pair with a
    running power of v."""
    ring = u.ring
    _same(ring, v.ring)
    coeffs = Poly(ring, coeffs).coeffs
    top = len(coeffs) - 1
    if k < top:
        raise ValueError(f"form degree {k} is below the coefficient degree {top}")
    acc = Poly.zero(ring)
    vp = v ** (k - top)
    for i in range(top, -1, -1):
        acc = acc * u + _scaled(vp, coeffs[i])
        if i:
            vp = vp * v
    return acc


def pow_mod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e mod modulus for e >= 0, by square-and-multiply from the lowest
    set bit of e, with no squaring after the highest one."""
    if modulus.degree < 1:
        raise ValueError("pow_mod modulus must have degree >= 1")
    if e < 0:
        raise ValueError(f"pow_mod requires e >= 0, got {e}")
    result = None
    base = divrem(base, modulus)[1]
    while True:
        if e & 1:
            result = base if result is None else divrem(result * base, modulus)[1]
        e >>= 1
        if not e:
            return Poly.one(base.ring) if result is None else result
        base = divrem(base * base, modulus)[1]


def derivative(f: Poly) -> Poly:
    """The formal derivative: i * c_i, the integer i read in GF(p)."""
    ring = f.ring
    exp, log, p = ring.exp, ring.log, ring.p
    return _poly(ring, [exp[log[c] + log[i % p]] if c and i % p else 0
                        for i, c in enumerate(f.coeffs[1:], 1)])


def reciprocal(f: Poly) -> Poly:
    """x^deg(f) * f(1/x): the coefficient sequence reversed."""
    if not f:
        raise ValueError("reciprocal of the zero polynomial")
    return _poly(f.ring, f.coeffs[::-1])


def _has_root(f: Poly) -> bool:
    return any(not _eval(f, n) for n in range(f.ring.order))


@functools.lru_cache(maxsize=1 << 17)
def is_irreducible(f: Poly) -> bool:
    """Ben-Or test: f of degree n is irreducible iff gcd(x^(q^i) - x, f) = 1
    for i = 1..n/2 (i = 1 is the root test).  x^(q^i) - x is the product of
    the monic irreducibles of degree dividing i; a reducible f, squarefree or
    not, has such a factor for some i <= n/2, and an irreducible f has none."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for constants")
    if not f.is_monic:
        f = monicize(f)[1]
    if n == 1:
        return True
    if _has_root(f):
        return False
    if n <= 3:
        return True
    q = f.ring.order
    xpoly = Poly.x(f.ring)
    t = pow_mod(xpoly, q, f)                   # x^q mod f
    for _ in range(2, n // 2 + 1):
        t = pow_mod(t, q, f)                   # x^(q^i) mod f
        if gcd(t - xpoly, f).degree:
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
