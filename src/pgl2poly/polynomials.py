"""Dense univariate polynomials over GF(q) or GF(q^2).

Coefficients are stored ascending with no trailing zeros; the zero polynomial
has an empty coefficient tuple and degree -1.  The ring is any spec object
exposing zero/one/order/elements/from_encoding, so the same code serves the
base field and its quadratic extension.
"""

from __future__ import annotations

import functools
from typing import Iterator

from .numutil import power, prime_factors


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=()):
        coeffs = tuple(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "Poly":
        return cls(ring, ())

    @classmethod
    def one(cls, ring) -> "Poly":
        return cls(ring, (ring.one,))

    @classmethod
    def x(cls, ring) -> "Poly":
        return cls(ring, (ring.zero, ring.one))

    @classmethod
    def of(cls, ring, *encodings: int) -> "Poly":
        """Build from ascending coefficient encodings: of(F3, 2, 0, 1) = x^2 + 2."""
        return cls(ring, tuple(ring.from_encoding(e) for e in encodings))

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls(value.spec if hasattr(value, "spec") else value.ext, (value,))

    @classmethod
    def monomial(cls, ring, coeff, exponent: int) -> "Poly":
        return cls(ring, (ring.zero,) * exponent + (coeff,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((hash(self.ring), self.coeffs))

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def encode(self) -> int:
        """Integer encoding: sum of coefficient encodings in base q."""
        q = self.ring.order
        e = 0
        for c in reversed(self.coeffs):
            e = e * q + c.encode()
        return e

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(self.ring, ())
        zero = self.ring.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    if d:
                        out[i + j] = out[i + j] + c * d
        return Poly(self.ring, out)

    def scale(self, c) -> "Poly":
        if not c:
            return Poly(self.ring, ())
        return Poly(self.ring, tuple(a * c for a in self.coeffs))

    def __pow__(self, e: int) -> "Poly":
        return power(self, e, Poly.one(self.ring))      # ValueError for e < 0

    def __call__(self, x):
        """Evaluate by Horner."""
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return to_text(self)


def to_text(f: Poly) -> str:
    """Render as c_k*x^k+...+c_0 with coefficients shown as encodings."""
    if not f:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if not c:
            continue
        e = c.encode()
        if i == 0:
            parts.append(str(e))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if e == 1 else f"{e}*{xs}")
    return "+".join(parts)


def divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg(rem) < deg(g)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    ring = f.ring
    if f.degree < g.degree:
        return Poly(ring, ()), f
    ginv = g.lc().inverse()
    rem = list(f.coeffs)
    gdeg = g.degree
    quot = [ring.zero] * (len(rem) - gdeg)
    gc = g.coeffs
    for k in range(len(rem) - gdeg - 1, -1, -1):
        top = rem[k + gdeg]
        if top:
            c = top * ginv
            quot[k] = c
            for i in range(gdeg + 1):
                rem[k + i] = rem[k + i] - c * gc[i]
    return Poly(ring, quot), Poly(ring, rem[:gdeg])


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
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        f, g = g, divrem(f, g)[1]
    return monicize(f)[1]


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x)), by Horner in the polynomial ring."""
    if f.ring != g.ring:
        raise ValueError("compose arguments over different rings")
    acc = Poly.zero(f.ring)
    for c in reversed(f.coeffs):
        acc = acc * g + Poly(f.ring, (c,))
    return acc


def homogenize(coeffs, u: Poly, v: Poly, k: int) -> Poly:
    """The binary form sum of coeffs[i] * u^i * v^(k-i), for
    k >= len(coeffs) - 1, by Horner on the pair with a running power of v."""
    top = len(coeffs) - 1
    if k < top:
        raise ValueError(f"form degree {k} is below the coefficient degree {top}")
    acc = Poly.zero(u.ring)
    vp = v ** (k - top)
    for i in range(top, -1, -1):
        acc = acc * u + vp.scale(coeffs[i])
        if i:
            vp = vp * v
    return acc


def pow_mod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e mod modulus by repeated squaring."""
    if modulus.degree < 1:
        raise ValueError("pow_mod modulus must have degree >= 1")
    result = Poly.one(base.ring)
    base = divrem(base, modulus)[1]
    while e:
        if e & 1:
            result = divrem(result * base, modulus)[1]
        base = divrem(base * base, modulus)[1]
        e >>= 1
    return result


def derivative(f: Poly) -> Poly:
    p = f.ring.base.p if hasattr(f.ring, "base") else f.ring.p
    out = []
    for i in range(1, len(f.coeffs)):
        c = f.coeffs[i]
        acc = f.ring.zero
        for _ in range(i % p):             # i * c in characteristic p
            acc = acc + c
        out.append(acc)
    return Poly(f.ring, out)


def reciprocal(f: Poly) -> Poly:
    """x^deg(f) * f(1/x): the coefficient sequence reversed."""
    if not f:
        raise ValueError("reciprocal of the zero polynomial")
    return Poly(f.ring, tuple(reversed(f.coeffs)))


def _has_root(f: Poly) -> bool:
    zero = f.ring.zero
    return any(f(x) == zero for x in f.ring.elements())


@functools.lru_cache(maxsize=1 << 17)
def is_irreducible(f: Poly) -> bool:
    """Rabin test: x^(q^n) = x mod f and gcd(x^(q^(n/r)) - x, f) = 1 for
    every prime r dividing n = deg f."""
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
    one = Poly.one(f.ring)
    xpoly = Poly.x(f.ring)
    milestones = {n // r for r in prime_factors(n)}
    t = xpoly
    for k in range(1, n + 1):
        t = pow_mod(t, q, f)               # t = x^(q^k) mod f
        if k in milestones and k < n:
            if gcd(t - xpoly, f) != one:
                return False
    return t == xpoly


def monic_polys(ring, n: int) -> Iterator[Poly]:
    """All monic polynomials of degree n, in encoding order of the low part."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    one = ring.one
    for code in range(ring.order**n):
        coeffs = []
        for _ in range(n):
            code, r = divmod(code, ring.order)
            coeffs.append(ring.from_encoding(r))
        yield Poly(ring, tuple(coeffs) + (one,))


@functools.lru_cache(maxsize=None)
def enumerate_monic_irreducibles(ring, n: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree n in encoding order."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(f for f in monic_polys(ring, n) if is_irreducible(f))
