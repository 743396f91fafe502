"""Exact arithmetic in GF(q) for q = p^s, and in its quadratic extension GF(q^2).

Construction is deterministic: the degree-s modulus over GF(p) is the first
irreducible one in integer-encoding order (constant term least significant),
so element encodings agree across runs and machines.  Elements are immutable
coordinate vectors with respect to the modulus basis; the integer encoding
e(x) = sum coeffs[i] * p^i is a bijection onto [0, q).
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional

from .numutil import is_prime, power, prime_factors


class FieldSpec:
    """The field GF(p^s) with a fixed monic irreducible modulus of degree s."""

    __slots__ = ("p", "s", "order", "modulus", "zero", "one", "_redtail",
                 "_hash")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.order = p**s
        self.modulus = modulus
        self._hash = hash(("FieldSpec", p, s, modulus))
        # x^s = -(m_0 + m_1 x + ... + m_{s-1} x^{s-1}) drives reduction in mul
        self._redtail = tuple((-m) % p for m in modulus[:s])
        self.zero = Felt(self, (0,) * s)
        self.one = Felt(self, (1,) + (0,) * (s - 1))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec)
            and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.p}^{self.s})" if self.s > 1 else f"GF({self.p})"

    def describe(self) -> str:
        """Text form: 'p^s' plus the modulus coefficient list."""
        return f"{self.p}^{self.s} modulus={list(self.modulus)}"

    def element(self, coeffs) -> "Felt":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.s:
            raise ValueError(f"expected {self.s} coordinates, got {len(coeffs)}")
        return Felt(self, coeffs)

    def from_encoding(self, n: int) -> "Felt":
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range [0, {self.order})")
        coeffs = []
        for _ in range(self.s):
            n, r = divmod(n, self.p)
            coeffs.append(r)
        return Felt(self, tuple(coeffs))

    def elements(self) -> Iterator["Felt"]:
        """All field elements in encoding order."""
        for n in range(self.order):
            yield self.from_encoding(n)


class Felt:
    """An element of GF(p^s): coordinates with respect to the modulus basis."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def encode(self) -> int:
        e = 0
        for c in reversed(self.coeffs):
            e = e * self.spec.p + c
        return e

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError(f"mixed field specs: {self.spec.describe()} vs "
                             f"{other.spec.describe()}")

    def __add__(self, other: "Felt") -> "Felt":
        self._check(other)
        p = self.spec.p
        return Felt(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Felt") -> "Felt":
        self._check(other)
        p = self.spec.p
        return Felt(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Felt":
        p = self.spec.p
        return Felt(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "Felt") -> "Felt":
        self._check(other)
        spec = self.spec
        p, s = spec.p, spec.s
        if s == 1:
            return Felt(spec, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = [0] * (2 * s - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        tail = spec._redtail
        for k in range(2 * s - 2, s - 1, -1):
            c = prod[k] % p
            if c:
                for i, t in enumerate(tail):
                    if t:
                        prod[k - s + i] += c * t
        return Felt(spec, tuple(c % p for c in prod[:s]))

    def inverse(self) -> "Felt":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.spec.order - 2)

    def __truediv__(self, other: "Felt") -> "Felt":
        return self * other.inverse()

    def __pow__(self, e: int) -> "Felt":
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.spec.one)

    def __eq__(self, other):
        return (isinstance(other, Felt) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec._hash, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"{self.encode()}@{self.spec!r}"


# ---------------------------------------------------------------------------
# modulus search over GF(p) on raw coefficient tuples (pre-Felt bootstrap)

def _raw_rem(f: list[int], g: tuple[int, ...], p: int) -> list[int]:
    ginv = pow(g[-1], p - 2, p)
    f = list(f)
    while len(f) >= len(g):
        if f[-1] == 0:
            f.pop()
            continue
        c = (f[-1] * ginv) % p
        off = len(f) - len(g)
        for i, gi in enumerate(g):
            f[off + i] = (f[off + i] - c * gi) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return f

def _raw_irreducible(f: tuple[int, ...], p: int) -> bool:
    # trial division by every monic polynomial of degree <= deg(f)/2
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for code in range(p**d):
            g, m = [], code
            for _ in range(d):
                m, r = divmod(m, p)
                g.append(r)
            g.append(1)
            if not _raw_rem(list(f), tuple(g), p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def make_field(p: int, s: int) -> FieldSpec:
    """GF(p^s) with the minimal modulus in encoding order; cached, so specs
    with equal (p, s) are the same object."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 1:
        raise ValueError(f"extension degree must be >= 1, got {s}")
    if s == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p**s):
        coeffs, m = [], code
        for _ in range(s):
            m, r = divmod(m, p)
            coeffs.append(r)
        cand = tuple(coeffs) + (1,)
        if _raw_irreducible(cand, p):
            return FieldSpec(p, s, cand)
    raise AssertionError("no irreducible modulus found")  # unreachable


# ---------------------------------------------------------------------------
# squares and multiplicative orders

def is_square(x: Felt) -> bool:
    """True iff x is a square; in even characteristic squaring is onto."""
    spec = x.spec
    if spec.p == 2 or not x:
        return True
    return x ** ((spec.order - 1) // 2) == spec.one

def smallest_nonsquare(spec: FieldSpec) -> Felt:
    """The non-square of minimal encoding; only exists for odd q."""
    if spec.p == 2:
        raise ValueError("every element of an even-order field is a square")
    for x in spec.elements():
        if x and not is_square(x):
            return x
    raise AssertionError("no non-square found")  # unreachable for odd q

@functools.lru_cache(maxsize=None)
def _primitive_element(spec):
    # minimal-encoding generator of the multiplicative group
    n = spec.order - 1
    checks = [n // r for r in prime_factors(n)] if n > 1 else []
    one = spec.one
    for g in spec.elements():
        if g and all(g**e != one for e in checks):
            return g
    raise AssertionError("no primitive element found")  # unreachable

def element_of_mult_order(spec, d: int):
    """g^((#units)/d) for the minimal-encoding primitive g; has order exactly d."""
    n = spec.order - 1
    if d < 1 or n % d != 0:
        raise ValueError(f"{d} does not divide the unit group order {n}")
    return _primitive_element(spec) ** (n // d)


# ---------------------------------------------------------------------------
# the quadratic extension GF(q^2)

class ExtSpec:
    """GF(q^2) as a degree-2 extension of a FieldSpec.

    Elements are u + v*w where w is a root of x^2 + m1*x + m0 over the base:
    x^2 - beta (beta the smallest non-square) for odd q, x^2 + x + beta
    (beta of minimal encoding with absolute trace 1) for even q.
    """

    __slots__ = ("base", "m0", "m1", "order", "zero", "one", "omega", "_hash")

    def __init__(self, base: FieldSpec, m0: Felt, m1: Felt):
        self.base = base
        self.m0 = m0
        self.m1 = m1
        self.order = base.order**2
        self._hash = hash(("ExtSpec", base.p, base.s))
        self.zero = ExtElt(self, base.zero, base.zero)
        self.one = ExtElt(self, base.one, base.zero)
        self.omega = ExtElt(self, base.zero, base.one)

    def __eq__(self, other):
        return self is other or (isinstance(other, ExtSpec) and self.base == other.base)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.base.p}^{2 * self.base.s})/{self.base!r}"

    def element(self, u: Felt, v: Felt) -> "ExtElt":
        return ExtElt(self, u, v)

    def from_encoding(self, n: int) -> "ExtElt":
        q = self.base.order
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range [0, {self.order})")
        return ExtElt(self, self.base.from_encoding(n % q), self.base.from_encoding(n // q))

    def elements(self) -> Iterator["ExtElt"]:
        for n in range(self.order):
            yield self.from_encoding(n)


class ExtElt:
    """An element u + v*w of GF(q^2)."""

    __slots__ = ("ext", "u", "v")

    def __init__(self, ext: ExtSpec, u: Felt, v: Felt):
        self.ext = ext
        self.u = u
        self.v = v

    def encode(self) -> int:
        return self.u.encode() + self.ext.base.order * self.v.encode()

    def _check(self, other):
        if self.ext is not other.ext and self.ext != other.ext:
            raise ValueError("mixed extension specs")

    def __add__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        return ExtElt(self.ext, self.u + other.u, self.v + other.v)

    def __sub__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        return ExtElt(self.ext, self.u - other.u, self.v - other.v)

    def __neg__(self) -> "ExtElt":
        return ExtElt(self.ext, -self.u, -self.v)

    def __mul__(self, other: "ExtElt") -> "ExtElt":
        self._check(other)
        ext = self.ext
        uu = self.u * other.u
        vv = self.v * other.v
        cross = self.u * other.v + self.v * other.u
        # w^2 = -(m1 w + m0)
        return ExtElt(ext, uu - ext.m0 * vv, cross - ext.m1 * vv)

    def conjugate(self) -> "ExtElt":
        """The image under w -> -m1 - w (the other root of the modulus)."""
        return ExtElt(self.ext, self.u - self.ext.m1 * self.v, -self.v)

    def norm(self) -> Felt:
        return self.u * self.u - self.ext.m1 * self.u * self.v + self.ext.m0 * self.v * self.v

    def inverse(self) -> "ExtElt":
        if not self:
            raise ZeroDivisionError("inverse of zero extension element")
        n_inv = self.norm().inverse()
        conj = self.conjugate()
        return ExtElt(self.ext, conj.u * n_inv, conj.v * n_inv)

    def __truediv__(self, other: "ExtElt") -> "ExtElt":
        return self * other.inverse()

    def __pow__(self, e: int) -> "ExtElt":
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.ext.one)

    def __eq__(self, other):
        return (isinstance(other, ExtElt) and self.ext == other.ext
                and self.u == other.u and self.v == other.v)

    def __hash__(self):
        return hash((self.ext._hash, self.u.coeffs, self.v.coeffs))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __repr__(self):
        return f"{self.encode()}@{self.ext!r}"


def _absolute_trace(x: Felt) -> Felt:
    # trace down to the prime field: sum of x^(p^i)
    acc = x
    t = x
    for _ in range(x.spec.s - 1):
        t = t**x.spec.p
        acc = acc + t
    return acc


@functools.lru_cache(maxsize=None)
def make_ext(spec: FieldSpec) -> ExtSpec:
    """The quadratic extension of spec with a deterministic modulus."""
    if spec.p == 2:
        beta = None
        for x in spec.elements():
            if _absolute_trace(x) == spec.one:
                beta = x
                break
        assert beta is not None
        return ExtSpec(spec, beta, spec.one)          # x^2 + x + beta
    beta = smallest_nonsquare(spec)
    return ExtSpec(spec, -beta, spec.zero)            # x^2 - beta


# ---------------------------------------------------------------------------
# quadratic equations over GF(q) in O(log q) operations

def sqrt(x: Felt) -> Optional[Felt]:
    """A square root of x, or None when x is not a square.

    Odd q: Tonelli-Shanks (Shanks 1973) seeded with the non-square of
    make_ext.  Even q: squaring is a bijection and x^(q/2) is its inverse.
    """
    spec = x.spec
    if spec.p == 2:
        return x ** (spec.order // 2)
    if not x:
        return x
    odd, m = spec.order - 1, 0            # q - 1 = odd * 2^m
    while odd % 2 == 0:
        odd //= 2
        m += 1
    one = spec.one
    c = (-make_ext(spec).m0) ** odd       # generates the 2-Sylow subgroup
    t = x ** odd
    r = x ** ((odd + 1) // 2)             # r^2 = x * t throughout
    while t != one:
        i, t2 = 0, t                      # find the order 2^i of t
        while t2 != one:
            t2 = t2 * t2
            i += 1
            if i == m:
                return None               # order 2^m: x is a non-square
        b = c
        for _ in range(m - i - 1):
            b = b * b
        m, c = i, b * b
        t, r = t * c, r * b
    return r


def artin_schreier_root(t: Felt) -> Optional[Felt]:
    """A solution y of y^2 + y = t in GF(2^s), or None when Tr(t) = 1 and
    there is none.

    y = sum_{i=1}^{s-1} (sum_{j=0}^{i-1} delta^(2^j)) t^(2^i) for delta of
    trace 1 (the beta of make_ext): telescoping gives y^2 + y =
    t + delta*Tr(t) (Lidl-Niederreiter, Finite Fields, ch. 2).
    """
    spec = t.spec
    if spec.p != 2:
        raise ValueError("Artin-Schreier roots are for characteristic 2")
    d = make_ext(spec).m0                 # delta^(2^(i-1))
    partial = spec.zero                   # sum_{j<i} delta^(2^j)
    tp = t                                # t^(2^(i-1))
    y = spec.zero
    for _ in range(1, spec.s):
        partial = partial + d
        d = d * d
        tp = tp * tp
        y = y + partial * tp
    return y if y * y + y == t else None


def embed(x: Felt) -> ExtElt:
    ext = make_ext(x.spec)
    return ExtElt(ext, x, x.spec.zero)

def try_descend(z: ExtElt) -> Optional[Felt]:
    """The base-field value of z, or None when z lies outside the base field."""
    return z.u if not z.v else None

def frobenius_q(z: ExtElt) -> ExtElt:
    """z^q: the nontrivial automorphism of GF(q^2) over GF(q)."""
    return z ** z.ext.base.order
