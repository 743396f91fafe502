"""Exact arithmetic in GF(q) for q = p^s, and in its quadratic extension GF(q^2).

Construction is deterministic: the degree-s modulus over GF(p) is the first
irreducible one in integer-encoding order (constant term least significant),
so element encodings agree across runs and machines.  An element of GF(q)
is its encoding e(x) = sum coeffs[i] * p^i in [0, q), coeffs being its
coordinates in the modulus basis.  Arithmetic looks up discrete-log tables
built once per field: exp[i] = g^i for the least primitive element g,
log[e], and the Zech logarithm zech[k] = log(1 + g^k), which turns a sum
g^i + g^j into g^(i + zech[j - i]) (Huber 1990, "Some comments on Zech's
logarithms").  The tables take O(q) time and memory, so q <= 2^20.
"""

from __future__ import annotations

import functools
from itertools import accumulate, dropwhile
from operator import mul, not_
from collections.abc import Iterator

from .numutil import MAX_ORDER, is_prime, power, prime_factors
from .polynomials import (Poly, _logs, _pow_logs, _reducer, _same,
                          is_irreducible, monic_polys)


class FieldSpec:
    """The field GF(p^s) with a fixed monic irreducible modulus of degree s;
    make_field keeps q <= MAX_ORDER."""

    __slots__ = ("p", "s", "order", "modulus", "zero", "one", "exp", "log",
                 "zech", "neg", "_hash")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.order = p**s
        self.modulus = modulus
        self._hash = hash(("FieldSpec", p, s, modulus))
        self.exp, self.log, self.zech = _tables(p, s, modulus)
        self.neg = self.log[p - 1]        # -1 = g^neg
        self.zero = Felt(self, 0)
        self.one = Felt(self, 1)

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

    def from_encoding(self, n: int) -> "Felt":
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range [0, {self.order})")
        return Felt(self, n)

    def elements(self) -> Iterator["Felt"]:
        """All field elements in encoding order."""
        return map(functools.partial(Felt, self), range(self.order))


def _tables(p: int, s: int, modulus: tuple[int, ...]):
    """exp (doubled to length 2(q-1), so a sum of two logs needs no
    reduction), log (log[0] = -1) and zech (-1 where 1 + g^k = 0) for the
    least g with g^((q-1)/r) != 1 for every prime r dividing q - 1.  For
    s > 1 that test is _pow_logs on g's digit polynomial, on one reducer of
    the modulus built once per field."""
    q = p**s
    exps = [(q - 1) // r for r in prime_factors(q - 1)]
    if s == 1:
        g = next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in exps))
        exp = list(accumulate(range(q - 2), lambda n, _: n * g % p, initial=1))
    else:
        # constants (encodings below p) have order dividing p - 1; g = 0 when
        # nothing qualifies, as for a reducible modulus
        fp = make_field(p, 1)
        red = _reducer(fp, _logs(Poly.of(fp, *modulus)))
        digits = lambda n: [n // p**i % p for i in range(s)]
        g = next((g for g in range(p, q) if all(
            _pow_logs(fp, _logs(Poly.of(fp, *digits(g))), e, red) != [0]
            for e in exps)), 0)
        # one walk: multiply by g by Horner on its digits, where x*t shifts t
        # and folds the top digit back in by x^s = -(m_0 + ... + m_{s-1} x^{s-1})
        high_first = list(dropwhile(not_, reversed(digits(g))))
        if p == 2:          # an encoding is its bit vector: x*t shifts, + is XOR
            m, exp = sum(c << i for i, c in enumerate(modulus)), [1]
            for _ in range(q - 2):
                acc = 0
                for c in high_first:
                    acc = acc << 1 ^ (m if acc >> s - 1 else 0) ^ (exp[-1] if c else 0)
                exp.append(acc)
        else:
            tail = [(-m) % p for m in modulus[:s]]
            weights = [p**i for i in range(s)]
            cur, exp = digits(1), []
            for _ in range(q - 1):
                exp.append(sum(map(mul, cur, weights)))
                acc = [0] * s
                for c in high_first:
                    top = acc[-1]
                    acc = [(a + top * m + c * t) % p
                           for a, m, t in zip([0] + acc[:-1], tail, cur)]
                cur = acc
    log = [-1] * q
    for i, n in enumerate(exp):
        log[n] = i
    if log[0] >= 0 or log.count(-1) > 1:       # g^i hit 0 or repeated
        raise ValueError(f"modulus {list(modulus)} is not irreducible over GF({p})")
    zech = [log[n - n % p + (n + 1) % p] for n in exp]   # 1 + n: lowest digit
    return exp + exp, log, zech


class Felt:
    """An element of GF(p^s), held as its integer encoding n."""

    __slots__ = ("spec", "n")

    def __init__(self, spec: FieldSpec, n: int):
        self.spec = spec
        self.n = n

    def encode(self) -> int:
        return self.n

    def _plus(self, lb: int) -> "Felt":
        # self + g^lb = g^la * (1 + g^(lb - la))
        spec = self.spec
        if not self.n:
            return Felt(spec, spec.exp[lb])
        la = spec.log[self.n]
        z = spec.zech[(lb - la) % (spec.order - 1)]
        return spec.zero if z < 0 else Felt(spec, spec.exp[la + z])

    def __add__(self, other: "Felt") -> "Felt":
        _same(self.spec, other.spec)
        return self._plus(self.spec.log[other.n]) if other.n else self

    def __sub__(self, other: "Felt") -> "Felt":
        _same(self.spec, other.spec)
        return self._plus(self.spec.log[other.n] + self.spec.neg) if other.n else self

    def __neg__(self) -> "Felt":
        spec = self.spec
        return Felt(spec, spec.exp[spec.log[self.n] + spec.neg]) if self.n else self

    def __mul__(self, other: "Felt") -> "Felt":
        _same(self.spec, other.spec)
        spec = self.spec
        if not self.n or not other.n:
            return spec.zero
        return Felt(spec, spec.exp[spec.log[self.n] + spec.log[other.n]])

    def inverse(self) -> "Felt":
        if not self.n:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        return Felt(spec, spec.exp[spec.order - 1 - spec.log[self.n]])

    def __truediv__(self, other: "Felt") -> "Felt":
        return self * other.inverse()

    def __pow__(self, e: int) -> "Felt":
        spec = self.spec
        if not self.n:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return self if e else spec.one
        return Felt(spec, spec.exp[spec.log[self.n] * e % (spec.order - 1)])

    def __eq__(self, other):
        return (isinstance(other, Felt) and self.n == other.n
                and self.spec == other.spec)

    def __hash__(self):
        return hash(self.n)

    def __bool__(self):
        return self.n != 0

    def __repr__(self):
        return f"{self.n}@{self.spec!r}"


@functools.lru_cache(maxsize=None)
def make_field(p: int, s: int) -> FieldSpec:
    """GF(p^s) with the minimal modulus in encoding order; cached, so specs
    with equal (p, s) are the same object."""
    if s < 1:
        raise ValueError(f"extension degree must be >= 1, got {s}")
    if p > 1 and (s > 20 or p**s > MAX_ORDER):
        raise ValueError(f"GF({p}^{s}) is too large: field tables need q <= 2^20")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s == 1:
        return FieldSpec(p, 1, (0, 1))
    f = next(f for f in monic_polys(make_field(p, 1), s) if is_irreducible(f))
    return FieldSpec(p, s, f.coeffs)


# ---------------------------------------------------------------------------
# squares and multiplicative orders

def is_square(x: Felt) -> bool:
    """True iff x is zero or has an even log; in even characteristic always."""
    return x.spec.p == 2 or not x.n or x.spec.log[x.n] % 2 == 0

def trace(x: Felt) -> Felt:
    """The absolute trace x + x^p + ... + x^(p^(s-1)), an element of GF(p)."""
    return sum((x ** x.spec.p**i for i in range(x.spec.s)), x.spec.zero)

def smallest_nonsquare(spec: FieldSpec) -> Felt:
    """The non-square of minimal encoding; only exists for odd q."""
    if spec.p == 2:
        raise ValueError("every element of an even-order field is a square")
    return Felt(spec, next(n for n in range(2, spec.order) if spec.log[n] % 2))

def element_of_mult_order(spec, d: int):
    """g^((#units)/d) for the minimal-encoding primitive g; has order exactly d.
    On GF(q) g is exp[1], since _tables takes the least encoding of order
    q - 1; on GF(q^2) the scan for g starts at encoding q, since the units of
    GF(q) below it have orders dividing q - 1."""
    n = spec.order - 1
    if d < 1 or n % d != 0:
        raise ValueError(f"{d} does not divide the unit group order {n}")
    if isinstance(spec, FieldSpec):
        return Felt(spec, spec.exp[n // d])
    checks = [n // r for r in prime_factors(n)]
    g = next(g for g in map(spec.from_encoding, range(spec.base.order, spec.order))
             if all(g**e != spec.one for e in checks))
    return g ** (n // d)


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

    def from_encoding(self, n: int) -> "ExtElt":
        q = self.base.order
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range [0, {self.order})")
        return ExtElt(self, self.base.from_encoding(n % q), self.base.from_encoding(n // q))

    def elements(self) -> Iterator["ExtElt"]:
        return map(self.from_encoding, range(self.order))


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
        return hash((self.u.n, self.v.n))

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __repr__(self):
        return f"{self.encode()}@{self.ext!r}"


@functools.lru_cache(maxsize=None)
def make_ext(spec: FieldSpec) -> ExtSpec:
    """The quadratic extension of spec with a deterministic modulus."""
    if spec.p == 2:
        beta = next(filter(trace, spec.elements()))   # least of trace 1
        return ExtSpec(spec, beta, spec.one)          # x^2 + x + beta
    beta = smallest_nonsquare(spec)
    return ExtSpec(spec, -beta, spec.zero)            # x^2 - beta


# ---------------------------------------------------------------------------
# quadratic equations over GF(q) in O(log q) operations

def sqrt(x: Felt) -> Felt | None:
    """A square root of x, or None when x is not a square: g^(i/2) for
    x = g^i, where an odd i (even q only, q - 1 being odd) becomes i + q - 1."""
    spec = x.spec
    if not x.n or not is_square(x):
        return None if x.n else x
    i = spec.log[x.n]
    return Felt(spec, spec.exp[(i + i % 2 * (spec.order - 1)) // 2])


def artin_schreier_root(t: Felt) -> Felt | None:
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

def try_descend(z: ExtElt) -> Felt | None:
    """The base-field value of z, or None when z lies outside the base field."""
    return z.u if not z.v else None

def frobenius_q(z: ExtElt) -> ExtElt:
    """z^q: the nontrivial automorphism of GF(q^2) over GF(q), which swaps
    the two roots w and -m1 - w of the modulus."""
    return z.conjugate()
