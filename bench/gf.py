"""Independent GF(p^s) and PGL2 arithmetic on integer encodings.

The benchmark builds its inputs and checks the program's answers with this
module only, so a fault in the program's own arithmetic cannot make a wrong
answer look right.  Encodings follow the program's public contract: the
element with coordinates (c_0, ..., c_{s-1}) in the modulus basis is
c_0 + c_1 p + ... + c_{s-1} p^(s-1), and the modulus of GF(p^s) is the
first monic irreducible of degree s in encoding order.
"""

from __future__ import annotations

from math import gcd


def _digits(code: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _has_factor_of_degree(f: list[int], d: int, p: int) -> bool:
    # trial division of f by every monic polynomial of degree d
    for code in range(p**d):
        g = _digits(code, p, d) + [1]
        r = list(f)
        for k in range(len(r) - len(g), -1, -1):
            c = r[k + d]
            if c:
                for i, gi in enumerate(g):
                    r[k + i] = (r[k + i] - c * gi) % p
        if not any(r[:d]):
            return True
    return False


def find_modulus(p: int, s: int) -> tuple[int, ...]:
    """The first monic irreducible of degree s over GF(p), ascending."""
    if s == 1:
        return (0, 1)
    for code in range(p**s):
        f = _digits(code, p, s) + [1]
        if not any(_has_factor_of_degree(f, d, p) for d in range(1, s // 2 + 1)):
            return tuple(f)
    raise ValueError(f"no irreducible of degree {s} over GF({p})")


class GF:
    """GF(p^s) with addition and multiplication tables over the encodings 0..q-1."""

    def __init__(self, p: int, s: int):
        self.p, self.s, self.q = p, s, p**s
        self.modulus = find_modulus(p, s)
        q = self.q
        vecs = [_digits(x, p, s) for x in range(q)]
        weights = [p**i for i in range(s)]

        def encode(v):
            return sum(c * w for c, w in zip(v, weights))

        def mul_vec(u, v):
            prod = [0] * (2 * s - 1)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    prod[i + j] += a * b
            for k in range(2 * s - 2, s - 1, -1):
                c = prod[k] % p
                for i in range(s):
                    prod[k - s + i] -= c * self.modulus[i]
            return [c % p for c in prod[:s]]

        self.add = [[encode([(a + b) % p for a, b in zip(u, v)]) for v in vecs]
                    for u in vecs]
        self.neg = [encode([(-a) % p for a in u]) for u in vecs]
        self.mul = [[encode(mul_vec(u, v)) for v in vecs] for u in vecs]

    def describe(self) -> str:
        """The program's text form of the field: 'p^s modulus=[...]'."""
        return f"{self.p}^{self.s} modulus={list(self.modulus)}"

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def mult_order(self, x: int) -> int:
        y = x
        for k in range(1, self.q):
            if y == 1:
                return k
            y = self.mul[y][x]
        raise ValueError(f"{x} is not a unit of GF({self.q})")

    def is_square(self, x: int) -> bool:
        return any(self.mul[y][y] == x for y in range(self.q))

    def has_root(self, coeffs) -> bool:
        """True when the polynomial with ascending coefficients has a root."""
        for x in range(self.q):
            acc = 0
            for c in reversed(coeffs):
                acc = self.add[self.mul[acc][x]][c]
            if acc == 0:
                return True
        return False


# ---------------------------------------------------------------------------
# 2x2 matrices as (a, b, c, d) tuples of encodings

def mat_mul(F: GF, x, y):
    a, b, c, d = x
    e, f, g, h = y
    m, add = F.mul, F.add
    return (add[m[a][e]][m[b][g]], add[m[a][f]][m[b][h]],
            add[m[c][e]][m[d][g]], add[m[c][f]][m[d][h]])


def det(F: GF, x) -> int:
    a, b, c, d = x
    return F.sub(F.mul[a][d], F.mul[b][c])


def adjugate(F: GF, x):
    a, b, c, d = x
    return (d, F.neg[b], F.neg[c], a)


def scale(F: GF, x, t: int):
    return tuple(F.mul[v][t] for v in x)


def is_scalar(x) -> bool:
    a, b, c, d = x
    return b == 0 and c == 0 and a == d


def proportional(F: GF, x, y) -> bool:
    """True when x = t*y for some nonzero t (the same class in PGL2)."""
    if not any(x) or not any(y):
        return False
    return all(F.mul[x[i]][y[j]] == F.mul[x[j]][y[i]]
               for i in range(4) for j in range(i + 1, 4))


def proj_order(F: GF, x) -> int:
    cur, k = x, 1
    while not is_scalar(cur):
        cur = mat_mul(F, cur, x)
        k += 1
        if k > F.q + 1:
            raise ValueError("projective order exceeds q+1")
    return k


# ---------------------------------------------------------------------------
# class types and the closed count

def type_representatives(F: GF) -> list[tuple[int, int, tuple]]:
    """(type, order D, reduced matrix) for one class per (type, order):
    diag(a,1) per D | q-1, the unipotent for D = p, [[0,1],[b,0]] with b a
    non-square for odd q, [[0,1],[c,1]] per D | q+1 with D > 2."""
    q = F.q
    reps = []
    prim = next(g for g in range(2, q) if F.mult_order(g) == q - 1) if q > 2 else 1
    for D in range(2, q):
        if (q - 1) % D == 0:
            a = 1
            for _ in range((q - 1) // D):
                a = F.mul[a][prim]
            reps.append((1, D, (a, 0, 0, 1)))
    reps.append((2, F.p, (1, 0, 1, 1)))
    if F.p != 2:
        b = next(x for x in range(1, q) if not F.is_square(x))
        reps.append((3, 2, (0, 1, b, 0)))
    by_order = {}
    for c in range(1, q):
        if not F.has_root([F.neg[c], F.neg[1], 1]):        # x^2 - x - c
            by_order.setdefault(proj_order(F, (0, 1, c, 1)), c)
    for D in sorted(by_order):
        if D > 2:
            reps.append((4, D, (0, 1, by_order[D], 1)))
    return reps


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def closed_count(kind: int, D: int, m: int, q: int) -> int:
    """Number of monic irreducible invariants of degree D*m > 2 of a class
    of the given type and order (the paper's closed formula)."""
    def eta(t):
        if kind == 1:
            return -1
        if kind == 2:
            return 0
        return 1 if t % 2 else -1
    total = sum(_mobius(d) * (q ** (m // d) + eta(m // d))
                for d in range(1, m + 1) if m % d == 0 and gcd(d, D) == 1)
    total *= _phi(D)
    if total % (D * m):
        raise ArithmeticError("closed count is not an integer")
    return total // (D * m)
