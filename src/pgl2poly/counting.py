"""Exact counts of invariants: the closed formula and its two oracles.

The closed count of degree-(D*m) invariants of a class of order D is

    phi(D)/(D*m) * sum over d | m, gcd(d, D) = 1 of
                       mu(d) * (q^(m/d) + eta(m/d))

with a per-type correction eta.  The brute-force oracle solves for the
invariants from the definition of the action, as the irreducible monic
eigenvectors of its matrix on degree-n forms; the criterion oracle counts
degree-(D*m) factors of the criterion polynomials of the powers A^j with
gcd(j, D) = 1, by distinct degree and without enumerating irreducibles.

Types 3 and 4 share the alternating eta: in both cases the criterion
polynomial carries exactly one extra irreducible quadratic factor (x^2 - b,
resp. x^2 + c^-1 x - c^-1) precisely when m is even, and stripping its two
roots from the degree count is what the (-1)^(m+1) correction records.
"""

from __future__ import annotations

from math import gcd as int_gcd

from .numutil import divisors, factorization
from .polynomials import Poly, _frobenius, _from_logs, _logs, gcd
from .projective import (IDENTITY, TYPE1, TYPE2, ContractError, Mat2, ProjMat,
                         TypeInfo, classify)
from .action import F_poly, invariant_set


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    out = n
    for p in factorization(n):
        out -= out // p
    return out


def moebius_mu(n: int) -> int:
    if n < 1:
        raise ValueError("moebius_mu requires n >= 1")
    fac = factorization(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def principal_character(D: int, n: int) -> int:
    """1 when n is coprime to D, else 0."""
    if D < 1 or n < 1:
        raise ValueError("character arguments must be >= 1")
    return 1 if int_gcd(D, n) == 1 else 0


def mobius_inversion(chi, L, n: int) -> int:
    """K(n) = sum over d | n of chi(d) * mu(d) * L(n/d), for completely
    multiplicative chi."""
    return sum(chi(d) * moebius_mu(d) * L(n // d) for d in divisors(n))


def eta(info: TypeInfo, t: int) -> int:
    """The closed formula's correction at q^t: -1 for type 1, 0 for type 2,
    (-1)^(t+1) for types 3 and 4."""
    if info.kind == IDENTITY:
        raise ValueError("no counting constants for the identity class")
    if info.kind == TYPE1:
        return -1
    if info.kind == TYPE2:
        return 0
    return 1 if t % 2 else -1


def count_invariants_formula(m: Mat2, n: int) -> int:
    """Closed count of invariants of degree n > 2; zero off multiples of the
    class order."""
    if n <= 2:
        raise ValueError("the closed formula applies only for n > 2")
    cls = ProjMat(m)
    if cls.is_identity():
        raise ValueError("the identity class is outside the formula's domain")
    D = cls.order()
    if n % D:
        return 0
    mm = n // D
    info = classify(m)
    q = m.spec.order
    total = euler_phi(D) * mobius_inversion(lambda d: principal_character(D, d),
                                            lambda t: q**t + eta(info, t), mm)
    if total % (D * mm):
        raise ContractError("formula value must be an integer")
    return total // (D * mm)


def count_invariants_bruteforce(cls: ProjMat, n: int) -> int:
    """Oracle: the invariants of degree n found in the eigenspaces of the
    action matrix, from the definition of the action alone."""
    return len(invariant_set(cls, n))


def count_factors_of_degree(F: Poly, k: int) -> int:
    """Distinct monic irreducible degree-k divisors of F, by distinct degree:
    x^(q^j) - x is the squarefree product of the monic irreducibles of degree
    dividing j, so deg gcd(x^(q^j) - x, F) = sum over d | j of d*c_d for the
    counts c_d of distinct degree-d factors, squarefree F or not.  The walk
    polynomials._frobenius gives x^(q^j) mod F at the divisors j of k."""
    if not F:
        raise ValueError("factor counting needs a nonzero polynomial")
    if k < 1:
        raise ValueError("factor degree must be >= 1")
    if F.degree < k:
        return 0
    xpoly = Poly.x(F.ring)
    counts = {}                                # d -> c_d, for d | k
    js = divisors(k)
    for j, t in zip(js, _frobenius(F.ring, _logs(F), js)):  # t = x^(q^j) mod F, as logs
        below = sum(d * c for d, c in counts.items() if j % d == 0)
        counts[j] = (gcd(_from_logs(F.ring, t) - xpoly, F).degree - below) // j
    return counts[k]


def count_via_criterion(m: Mat2, mm: int) -> int:
    """Second oracle: invariants of degree D*mm are the degree-(D*mm)
    factors of the criterion polynomials of A^j over j prime to D."""
    cls = ProjMat(m)
    if cls.is_identity():
        raise ValueError("criterion counting excludes the identity class")
    D = cls.order()
    if D * mm <= 2:
        raise ValueError("criterion counting requires D*m > 2")
    total = 0
    for j in range(1, D):
        if int_gcd(j, D) == 1:
            total += count_factors_of_degree(F_poly(m**j, mm), D * mm)
    return total

