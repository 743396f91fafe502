"""Executable property suites: every theorem-shaped claim as a pass/fail row.

Each suite takes a field spec plus a seed and returns CheckRow records; the
CLI renders them and exits nonzero when any row fails.  Exhaustive sweeps
are used wherever the group and the polynomial pools are small (q <= 3 in
most suites), seeded sampling otherwise.  A suite computes each distinct
value it checks once, in a memo that lives for that one call, and the
sampled suites make the seed's draws unchanged: a repeated case is still
drawn and counted, but only looked up.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple

from .fields import FieldSpec, smallest_nonsquare
from .numutil import divisors
from .polynomials import (Poly, divides, enumerate_monic_irreducibles,
                          gcd as poly_gcd, is_irreducible)
from .projective import (ContractError, Mat2, ProjMat, all_classes,
                         element_of_order, reduced_type2, reduced_type3,
                         sigma_product)
from .action import (F_poly, act, common_invariants, criterion_invariant,
                     invariant_set, is_cyclic, is_invariant, proj_act,
                     subgroup_closure)
from .rational import generate_invariants, q_map, substitute_mobius
from .counting import (count_invariants_bruteforce, count_invariants_formula,
                       count_via_criterion)


CheckRow = namedtuple("CheckRow", "suite name passed detail", defaults=("",))


def _row(suite, name, passed, detail=""):
    return CheckRow(suite, name, bool(passed), detail)


def _random_matrix(spec: FieldSpec, rng: random.Random) -> Mat2:
    # the determinant test on encodings: a*d = g^(log a + log d) unless a or
    # d is 0, and exp is doubled so the sum needs no reduction
    q, exp, log, draw = spec.order, spec.exp, spec.log, rng.randrange
    while True:
        a, b, c, d = draw(q), draw(q), draw(q), draw(q)
        ad = exp[log[a] + log[d]] if a and d else 0
        bc = exp[log[b] + log[c]] if b and c else 0
        if ad != bc:
            return Mat2.from_encodings(spec, (a, b, c, d))

def _random_class(spec, rng) -> ProjMat:
    return ProjMat(_random_matrix(spec, rng))

def _random_irreducible(spec, n, rng) -> Poly:
    return rng.choice(enumerate_monic_irreducibles(spec, n))

def _random_nonzero_poly(spec, max_deg, rng) -> Poly:
    q = spec.order
    while True:
        deg = rng.randrange(max_deg + 1)
        f = Poly(spec, tuple(rng.randrange(q) for _ in range(deg + 1)))
        if f:
            return f

def type_representatives(spec: FieldSpec) -> list[tuple[str, Mat2]]:
    """One reduced-form representative per available (type, order) pair."""
    q = spec.order
    reps = []
    for D in divisors(q - 1):
        if D > 1:
            reps.append((f"type1-D{D}", element_of_order(spec, D).rep))
    reps.append((f"type2-D{spec.p}", reduced_type2(spec)))
    if spec.p != 2:
        reps.append(("type3-D2", reduced_type3(spec, smallest_nonsquare(spec))))
    for D in divisors(q + 1):
        if D > 2:
            reps.append((f"type4-D{D}", element_of_order(spec, D).rep))
    return reps


# ---------------------------------------------------------------------------
# action laws

def suite_action_laws(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    q = spec.order
    rows = []
    exhaustive = q == 2
    degrees = range(2, 6) if q <= 5 else range(2, 5)

    if exhaustive:
        classes = all_classes(spec)
        triples = [(A, B, f) for A in classes for B in classes
                   for n in degrees for f in enumerate_monic_irreducibles(spec, n)]
    else:
        enumerate_monic_irreducibles(spec, degrees[-1])   # refused before any draw
        triples = []
        for _ in range(1000):
            n = rng.choice(list(degrees))
            triples.append((_random_class(spec, rng), _random_class(spec, rng),
                            _random_irreducible(spec, n, rng)))

    # each distinct (class, polynomial) image and class product is computed
    # once: the GF(2) sweep asks 2,160 times for 72 images
    image, product = functools.cache(proj_act), functools.cache(ProjMat.__mul__)
    ident = ProjMat(Mat2.identity(spec))
    ok_id = all(image(ident, f) == f for _, _, f in triples)
    rows.append(_row("action-laws", "identity", ok_id, f"{len(triples)} cases"))

    ok_comp = all(image(A, image(B, f)) == image(product(A, B), f)
                  for A, B, f in triples)
    rows.append(_row("action-laws", "compatibility", ok_comp, f"{len(triples)} cases"))

    ok_deg = ok_irr = True
    for A, _, f in triples:
        g = image(A, f)
        ok_deg = ok_deg and g.degree == f.degree
        ok_irr = ok_irr and is_irreducible(g)
    rows.append(_row("action-laws", "degree-preservation", ok_deg, f"{len(triples)} cases"))
    rows.append(_row("action-laws", "irreducibility-preservation", ok_irr, f"{len(triples)} cases"))

    ok_mult = True
    for _ in range(200):
        A = _random_matrix(spec, rng)
        f = _random_nonzero_poly(spec, 4, rng)
        g = _random_nonzero_poly(spec, 4, rng)
        ok_mult = ok_mult and act(A, f * g) == act(A, f) * act(A, g)
    rows.append(_row("action-laws", "multiplicativity", ok_mult, "200 cases"))
    return rows


# ---------------------------------------------------------------------------
# criterion equivalence and the degree theorem

def suite_criterion(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    q = spec.order
    rows = []
    if q <= 3:
        classes = all_classes(spec)
        degree_range = range(2, 7)
        pairs = [(cls, f) for cls in classes for n in degree_range
                 for f in enumerate_monic_irreducibles(spec, n)]
    else:
        degree_range = range(2, 7) if q <= 5 else range(2, 5)
        enumerate_monic_irreducibles(spec, degree_range[-1])   # refused before any draw
        pairs = [(_random_class(spec, rng),
                  _random_irreducible(spec, rng.choice(list(degree_range)), rng))
                 for _ in range(300)]

    mismatches = 0
    degree_theorem_ok = True
    for cls, f in pairs:
        direct = is_invariant(cls, f)
        viacrit = criterion_invariant(cls.rep, f)
        if direct != viacrit:
            mismatches += 1
        if direct and f.degree > 2 and f.degree % cls.order():
            degree_theorem_ok = False
    rows.append(_row("criterion", "agreement-with-direct-test", mismatches == 0,
                     f"{len(pairs)} pairs, {mismatches} mismatches"))
    rows.append(_row("criterion", "degree-theorem", degree_theorem_ok,
                     f"{len(pairs)} pairs"))
    return rows


# ---------------------------------------------------------------------------
# conjugation correspondence

def suite_conjugation(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    q = spec.order
    degree_range = range(2, 7) if q <= 3 else range(2, 5)
    rows = []
    checked = 0
    ok = True
    for _ in range(6):
        P = _random_matrix(spec, rng)
        A = _random_matrix(spec, rng)
        B = P * A * P.inverse()
        pinv = ProjMat(P).inverse()
        for n in degree_range:
            inv_a = set(invariant_set(ProjMat(A), n))
            inv_b = invariant_set(ProjMat(B), n)
            mapped = {proj_act(pinv, f) for f in inv_b}
            ok = ok and mapped == inv_a and len(mapped) == len(inv_b)
            checked += 1
    rows.append(_row("conjugation", "invariant-set-bijection", ok,
                     f"{checked} (matrix, degree) pairs"))
    return rows


# ---------------------------------------------------------------------------
# counting: formula vs both oracles

def suite_counting(spec: FieldSpec, seed: int = 12345):
    max_n = 8 if spec.order <= 3 else 6
    rows = []
    for label, rep in type_representatives(spec):
        cls = ProjMat(rep)
        D = cls.order()
        for mm in range(1, max_n // D + 1):
            n = D * mm
            if n > 2:
                nf = count_invariants_formula(rep, n)
                nb = count_invariants_bruteforce(cls, n)
                nc = count_via_criterion(rep, mm)
                rows.append(_row("counting", f"{label}-n{n}", nf == nb == nc,
                                 f"formula={nf} brute={nb} criterion={nc}"))
        off = [n for n in range(3, max_n + 1) if n % D]
        zeros_ok = all(count_invariants_bruteforce(cls, n) == 0 for n in off)
        if off:
            rows.append(_row("counting", f"{label}-off-multiples", zeros_ok,
                             f"degrees {off} all zero"))

    # the reciprocal-flip matrix lands in type 1 (odd q) or type 2 (q even);
    # the dispatched formula must match brute force at every even degree
    E = Mat2(spec.zero, spec.one, spec.one, spec.zero)
    flip_ok = True
    detail = []
    for mm in range(2, 5):
        n = 2 * mm
        if n > max_n:
            break
        nf = count_invariants_formula(E, n)
        nb = count_invariants_bruteforce(ProjMat(E), n)
        flip_ok = flip_ok and nf == nb
        detail.append(f"n{n}:{nf}/{nb}")
    rows.append(_row("counting", "reciprocal-flip-dispatch", flip_ok, " ".join(detail)))
    return rows


# ---------------------------------------------------------------------------
# rational maps

def suite_qmap_fixed_point(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    q = spec.order
    rows = []
    if q <= 5:
        classes = [cls for cls in all_classes(spec) if not cls.is_identity()]
    else:
        seen = set()
        while len(seen) < 200:
            cls = _random_class(spec, rng)
            if not cls.is_identity():
                seen.add(cls)
        classes = sorted(seen, key=lambda cls: cls.encode())
    fixed_ok = shape_ok = True
    for cls in classes:
        qc = q_map(cls.rep)
        Q = qc.map
        fixed_ok = (fixed_ok and substitute_mobius(Q, cls.rep).normalized()
                    == Q.normalized())
        shape_ok = (shape_ok and Q.degree == cls.order()
                    and poly_gcd(Q.num, Q.den) == Poly.one(spec))
    rows.append(_row("qmap-fixed-point", "fixed-point", fixed_ok,
                     f"{len(classes)} classes"))
    rows.append(_row("qmap-fixed-point", "coprime-and-degree", shape_ok,
                     f"{len(classes)} classes"))
    return rows


def suite_generation(spec: FieldSpec, seed: int = 12345):
    """Set equality of generated invariants against the brute-force sets."""
    max_n = 8 if spec.order <= 3 else 6
    rows = []
    for label, rep in type_representatives(spec):
        cls = ProjMat(rep)
        D = cls.order()
        for mm in range(1, max_n // D + 1):
            n = D * mm
            if n > 2:
                got = generate_invariants(rep, mm)
                want = sorted(invariant_set(cls, n), key=lambda f: f.encode())
                rows.append(_row("generation", f"{label}-n{n}", got == want,
                                 f"{len(got)} generated, {len(want)} brute"))
    return rows


# ---------------------------------------------------------------------------
# noncyclic and p-group nonexistence

def _sample_noncyclic_subgroups(spec, rng, want: int):
    classes = [cls for cls in all_classes(spec) if not cls.is_identity()]
    small = [cls for cls in classes if cls.order() <= 4]
    found = []
    attempts = 0
    while len(found) < want and attempts < 5000:
        attempts += 1
        g1, g2 = rng.choice(small), rng.choice(small)
        if g1 == g2:
            continue
        group = subgroup_closure([g1, g2], limit=60)
        if group is not None and not is_cyclic(group):
            found.append(((g1, g2), group))
    return found


def suite_noncyclic(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    want = 20
    q = spec.order
    rows = []
    if q == 2:
        classes = all_classes(spec)
        subgroups = {subgroup_closure([a, b]) for a in classes for b in classes}
        noncyc = [g for g in subgroups if not is_cyclic(g)]
        ok = all(not common_invariants(spec, g, n)
                 for g in noncyc for n in range(3, 7))
        rows.append(_row("noncyclic", "exhaustive-subgroups", ok,
                         f"{len(noncyc)} noncyclic subgroups, degrees 3..6"))
        quads = list(common_invariants(spec, subgroup_closure(classes), 2))
        expected = [Poly.of(spec, 1, 1, 1)]
        rows.append(_row("noncyclic", "full-group-quadratics", quads == expected,
                         f"{[str(f) for f in quads]}"))
        return rows

    sampled = _sample_noncyclic_subgroups(spec, rng, want)
    distinct = len({g for _, g in sampled})
    ok = True
    for (g1, g2), _group in sampled:
        for n in range(3, 7):
            if common_invariants(spec, [g1, g2], n):
                ok = False
    rows.append(_row("noncyclic", "sampled-subgroups", ok and len(sampled) >= want,
                     f"{len(sampled)} sampled ({distinct} distinct), degrees 3..6"))
    return rows


def suite_pgroup(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    rows = []
    if spec.s == 1:
        rows.append(_row("pgroup", "vacuous", True,
                         "no subgroup of order p^2 exists when q = p"))
        return rows
    p, q = spec.p, spec.order

    def unipotent(a):
        return ProjMat(Mat2(spec.one, spec.zero, a, spec.one))

    prime = [spec.from_encoding(k) for k in range(p)]   # GF(p): encodings below p
    seen_spans = set()
    pairs = []
    attempts = 0
    while len(pairs) < 5 and attempts < 1000:
        attempts += 1
        a = spec.from_encoding(rng.randrange(1, q))
        b = spec.from_encoding(rng.randrange(1, q))
        if (b / a).n < p:                           # b lies in GF(p)*a
            continue
        pairs.append((a, b))
        seen_spans.add(frozenset((k * a + l * b).n for k in prime for l in prime))

    ok = True
    details = []
    for a, b in pairs:
        gens = [unipotent(a), unipotent(b)]
        group = subgroup_closure(gens)
        if len(group) != p * p:
            raise ContractError("two independent unipotents must generate p^2 classes")
        for n in range(2, 7):
            if common_invariants(spec, gens, n):
                ok = False
                details.append(f"degree {n} invariant under T({a.encode()}),T({b.encode()})")
    rows.append(_row("pgroup", "order-p2-no-invariants", ok,
                     "; ".join(details)
                     or f"{len(pairs)} generator pairs ({len(seen_spans)} spans), degrees 2..6"))
    return rows


# ---------------------------------------------------------------------------
# sigma product

def suite_sigma(spec: FieldSpec, seed: int = 12345):
    rng = random.Random(seed)
    samples = 500
    q = spec.order
    rows = []
    if q <= 3:
        # GL2(q): the nonzero scalar multiples of one matrix per class
        mats = [cls.rep.scale(t) for cls in all_classes(spec)
                for t in spec.elements() if t]
        det_pairs = [(A, B) for A in mats for B in mats]
    else:
        det_pairs = [(_random_matrix(spec, rng), _random_matrix(spec, rng))
                     for _ in range(samples)]
    det_ok = all(sigma_product(A, B).det == A.det * B.det * B.det
                 for A, B in det_pairs)
    rows.append(_row("sigma", "determinant-identity", det_ok,
                     f"{len(det_pairs)} pairs"))

    @functools.cache
    def divisible(A, A0, r):
        # over GF(2) the 500 samples repeat 90 possible triples
        return divides(act(A0, F_poly(A, r)), F_poly(sigma_product(A, A0), r))

    div_ok = True
    done = 0
    while done < samples:
        A = _random_matrix(spec, rng)
        if A.is_scalar():
            continue
        A0 = _random_matrix(spec, rng)
        r = rng.randrange(0, 3)
        if not divisible(A, A0, r):
            div_ok = False
        done += 1
    rows.append(_row("sigma", "criterion-divisibility", div_ok,
                     f"{samples} triples, r <= 2"))
    return rows


SUITES = {
    "action-laws": suite_action_laws,
    "criterion": suite_criterion,
    "conjugation": suite_conjugation,
    "counting": suite_counting,
    "generation": suite_generation,
    "qmap-fixed-point": suite_qmap_fixed_point,
    "noncyclic": suite_noncyclic,
    "pgroup": suite_pgroup,
    "sigma": suite_sigma,
}
