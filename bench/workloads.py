"""The benchmark's workloads: seeded request lists and per-request checks.

A workload is a fixed list of strata (request kind, field, class type and
order, degree, suite).  Its request list holds the requests of every
stratum, in one shuffled order that is the same for every seed, so that a
slow spell of the machine falls on a mix of strata rather than on one
field's.  The seed chooses only the random parts: the conjugator and scalar
that hide each reduced class, and the seed given to `verify`.  The program
receives only argv.  Checks use `gf` alone, never the program.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import gf

# Order of the strata within a pass, the same for every workload seed.
_ORDER_SEED = 20170101
HIDE_DRAWS = 64


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str], Optional[str]]   # (exit code, stdout) -> problem or None


@dataclass(frozen=True)
class Workload:
    name: str
    strata: Callable[[], list]     # [(request maker, (p, s), *parameters)]

    @property
    def fields(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted({stratum[1] for stratum in self.strata()}))

    def requests(self, seed: int) -> list[Request]:
        """The request list for workload seed `seed`."""
        rng = random.Random(f"{self.name}/{seed}")
        strata = list(self.strata())
        random.Random(_ORDER_SEED).shuffle(strata)
        out = []
        for make, field, *params in strata:
            out.extend(make(rng, _field(*field), *params))
        return out


@functools.cache
def _field(p: int, s: int) -> gf.GF:
    return gf.GF(p, s)


def _hidden_class(F: gf.GF, reduced, rng: random.Random):
    """t * P * R * P^-1 for a random invertible P and nonzero t: of
    HIDE_DRAWS such conjugates, the first with the fewest zero entries.  A
    zero entry makes the Moebius substitution's linear factors shorter, so
    without this a request's cost would depend on the seed, not on its
    stratum; most conjugates over a large field have no zero entry anyway."""
    q = F.q
    best = None
    for _ in range(HIDE_DRAWS):
        while True:
            P = tuple(rng.randrange(q) for _ in range(4))
            if gf.det(F, P):
                break
        t = rng.randrange(1, q)
        M = gf.scale(F, gf.mat_mul(F, gf.mat_mul(F, P, reduced), gf.adjugate(F, P)), t)
        if best is None or M.count(0) < best.count(0):
            best = M
    return best


def _field_args(F: gf.GF, matrix) -> list[str]:
    return ["--p", str(F.p), "--s", str(F.s), "--matrix", ",".join(map(str, matrix))]


def _load(rc: int, out: str):
    if rc != 0:
        raise _Bad(f"exit code {rc}")
    try:
        return json.loads(out)
    except ValueError:
        raise _Bad("stdout is not one JSON document") from None


class _Bad(Exception):
    pass


def _checked(fn):
    """Turn a check that raises into one that returns the problem; output
    missing a key or holding a value of the wrong kind is a problem too."""
    def check(rc, out):
        try:
            fn(rc, out)
        except _Bad as exc:
            return str(exc)
        except (LookupError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"
        return None
    return check


def _expect(cond: bool, what: str):
    if not cond:
        raise _Bad(what)


def _expect_header(doc, F: gf.GF, matrix):
    _expect(doc.get("field") == F.describe(), f"field {doc.get('field')!r}")
    _expect(doc.get("matrix") == list(matrix), "matrix echo differs from input")


def _expect_encodings(F: gf.GF, values, what: str):
    _expect(all(type(v) is int and 0 <= v < F.q for v in values),
            f"{what} holds a value outside [0, {F.q})")


def _check_reduced(F: gf.GF, kind: int, D: int, reduced, param):
    _expect_encodings(F, reduced + ([] if kind == 2 else [param]), "reduced form")
    if kind == 1:
        _expect(reduced == [param, 0, 0, 1] and F.mult_order(param) == D,
                "type-1 reduced form")
    elif kind == 2:
        _expect(reduced == [1, 0, 1, 1], "type-2 reduced form")
    elif kind == 3:
        _expect(reduced == [0, 1, param, 0] and not F.is_square(param),
                "type-3 reduced form")
    else:
        _expect(reduced == [0, 1, param, 1]
                and not F.has_root([F.neg[param], F.neg[1], 1])
                and gf.proj_order(F, tuple(reduced)) == D, "type-4 reduced form")


# ---------------------------------------------------------------------------
# class-queries: classify then qmap on hidden classes

CLASS_FIELDS = ((31, 1), (7, 2), (3, 3), (53, 1), (101, 1))
# Classes of order up to 26 only: a qmap's cost grows with the order, and
# this keeps one pass near six seconds, so a run holds several passes.
CLASS_MAX_ORDER = 26


@functools.cache
def _class_strata():
    return [(_class_requests, (p, s), kind, D, R)
            for p, s in CLASS_FIELDS
            for kind, D, R in gf.type_representatives(_field(p, s))
            if D <= CLASS_MAX_ORDER] + _suite_strata()


def _class_requests(rng, F, kind, D, R):
    M = _hidden_class(F, R, rng)

    @_checked
    def check_classify(rc, out):
        doc = _load(rc, out)
        _expect_header(doc, F, M)
        _expect(doc["type"] == kind and doc["order"] == D,
                f"type/order {doc['type']}/{doc['order']}, want {kind}/{D}")
        _check_reduced(F, kind, D, doc["reduced"], doc["param"])
        P = tuple(doc["conjugator"])
        _expect_encodings(F, P, "conjugator")
        _expect(len(P) == 4 and gf.det(F, P) != 0, "singular conjugator")
        back = gf.mat_mul(F, gf.mat_mul(F, P, tuple(doc["reduced"])), gf.adjugate(F, P))
        _expect(gf.proportional(F, back, M), "conjugator does not reproduce the class")

    @_checked
    def check_qmap(rc, out):
        doc = _load(rc, out)
        _expect_header(doc, F, M)
        _expect(doc["fixed_point_verified"] is True, "fixed point not verified")
        _expect(doc["degree"] == D, f"degree {doc['degree']}, order {D}")

    args = _field_args(F, M)
    return [Request(("classify", *args), check_classify),
            Request(("qmap", *args), check_qmap)]


# ---------------------------------------------------------------------------
# count-sweep: count every type representative at degrees 3..n_max(q)

# n = 5 over GF(5) and n = 4 over GF(7) are left out: with them one pass took
# ten seconds instead of three, too few passes for a steady run.
COUNT_MAX_DEGREE = {(2, 1): 8, (3, 1): 6, (2, 2): 5, (5, 1): 4, (7, 1): 3}


@functools.cache
def _count_strata():
    return [(_count_requests, (p, s), kind, D, R, n)
            for (p, s), n_max in COUNT_MAX_DEGREE.items()
            for n in range(3, n_max + 1)
            for kind, D, R in gf.type_representatives(_field(p, s))]


def _count_requests(rng, F, kind, D, R, n):
    M = _hidden_class(F, R, rng)
    method = "all" if n % D == 0 else "brute"

    @_checked
    def check(rc, out):
        doc = _load(rc, out)
        _expect_header(doc, F, M)
        _expect(doc["type"] == kind and doc["order"] == D and doc["n"] == n,
                "type/order/n echo")
        if method == "brute":
            _expect(doc["brute"] == 0, f"{doc['brute']} invariants off multiples of D")
            return
        want = gf.closed_count(kind, D, n // D, F.q)
        _expect(doc["agree"] is True, "the three counts disagree")
        _expect(doc["formula"] == want, f"count {doc['formula']}, closed form {want}")

    return [Request(("count", *_field_args(F, M), "--n", str(n), "--method", method),
                    check)]


# ---------------------------------------------------------------------------
# invariant-generation: invariants --m M --check

# Degrees stop below n = 8 over GF(4) and n = 6 over GF(7): those requests
# take 0.5-0.9 s each and are few enough that the tail percentile would
# fall on the gap between them and the rest.
GEN_MAX_DEGREE = {(2, 1): 12, (3, 1): 9, (2, 2): 6, (5, 1): 6, (7, 1): 5, (3, 2): 5}


@functools.cache
def _gen_strata():
    return [(_gen_requests, (p, s), kind, D, R, m)
            for (p, s), n_max in GEN_MAX_DEGREE.items()
            for kind, D, R in gf.type_representatives(_field(p, s))
            for m in range(1, n_max // D + 1) if D * m > 2]


def _gen_requests(rng, F, kind, D, R, m):
    M = _hidden_class(F, R, rng)
    want = gf.closed_count(kind, D, m, F.q)

    @_checked
    def check(rc, out):
        doc = _load(rc, out)
        _expect_header(doc, F, M)
        _expect(doc["checked"] is True, "an output is not invariant")
        _expect(doc["order"] == D and doc["degree"] == D * m, "order/degree echo")
        _expect(doc["count"] == want == len(doc["invariants"]),
                f"count {doc['count']}, closed form {want}")
        _expect(all(len(f["coeffs"]) == D * m + 1 and f["coeffs"][-1] == 1
                    for f in doc["invariants"]), "an output is not monic of degree D*m")

    return [Request(("invariants", *_field_args(F, M), "--m", str(m), "--check"), check)]


# ---------------------------------------------------------------------------
# the property suites, run inside class-queries

# Each suite once, on GF(2) (pgroup needs an extension field: GF(4)), where
# every suite is an exhaustive sweep of 10-400 ms whose cost does not depend
# on the seed.  On larger fields single suites take up to 30 s and vary
# threefold with the seed, too lumpy for a workload of their own.
SUITE_FIELDS = {
    "action-laws": (2, 1),
    "criterion": (2, 1),
    "conjugation": (2, 1),
    "qmap-fixed-point": (2, 1),
    "noncyclic": (2, 1),
    "pgroup": (2, 2),
    "sigma": (2, 1),
}


def _suite_strata():
    return [(_suite_requests, field, suite) for suite, field in SUITE_FIELDS.items()]


def _suite_requests(rng, F, suite):

    @_checked
    def check(rc, out):
        rows = _load(rc, out)
        _expect(isinstance(rows, list) and rows, "no rows")
        failed = [r["name"] for r in rows if r.get("passed") is not True]
        _expect(not failed, f"failed rows {failed}")
        _expect(all(r.get("suite") == suite for r in rows), "rows of another suite")

    return [Request(("verify", "--suite", suite, "--p", str(F.p), "--s", str(F.s),
                     "--seed", str(rng.randrange(1 << 30))), check)]


WORKLOADS = {w.name: w for w in (
    Workload("class-queries", _class_strata),
    Workload("count-sweep", _count_strata),
    Workload("invariant-generation", _gen_strata),
)}
