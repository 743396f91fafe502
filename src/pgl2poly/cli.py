"""Command-line surface: classify, qmap, invariants, count, verify.

Matrices and field elements travel as integer encodings (base-p digits,
constant coordinate least significant); polynomials are printed both as
text and as coefficient-encoding lists.  Exit codes: 0 success, 1 property
or agreement failure or a failed internal check, 2 usage or validation
error.

Every request takes one path through main.  When the first argument names
a command, that command's parser reads the rest, as the full parse would
hand it over; with no command, an unknown one, a top-level option or
arguments left over, the full parse runs, so every usage, help and error
text comes from the same argparse objects.  main then validates in a fixed
order: the field, then --matrix (for all but verify), which starts the
payload with its "field" and "matrix" keys, then the command's own rules.
Each cmd_* appends only its own keys, in the order of the TSV columns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .fields import make_field
from .polynomials import to_text
from .projective import ContractError, Mat2, ProjMat, classify, reduce
from .action import is_invariant
from .rational import generate_invariants, q_map
from .counting import (count_invariants_bruteforce, count_invariants_formula,
                       count_via_criterion)
from .verify import SUITES

DEFAULT_SEED = 12345


def _poly_payload(f):
    return {"text": to_text(f), "coeffs": list(f.coeffs)}


def _matrix_payload(m):
    return [x.encode() for x in m.entries()]


def _parse_matrix(spec, text: str) -> Mat2:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("matrix must be four comma-separated encodings a,b,c,d")
    return Mat2.from_encodings(spec, [int(x) for x in parts])


def _emit(payload: dict | list, fmt: str, tsv_rows=None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        rows = tsv_rows if tsv_rows is not None else [payload]
        cols = list(rows[0].keys())
        print("\t".join(cols))
        for row in rows:
            print("\t".join(str(row[c]) for c in cols))


def cmd_classify(args, m, payload) -> int:
    if m.is_scalar():
        payload.update(type="identity", order=1, reduced=None, conjugator=None,
                       param=None, eigenvalue=None)
    else:
        info, red, conj, eig = reduce(m)
        payload.update(
            type=info.kind,
            order=ProjMat(m).order(),
            reduced=_matrix_payload(red),
            conjugator=_matrix_payload(conj),
            param=info.param.encode() if info.param is not None else None,
            eigenvalue=[eig.u.encode(), eig.v.encode()],
        )
    _emit(payload, args.format)
    return 0


def cmd_qmap(args, m, payload) -> int:
    qc = q_map(m)                 # raises ContractError unless m fixes the map
    Q = qc.map
    payload.update(
        num=_poly_payload(Q.num),
        den=_poly_payload(Q.den),
        degree=Q.degree,
        type=qc.source.info.kind,
        conjugator=_matrix_payload(qc.source.conjugator),
        fixed_point_verified=True,
    )
    _emit(payload, args.format)
    return 0


def _checked_invariant(cls, f) -> bool:
    # is_invariant refuses, with ValueError, a polynomial outside the domain
    # of the class action (reducible, say): such an output is not invariant
    try:
        return is_invariant(cls, f)
    except ValueError:
        return False


def cmd_invariants(args, m, payload) -> int:
    cls = ProjMat(m)
    if cls.is_identity():
        raise ValueError("the identity class fixes every polynomial")
    polys = generate_invariants(m, args.m)      # refuses D*m <= 2
    D = cls.order()
    payload.update(
        order=D,
        degree=D * args.m,
        count=len(polys),
        invariants=[_poly_payload(f) for f in polys],
    )
    checked = True
    if args.check:
        checked = payload["checked"] = all(_checked_invariant(cls, f) for f in polys)
    texts = [f["text"] for f in payload["invariants"]] or ["(none)"]
    _emit(payload, args.format, [{"degree": D * args.m, "invariant": t} for t in texts])
    return 0 if checked else 1


def cmd_count(args, m, payload) -> int:
    cls = ProjMat(m)
    n = args.n
    if n < 2:
        raise ValueError("counting starts at degree 2")
    D = cls.order()
    # the count is below 2q^(n/D) <= 2^(1 + k*n/D), k the bit length of q - 1
    if not n % D and (m.spec.order - 1).bit_length() * (n // D) >= 13287:
        raise ValueError(f"the count of degree {n} over {m.spec!r} is too large: "
                         "it can have more than 4000 digits")     # 2^13287 < 10^4000
    kind = classify(m).kind
    counts: dict[str, int] = {}
    if args.method in ("formula", "all"):
        if n <= 2:
            raise ValueError("the closed formula applies only for n > 2; "
                             "use --method brute for quadratics")
        counts["formula"] = count_invariants_formula(m, n)
    if args.method in ("brute", "all"):
        counts["brute"] = count_invariants_bruteforce(cls, n)
    if args.method in ("criterion", "all"):
        if n % D:
            counts["criterion"] = 0
        else:
            counts["criterion"] = count_via_criterion(m, n // D)
    agree = len(set(counts.values())) == 1
    payload.update(
        type=kind or "identity",
        order=D,
        n=n,
        **counts,
    )
    if args.method == "all":
        payload["agree"] = agree
    _emit(payload, args.format)
    return 0 if args.method != "all" or agree else 1


def cmd_verify(args, spec) -> int:
    suite = SUITES[args.suite]
    rows = suite(spec, seed=args.seed)
    _emit([row._asdict() for row in rows], args.format,
          [row._replace(passed="pass" if row.passed else "FAIL")._asdict()
           for row in rows])
    return 0 if all(row.passed for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgl2poly",
        description="PGL2(F_q) acting on irreducible polynomials: "
                    "classification, rational maps, exact invariant counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=True):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--s", type=int, default=1, help="extension degree (default 1)")
        if matrix:
            p.add_argument("--matrix", required=True,
                           help="entries a,b,c,d as integer encodings")
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("classify", help="type, order and reduced form of a class")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("qmap", help="the degree-D rational map of a class")
    common(p)
    p.set_defaults(func=cmd_qmap)

    p = sub.add_parser("invariants", help="all invariants of degree D*m")
    common(p)
    p.add_argument("--m", type=int, required=True, help="transform degree m")
    p.add_argument("--check", action="store_true",
                   help="re-verify each output against the direct action")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("count", help="number of invariants of degree n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "brute", "criterion", "all"),
                   default="all")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run a property suite")
    common(p, matrix=False)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    parser.commands = sub.choices               # command name -> its parser
    return parser


_parser = functools.cache(build_parser)       # built on first use, then reused


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if sub is None or extra:
        args = parser.parse_args(argv)
    try:
        spec = make_field(args.p, args.s)
        if args.command == "verify":
            return cmd_verify(args, spec)
        m = _parse_matrix(spec, args.matrix)
        header = {"field": spec.describe(), "matrix": _matrix_payload(m)}
        return args.func(args, m, header)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
