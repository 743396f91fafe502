import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import SRC, run_cli
from pgl2poly import cli
from pgl2poly.cli import build_parser, main


def test_classify_type4(F5):
    res = run_cli("classify", "--p", "5", "--s", "1", "--matrix", "0,1,4,1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["type"] == 4 and out["order"] == 3
    assert out["reduced"] == [0, 1, 4, 1] and out["param"] == 4

def test_classify_type2(F3):
    res = run_cli("classify", "--p", "3", "--s", "1", "--matrix", "0,1,2,1")
    out = json.loads(res.stdout)
    assert res.returncode == 0 and out["type"] == 2 and out["reduced"] == [1, 0, 1, 1]

def test_classify_identity_exits_zero():
    res = run_cli("classify", "--p", "2", "--s", "1", "--matrix", "1,0,0,1")
    assert res.returncode == 0
    assert json.loads(res.stdout)["type"] == "identity"

def test_classify_rejects_singular_matrix():
    res = run_cli("classify", "--p", "3", "--s", "1", "--matrix", "1,1,1,1")
    assert res.returncode == 2

def _run_under_optimize(patch, argv):
    # main(argv) in a python -O process, after the patch line
    code = ("import sys\n"
            "import pgl2poly.projective as projective\n"
            "import pgl2poly.rational as rational\n"
            "from pgl2poly.cli import main\n"
            f"{patch}\n"
            f"sys.exit(main({argv!r}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)

def _assert_internal_failure_under_optimize(patch, argv, message=""):
    # the internal check must still fire under python -O: exit 1, an error
    # line (naming the check when message is given), no traceback
    res = _run_under_optimize(patch, argv)
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: internal check failed: {message}".rstrip())
    assert "Traceback" not in res.stderr

def test_failed_internal_check_exits_one_under_optimize():
    # a square root that returns its input gives x^2 - x + 1 over GF(7) the
    # non-roots 2 and 6
    _assert_internal_failure_under_optimize(
        "projective.sqrt = lambda x: x",
        ["classify", "--p", "7", "--matrix", "0,1,6,1"])

def test_wrong_square_root_fails_the_root_check_under_optimize():
    # a square root off by one gives the type-3 class [[0,1],[3,0]] over GF(7)
    # a wrong eigenvalue in GF(49); no later check reads the eigenvalue, so
    # only the solver's own check keeps it from being printed
    _assert_internal_failure_under_optimize(
        "projective.sqrt = lambda x, root=projective.sqrt: "
        "root(x) and root(x) + x.spec.one",
        ["classify", "--p", "7", "--matrix", "0,1,3,0"])

def test_failed_map_check_exits_one_under_optimize():
    # a Moebius substitution that swaps num and den breaks the fixed-point
    # check inside q_map, the one substitution it makes
    _assert_internal_failure_under_optimize(
        "rational.substitute_mobius = lambda Q, m: rational.RationalMap("
        "Q.den, Q.num, Q.degree)",
        ["qmap", "--p", "5", "--matrix", "0,1,4,1"],
        "map must be fixed by its own Moebius substitution")

@pytest.mark.parametrize("pair", ["(num, num)", "(num, [])"])
def test_dependent_pair_fails_the_coprime_check_under_optimize(pair):
    # num is the side of degree D = 3 here: the pair num twice, or num over
    # a zero den, is a constant map that only the independence test refuses
    _assert_internal_failure_under_optimize(
        "rational._q_pair = lambda rf, D, _q_pair=rational._q_pair: "
        f"(lambda num, den: {pair})(*_q_pair(rf, D))",
        ["qmap", "--p", "5", "--matrix", "0,1,4,1"],
        "num and den must be coprime")

@pytest.mark.parametrize("side,argv", [
    ("num", ["qmap", "--p", "7", "--matrix", "0,1,6,1"]),     # den of degree D
    ("den", ["qmap", "--p", "5", "--matrix", "0,1,4,1"]),     # num of degree D
])
def test_one_scaled_side_fails_the_map_check_under_optimize(side, argv):
    # a Moebius substitution that scales one side by 2 leaves a pair that is
    # not lam * (num, den); lam is read off the other side, so only the
    # comparison of the scaled side sees it
    _assert_internal_failure_under_optimize(
        "rational.substitute_mobius = lambda Q, m, sub=rational.substitute_mobius: "
        f"(lambda s: s._replace({side}=s.{side}.scale(m.spec.from_encoding(2))))"
        "(sub(Q, m))",
        argv, "map must be fixed by its own Moebius substitution")

def test_failed_order_check_exits_one_under_optimize():
    # with no admissible divisors the order 4 of diag(2, 1) over GF(5) is
    # rejected by the Lucas walk, projective._lucas_walk
    _assert_internal_failure_under_optimize(
        "projective.divisors = lambda n: [1]",
        ["classify", "--p", "5", "--matrix", "2,0,0,1"])

def test_failed_conjugator_check_exits_one_under_optimize():
    # with a root outside GF(5), diag(2, 1) is taken for type 4; its scaled
    # form has a zero lower-left entry, so no conjugator of the closed form
    # exists and the helper must refuse rather than divide by zero
    _assert_internal_failure_under_optimize(
        "projective._quadratic_roots = "
        "lambda c0, c1: [projective.make_ext(c0.spec).omega]",
        ["classify", "--p", "5", "--matrix", "2,0,0,1"])

def test_failed_conjugation_check_exits_one_under_optimize():
    # with the identity for a conjugator, the type-3 class [[1,2],[2,6]] over
    # GF(7) is not taken to its reduced form; only reduce's final check sees it
    _assert_internal_failure_under_optimize(
        "projective._min_encoding_conjugator = "
        "lambda scaled, target: projective.Mat2.identity(scaled.spec)",
        ["classify", "--p", "7", "--matrix", "1,2,2,6"],
        "conjugation identity failed")

def test_vector_outside_the_kernel_exits_one_under_optimize():
    # a nullspace that appends the constant 1 (logs [0, -1, ..., -1]) to the
    # true basis: the swap [[0,1],[1,0]] maps 1 to x^3, not to a multiple of
    # 1, so the kernel check of the eigenspace search must fire
    _assert_internal_failure_under_optimize(
        "import pgl2poly.linalg as linalg\n"
        "linalg.nullspace = lambda spec, rows, _kernel=linalg.nullspace: "
        "_kernel(spec, rows) + [[0] + [-1] * (len(rows[0]) - 1)]",
        ["count", "--p", "2", "--matrix", "0,1,1,0", "--n", "3",
         "--method", "brute"])

def test_check_reports_a_reducible_output_under_optimize():
    # a criterion that passes every F makes generation return all 40
    # transforms of the irreducible cubics, half of them reducible; --check
    # must report them as not invariant (exit 1, "checked": false), not
    # refuse them as invalid input (exit 2)
    res = _run_under_optimize(
        "rational._criterion = lambda rf, D, mdeg: lambda F: True",
        ["invariants", "--p", "5", "--matrix", "2,0,0,1", "--m", "3", "--check"])
    assert res.returncode == 1 and res.stderr == ""
    out = json.loads(res.stdout)
    assert out["checked"] is False and out["count"] == 40

def test_src_has_no_assert():
    # the checks above hold under python -O only because every internal
    # check raises ContractError; an assert would vanish there
    pkg = os.path.join(SRC, "pgl2poly")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []

def test_cli_import_skips_typing_dataclasses_and_inspect():
    # start-up cost is mostly import; these three cost about 18 ms and the
    # program needs none of them (-S keeps site from importing typing)
    code = ("import sys\n"
            "import pgl2poly.cli\n"
            "print(sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"

def test_cli_import_skips_fractions_and_decimal():
    # no module of the package imports fractions (which loads decimal); this
    # keeps a new import of either from slowing every CLI start
    code = ("import sys\n"
            "import pgl2poly.cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"

# Requests that would enumerate all q^n monic polynomials of a degree n with
# q^n > 2^20, and the degree n: once a hang, or (the last) a MemoryError
ENUMERATION_PAST_THE_BOUND = [
    (("invariants", "--p", "2", "--matrix", "0,1,1,1", "--m", "24"), 24),
    (("count", "--p", "2", "--matrix", "1,0,0,1", "--n", "40", "--method", "brute"), 40),
    (("invariants", "--p", "2", "--matrix", "0,1,1,1", "--m", str(10**12)), 10**12),
]

# Closed-formula requests whose count can pass 4000 digits, and the field:
# once a count that json could not print (exit 2 from Python's own digit
# limit), a MemoryError traceback or a hang in q**t, and a run past 60 s
FORMULA_PAST_THE_BOUND = [
    (("count", "--p", "2", "--matrix", "0,1,1,1", "--n", "3000000",
      "--method", "formula"), "GF(2)"),
    (("count", "--p", "2", "--matrix", "0,1,1,1", "--n", "3000000000000",
      "--method", "formula"), "GF(2)"),
    (("count", "--p", "3", "--matrix", "0,1,1,1", "--n", "3000000000",
      "--method", "formula"), "GF(3)"),
]

# Every invalid request exits 2 with a one-line reason and no traceback.
# The field is checked first, then the matrix, then the command's own rules;
# the two cases with two faults each pin that order.
ERROR_PATHS = [
    (("classify", "--p", "4", "--matrix", "0,1,1"), "error: 4 is not prime"),
    (("count", "--p", "3", "--matrix", "0,1,1", "--n", "1"),
     "error: matrix must be four comma-separated encodings a,b,c,d"),
    (("classify", "--p", "2", "--s", "0", "--matrix", "0,1,1,0"),
     "error: extension degree must be >= 1, got 0"),
    (("classify", "--p", "2", "--s", "21", "--matrix", "0,1,1,0"),
     "error: GF(2^21) is too large: field tables need q <= 2^20"),
    (("classify", "--p", "3", "--matrix", "0,1,1"),
     "error: matrix must be four comma-separated encodings a,b,c,d"),
    (("classify", "--p", "3", "--matrix", "0,1,x,0"),
     "error: invalid literal for int() with base 10: 'x'"),
    (("classify", "--p", "3", "--matrix", "1,1,1,1"), "error: matrix is singular"),
    (("qmap", "--p", "3", "--matrix", "1,1,1,1"), "error: matrix is singular"),
    (("classify", "--p", "3", "--matrix", "0,1,3,0"),
     "error: encoding 3 out of range [0, 3)"),
    (("qmap", "--p", "3", "--matrix", "1,0,0,1"),
     "error: the identity class has no rational map"),
    (("invariants", "--p", "3", "--matrix", "1,0,0,1", "--m", "2"),
     "error: the identity class fixes every polynomial"),
    (("invariants", "--p", "2", "--matrix", "1,0,1,1", "--m", "1"),
     "error: generation requires D*m > 2"),
    (("invariants", "--p", "3", "--matrix", "0,1,1,0", "--m", "0"),
     "error: generation requires D*m > 2"),
    (("count", "--p", "3", "--matrix", "0,1,1,0", "--n", "1"),
     "error: counting starts at degree 2"),
    (("count", "--p", "2", "--matrix", "0,1,1,1", "--n", "2", "--method", "formula"),
     "error: the closed formula applies only for n > 2; use --method brute for quadratics"),
    (("count", "--p", "2", "--matrix", "1,0,0,1", "--n", "3", "--method", "criterion"),
     "error: criterion counting excludes the identity class"),
    (("verify", "--p", "4", "--suite", "sigma"), "error: 4 is not prime"),
] + [(argv, f"error: the enumeration of degree {n} over GF(2) is too large: "
             "it needs q^n <= 2^20") for argv, n in ENUMERATION_PAST_THE_BOUND
] + [(argv, f"error: the count of degree {argv[6]} over {field} is too large: "
             "it can have more than 4000 digits")
     for argv, field in FORMULA_PAST_THE_BOUND]

@pytest.mark.parametrize("argv,last_line", ERROR_PATHS,
                         ids=[" ".join(argv) for argv, _ in ERROR_PATHS])
def test_invalid_request_exits_two_with_one_reason(argv, last_line):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == last_line
    assert "Traceback" not in res.stderr

def test_criterion_count_past_the_table_bound_exits_two(capsys):
    # r = n/D = 30 asks for F_poly's dense monomial of degree 2^30, once a
    # MemoryError traceback; the request is refused before anything is built
    start = time.perf_counter()
    rc = main(["count", "--p", "2", "--matrix", "0,1,1,0", "--n", "60",
               "--method", "criterion"])
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.splitlines() == ["error: the criterion polynomial for r = 30 over "
                                    "GF(2) is too large: it needs q^r <= 2^20"]

@pytest.mark.parametrize("argv,n", ENUMERATION_PAST_THE_BOUND,
                         ids=[str(n) for _, n in ENUMERATION_PAST_THE_BOUND])
def test_enumeration_past_the_bound_is_refused_at_once(capsys, argv, n):
    # refused before any polynomial is built, and for a huge n before q^n is
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(f"error: the enumeration of degree {n} ")

@pytest.mark.parametrize("argv", [argv for argv, _ in FORMULA_PAST_THE_BOUND],
                         ids=[argv[6] for argv, _ in FORMULA_PAST_THE_BOUND])
def test_formula_past_the_bound_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("error: the count of degree ")

def test_formula_bound_boundary(capsys):
    # [[0,1],[1,1]] over GF(2) has order 3; the count is below 2^(1 + n/3), so
    # n/3 = 13286 is the last admitted: it prints its count, about 2^13286
    # over 20,000, and the next multiple of 3 is refused; off multiples of 3
    # the count stays 0
    def count(n):
        rc = main(["count", "--p", "2", "--matrix", "0,1,1,1", "--n", str(n),
                   "--method", "formula"])
        return rc, capsys.readouterr()
    rc, out = count(3 * 13286)
    assert rc == 0 and out.err == ""
    assert 3990 < len(str(json.loads(out.out)["formula"])) <= 4000
    assert count(3 * 13287)[0] == 2
    rc, out = count(3 * 13287 + 1)
    assert rc == 0 and json.loads(out.out)["formula"] == 0

def test_classify_rejects_bad_field():
    res = run_cli("classify", "--p", "6", "--s", "1", "--matrix", "0,1,1,0")
    assert res.returncode == 2

def test_field_above_the_table_limit_exits_two():
    res = run_cli("classify", "--p", "2", "--s", "21", "--matrix", "0,1,1,0")
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_qmap_q3():
    res = run_cli("qmap", "--p", "3", "--s", "1", "--matrix", "0,1,2,1")
    out = json.loads(res.stdout)
    assert res.returncode == 0
    assert out["num"]["coeffs"] == [0, 1, 1]
    assert out["den"]["coeffs"] == [2, 0, 0, 1]
    assert out["fixed_point_verified"] is True

def test_qmap_q5():
    res = run_cli("qmap", "--p", "5", "--s", "1", "--matrix", "0,1,4,1")
    out = json.loads(res.stdout)
    assert out["num"]["coeffs"] == [4, 0, 3, 1]
    assert out["den"]["coeffs"] == [0, 3, 3]

def test_qmap_q2():
    res = run_cli("qmap", "--p", "2", "--s", "1", "--matrix", "0,1,1,1")
    out = json.loads(res.stdout)
    assert out["num"]["text"] == "x^3+x^2+1" and out["den"]["text"] == "x^2+x"

def test_qmap_identity_exits_two():
    res = run_cli("qmap", "--p", "2", "--s", "1", "--matrix", "1,0,0,1")
    assert res.returncode == 2


def test_invariants_cubics_with_check():
    res = run_cli("invariants", "--p", "2", "--s", "1", "--matrix", "0,1,1,1",
                  "--m", "1", "--check")
    out = json.loads(res.stdout)
    assert res.returncode == 0 and out["checked"] is True
    assert [f["text"] for f in out["invariants"]] == ["x^3+x+1", "x^3+x^2+1"]

def test_invariants_empty_list_exits_zero():
    res = run_cli("invariants", "--p", "2", "--s", "1", "--matrix", "0,1,1,1",
                  "--m", "2")
    out = json.loads(res.stdout)
    assert res.returncode == 0 and out["count"] == 0 and out["invariants"] == []

def test_invariants_empty_list_prints_the_none_row_in_tsv():
    res = run_cli("invariants", "--p", "2", "--matrix", "0,1,1,1", "--m", "2",
                  "--format", "tsv")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["degree\tinvariant", "6\t(none)"]

def test_invariants_small_degree_exits_two():
    res = run_cli("invariants", "--p", "2", "--s", "1", "--matrix", "1,0,1,1",
                  "--m", "1")
    assert res.returncode == 2


def test_count_all_methods_agree():
    res = run_cli("count", "--p", "3", "--s", "1", "--matrix", "0,1,2,0",
                  "--n", "4", "--method", "all")
    out = json.loads(res.stdout)
    assert res.returncode == 0
    assert out["formula"] == out["brute"] == out["criterion"] == 2
    assert out["agree"] is True

def test_count_brute_off_multiple():
    res = run_cli("count", "--p", "2", "--s", "1", "--matrix", "0,1,1,1",
                  "--n", "5", "--method", "brute")
    assert res.returncode == 0 and json.loads(res.stdout)["brute"] == 0

def test_count_formula_quadratic_domain_error():
    res = run_cli("count", "--p", "2", "--s", "1", "--matrix", "0,1,1,1",
                  "--n", "2", "--method", "formula")
    assert res.returncode == 2
    assert "n > 2" in res.stderr


def test_verify_counting_suite_passes():
    res = run_cli("verify", "--suite", "counting", "--p", "2", "--s", "1")
    assert res.returncode == 0

def test_verify_action_laws_exhaustive_q2():
    res = run_cli("verify", "--suite", "action-laws", "--p", "2", "--s", "1",
                  "--format", "tsv")
    assert res.returncode == 0
    assert "FAIL" not in res.stdout

def test_verify_noncyclic_seeded():
    res = run_cli("verify", "--suite", "noncyclic", "--p", "3", "--s", "1",
                  "--seed", "7")
    assert res.returncode == 0

def test_verify_output_is_deterministic():
    args = ("verify", "--suite", "sigma", "--p", "3", "--s", "1", "--seed", "42")
    assert run_cli(*args).stdout == run_cli(*args).stdout

def test_json_output_round_trips():
    res = run_cli("verify", "--suite", "qmap-fixed-point", "--p", "3", "--s", "1")
    rows = json.loads(res.stdout)
    assert all(set(r) == {"suite", "name", "passed", "detail"} for r in rows)

def test_tsv_has_fixed_header():
    res = run_cli("count", "--p", "3", "--s", "1", "--matrix", "0,1,2,0",
                  "--n", "4", "--method", "all", "--format", "tsv")
    header = res.stdout.splitlines()[0].split("\t")
    assert header[0] == "field" and "formula" in header


# ---------------------------------------------------------------------------
# one parse: main hands the arguments after a command's name to that
# command's parser, and takes the full parse for anything else; every usage,
# help and error text still comes from the same argparse objects

def _outcome(call):
    # (exit code, stdout, stderr) of call(), a SystemExit read as its code
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()

MATRIX = ("--matrix", "0,1,1,0")
MALFORMED_ARGV = [
    (), ("-h",), ("--help",), ("frobnicate",), ("class", "--p", "3", *MATRIX),
    ("classify", "-h"), ("verify", "--help"), ("-x", "classify"),
    ("classify", "--p", "3"), ("verify", "--p", "3"),
    ("classify", "--p", "x", *MATRIX), ("count", "--p", "3", *MATRIX, "--n", "two"),
    ("classify", "--p", "3", *MATRIX, "--format", "xml"),
    ("verify", "--p", "3", "--suite", "nope"),
    ("classify", "--p", "3", *MATRIX, "extra"), ("classify", "--p", "3", *MATRIX, "--bogus"),
    ("classify", "--p", "3", *MATRIX, "--"), ("classify", "--", "--p", "3", *MATRIX),
    ("--", "classify", "--p", "3", *MATRIX),
    ("classify", "--p=3"), ("classify", "--p=x", *MATRIX),
    ("classify", "--mat", "0,1,1,0"), ("classify", "--p", "3", "--mat"),
    ("classify", "--p", "3", "--p", "5"), ("classify", "--p", "3", "--p"),
]

@pytest.mark.parametrize("argv", MALFORMED_ARGV,
                         ids=[" ".join(argv) or "(none)" for argv in MALFORMED_ARGV])
def test_malformed_argv_reads_as_the_full_parse(argv):
    want = _outcome(lambda: build_parser().parse_args(list(argv)))
    assert want[0] in (0, 2)                # help, or a usage error
    assert _outcome(lambda: main(list(argv))) == want

@pytest.mark.parametrize("variant,canonical", [
    (("classify", "--p=5", "--matrix=0,1,4,1"), ("classify", "--p", "5", "--matrix", "0,1,4,1")),
    (("classify", "--p", "5", "--mat", "0,1,4,1"), ("classify", "--p", "5", "--matrix", "0,1,4,1")),
    (("classify", "--p", "7", "--p", "5", "--matrix", "0,1,4,1"),
     ("classify", "--p", "5", "--matrix", "0,1,4,1")),
    (("count", "--p", "3", "--matrix", "0,1,2,0", "--n", "4", "--method", "brute",
      "--method", "all"), ("count", "--p", "3", "--matrix", "0,1,2,0", "--n", "4")),
])
def test_spellings_of_one_request_agree(variant, canonical):
    parse = build_parser().parse_args
    assert parse(list(variant)) == parse(list(canonical))
    assert _outcome(lambda: main(list(variant))) == _outcome(lambda: main(list(canonical)))

def test_golden_requests_skip_the_full_parse(monkeypatch):
    # each golden request names its command, so main parses it once, with
    # that command's parser; make_field, the first step after the parse,
    # ends the request
    with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json")) as fh:
        cases = json.load(fh)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed request took the full parse")

    class Parsed(Exception):
        pass

    def parsed(p, s):
        raise Parsed(p, s)
    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    monkeypatch.setattr(cli, "make_field", parsed)
    for case in cases:
        with pytest.raises(Parsed):
            main(case["argv"])
