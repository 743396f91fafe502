"""The verify suites: the cost of their sweeps, the random matrices they
draw, and the rule that the package holds no cache beyond a fixed few."""

import ast
import functools
import glob
import os
import random

import pytest

from pgl2poly import Mat2, action, cli, make_field, polynomials, verify


def _felt_random_matrix(spec, rng):
    # the reference draw: four Felts and the determinant test in the field
    q = spec.order
    while True:
        a, b, c, d = (spec.from_encoding(rng.randrange(q)) for _ in range(4))
        if a * d != b * c:
            return Mat2(a, b, c, d)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_random_matrix_matches_felt_reference(p, s):
    spec = make_field(p, s)
    fast, slow = random.Random(p * 10 + s), random.Random(p * 10 + s)
    for _ in range(2000):
        assert verify._random_matrix(spec, fast) == _felt_random_matrix(spec, slow)
    assert fast.getstate() == slow.getstate()


def _count_act(monkeypatch):
    calls, act = [], action.act
    for module in (action, verify):
        monkeypatch.setattr(module, "act", lambda *args: calls.append(args) or act(*args))
    return calls


def test_action_laws_act_once_per_distinct_pair(monkeypatch, F2):
    # 6 classes times the 12 irreducibles of degree 2..5 give 72 images, and
    # multiplicativity acts 3 times on each of its 200 random cases; checking
    # each of the 432 triples on its own made 2,760 calls
    calls = _count_act(monkeypatch)
    rows = verify.suite_action_laws(F2, seed=7)
    assert all(r.passed for r in rows)
    assert [r.detail for r in rows[:4]] == ["432 cases"] * 4
    assert len(calls) <= 72 + 600


@pytest.mark.parametrize("suite", ["action-laws", "criterion"])
def test_sampled_suites_refuse_before_any_draw(monkeypatch, capsys, suite):
    # over GF(37) the degree-4 enumeration is past the bound (37^4 > 2^20):
    # the suite exits 2 before it enumerates degrees 2 and 3 for its draws.
    # The enumeration gets a fresh cache, so an earlier test's scan of
    # GF(37) cannot hide one here
    calls, is_irreducible = [], polynomials.is_irreducible
    monkeypatch.setattr(polynomials, "is_irreducible",
                        lambda f: calls.append(f) or is_irreducible(f))
    monkeypatch.setattr(verify, "enumerate_monic_irreducibles", functools.cache(
        polynomials.enumerate_monic_irreducibles.__wrapped__))
    assert cli.main(["verify", "--suite", suite, "--p", "37"]) == 2
    assert capsys.readouterr().err == (
        "error: the enumeration of degree 4 over GF(37) is too large: it needs "
        "q^n <= 2^20\n")
    assert not calls


@pytest.mark.parametrize("seed", [7, 12345])
def test_sigma_acts_once_per_distinct_triple(monkeypatch, F2, seed):
    # over GF(2) there are 5 non-scalar A, 6 A0 and 3 r, so at most 90 of
    # the 500 sampled triples are distinct; the parent acted 500 times
    calls = _count_act(monkeypatch)
    rows = verify.suite_sigma(F2, seed=seed)
    assert all(r.passed for r in rows)
    assert rows[-1].detail == "500 triples, r <= 2"
    assert len(calls) <= 5 * 6 * 3


# ---------------------------------------------------------------------------
# GL2(q) and the spans of the p-group suite, against the constructions the
# suites used before they took them from the lower layers

def _four_loop_gl2(spec):
    els = list(spec.elements())
    return [Mat2(a, b, c, d) for a in els for b in els for c in els for d in els
            if a * d != b * c]


@pytest.mark.parametrize("p", [2, 3])
def test_sigma_sweeps_each_gl2_matrix_once(monkeypatch, p):
    spec = make_field(p, 1)
    want = _four_loop_gl2(spec)
    calls, sigma = [], verify.sigma_product
    monkeypatch.setattr(verify, "sigma_product",
                        lambda A, B: calls.append((A, B)) or sigma(A, B))
    rows = verify.suite_sigma(spec, seed=7)
    n = len(want)
    mats = [A for A, _ in calls[:n * n:n]]
    assert len(set(mats)) == n and set(mats) == set(want)
    assert calls[:n * n] == [(A, B) for A in mats for B in mats]
    assert rows[0].passed and rows[0].detail == f"{n * n} pairs"


def _span_by_addition(spec, *gens):
    # {k*a + l*b : k, l in GF(p)}, one addition at a time
    span = {spec.zero}
    for g in gens:
        layer, cur = set(span), spec.zero
        for _ in range(spec.p - 1):
            cur = cur + g
            span |= {x + cur for x in layer}
    return span


PGROUP_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,s", PGROUP_FIELDS)
def test_span_test_matches_repeated_addition(p, s):
    # b lies in GF(p)*a exactly when b/a is a constant, an encoding below p
    spec = make_field(p, s)
    prime = [spec.from_encoding(k) for k in range(p)]
    units = [x for x in spec.elements() if x]
    for a in units:
        line = _span_by_addition(spec, a)
        for b in units:
            assert ((b / a).n < p) == (b in line)
            if b not in line:
                assert ({k * a + l * b for k in prime for l in prime}
                        == _span_by_addition(spec, a, b))


@pytest.mark.parametrize("p,s", PGROUP_FIELDS)
@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_pgroup_draws_the_pairs_of_repeated_addition(monkeypatch, p, s, seed):
    spec = make_field(p, s)
    q, rng = spec.order, random.Random(seed)
    want, spans = [], set()
    while len(want) < 5:
        a = spec.from_encoding(rng.randrange(1, q))
        line = _span_by_addition(spec, a)
        b = spec.from_encoding(rng.randrange(1, q))
        if b not in line:
            want.append((a, b))
            spans.add(frozenset(_span_by_addition(spec, a, b)))
    got, closure = [], verify.subgroup_closure
    monkeypatch.setattr(verify, "subgroup_closure",
                        lambda gens: got.append(tuple(g.rep.c for g in gens))
                        or closure(gens))
    [row] = verify.suite_pgroup(spec, seed=seed)
    assert got == want
    assert row.passed and f"({len(spans)} spans)" in row.detail


def _full_closure_samples(spec, rng, want):
    # the reference sampler: every closure built in full, then kept when it
    # has at most 60 classes and is not cyclic
    classes = [cls for cls in verify.all_classes(spec) if not cls.is_identity()]
    small = [cls for cls in classes if cls.order() <= 4]
    found, attempts = [], 0
    while len(found) < want and attempts < 5000:
        attempts += 1
        g1, g2 = rng.choice(small), rng.choice(small)
        if g1 == g2:
            continue
        group = action.subgroup_closure([g1, g2])
        if len(group) <= 60 and not action.is_cyclic(group):
            found.append(((g1, g2), group))
    return found


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("seed", [1, 12345])
def test_noncyclic_samples_match_full_closures(monkeypatch, p, seed):
    # closures stopped past 60 classes give the same samples and rng draws;
    # PGL2(GF(5)) has 120 classes and PGL2(GF(7)) 336, so stops are taken
    spec = make_field(p, 1)
    capped, full = random.Random(seed), random.Random(seed)
    stopped, closure = [], action.subgroup_closure
    monkeypatch.setattr(verify, "subgroup_closure", lambda gens, limit=None:
                        closure(gens, limit) or stopped.append(gens))
    assert (verify._sample_noncyclic_subgroups(spec, capped, 20)
            == _full_closure_samples(spec, full, 20))
    assert capped.getstate() == full.getstate()
    assert stopped


@pytest.mark.parametrize("p,s", [(3, 1), (2, 2), (5, 1)])
def test_closure_with_a_limit_is_none_exactly_past_it(p, s):
    classes = [cls for cls in verify.all_classes(make_field(p, s)) if not cls.is_identity()]
    rng = random.Random(p)
    for _ in range(40):
        gens = rng.sample(classes, 2)
        full = action.subgroup_closure(gens)
        for limit in (1, len(full) - 1, len(full), 60):
            want = full if len(full) <= limit else None
            assert action.subgroup_closure(gens, limit) == want


# ---------------------------------------------------------------------------
# the cache rule: a process-wide cache keeps later bench passes warm, so only
# these may exist, and the bench empties the ones that hold results

ALLOWED_CACHES = {
    "fields.make_field", "fields.make_ext",
    "polynomials.is_irreducible", "polynomials.enumerate_monic_irreducibles",
    "action.invariant_set", "cli._parser",
}

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "pgl2poly")


def _is_cache(expr) -> bool:
    # functools.cache, lru_cache(...), and either called on a function
    while isinstance(expr, ast.Call):
        expr = expr.func
    name = expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)
    return name in {"cache", "lru_cache"}


def module_level_caches(src_dir: str) -> set[str]:
    """module.name for every cache made at import time: a decorated function
    or an assignment in a module body or a class body in it."""
    found = set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        bodies = [(module, tree.body)]
        while bodies:
            prefix, body = bodies.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    bodies.append((f"{prefix}.{node.name}", node.body))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if any(map(_is_cache, node.decorator_list)):
                        found.add(f"{prefix}.{node.name}")
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                    if _is_cache(node.value):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        found.update(f"{prefix}.{ast.unparse(t)}" for t in targets)
    return found


def test_no_module_level_cache_beyond_the_allowed_few():
    assert module_level_caches(SRC_DIR) == ALLOWED_CACHES


def test_cache_scan_sees_decorators_and_assignments(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=8)\n"
        "def b(): pass\n"
        "c = functools.cache(a)\n"
        "class K:\n"
        "    @functools.lru_cache\n"
        "    def d(self): pass\n"
        "def e():\n"
        "    local = functools.cache(a)\n")
    assert module_level_caches(str(tmp_path)) == {"mod.a", "mod.b", "mod.c", "mod.K.d"}


# ---------------------------------------------------------------------------
# the dead-code rule: every top-level function, public or private, and every
# method of a layer module has a caller in the package, except the three that
# only the acceptance suite imports.  Dunders are exempt: operator protocol

ACCEPTANCE_ONLY = {"counting.asymptotic_ratio", "counting.quadratic_factor_of_F",
                   "projective.power_closed_form"}


def unloaded_functions(src_dir: str) -> set[str]:
    """module.name for every top-level function, and module.Class.name for
    every non-dunder method, of a module other than __init__ whose name no
    such module loads, bare or as an attribute."""
    defined, loaded = {}, set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module == "__init__":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not (
                            m.name.startswith("__") and m.name.endswith("__")):
                        defined[f"{module}.{node.name}.{m.name}"] = m.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return {key for key, name in defined.items() if name not in loaded}


def test_every_public_function_has_a_caller_in_the_package():
    assert unloaded_functions(SRC_DIR) == ACCEPTANCE_ONLY


def test_caller_scan_sees_names_and_attributes(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import dead\ndead()\n")
    (tmp_path / "mod.py").write_text(
        "def named(): pass\n"
        "def attribute(): pass\n"
        "def dead(): pass\n"
        "def _private(): pass\n"
        "def _dead_private(): pass\n"
        "class K:\n"
        "    def __call__(self): pass\n"
        "    def method(self): pass\n"
        "    def _helper(self): return _private()\n"
        "    def dead_method(self): return self._helper()\n")
    (tmp_path / "user.py").write_text(
        "from . import mod\n"
        "from .mod import named\n"
        "TABLE = {'n': named}\n"
        "mod.attribute()\n"
        "mod.K().method()\n")
    assert unloaded_functions(str(tmp_path)) == {"mod.dead", "mod._dead_private",
                                                 "mod.K.dead_method"}


# ---------------------------------------------------------------------------
# the unused-import rule: a test module loads every name its top-level
# imports bind; with no lint step, this scan is what catches a stale import

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def unused_test_imports(tests_dir: str) -> set[str]:
    """module.name for every name a top-level import of a module in
    tests_dir binds (from __future__ aside) that the module never loads."""
    unused = set()
    for path in sorted(glob.glob(os.path.join(tests_dir, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name != "*" and name not in loaded:
                        unused.add(f"{module}.{name}")
    return unused


def test_no_test_module_imports_a_name_it_never_loads():
    assert unused_test_imports(TESTS_DIR) == set()


def test_import_scan_sees_unloaded_names(tmp_path):
    (tmp_path / "test_mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import random as rnd\n"
        "import sys\n"
        "from math import gcd, lcm as least\n"
        "from itertools import *\n"
        "def f():\n"
        "    import json\n"
        "    return os.path.sep, gcd(4, 6), least\n")
    assert unused_test_imports(str(tmp_path)) == {"test_mod.rnd", "test_mod.sys"}


# ---------------------------------------------------------------------------
# the import rule: a layer module imports the package's modules at its top,
# never inside a function, so the import order of the layers is read off the
# module heads; a stdlib import kept out of start-up stays allowed


def function_level_package_imports(src_dir: str) -> set[str]:
    """module.name for every function or method of a module in src_dir whose
    body, nested functions included, imports a module of the package: a
    relative import, or an import of pgl2poly or one of its modules."""
    found = set()
    for path in sorted(glob.glob(os.path.join(src_dir, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom):
                    names = ["pgl2poly" if inner.level else inner.module]
                elif isinstance(inner, ast.Import):
                    names = [alias.name for alias in inner.names]
                else:
                    continue
                if any(name.partition(".")[0] == "pgl2poly" for name in names):
                    found.add(f"{module}.{node.name}")
    return found


def test_no_function_imports_a_package_module():
    assert function_level_package_imports(SRC_DIR) == set()


def test_function_import_scan_sees_relative_and_absolute_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from fractions import Fraction\n"
        "from .other import top\n"
        "import pgl2poly.fields\n"
        "def stdlib():\n"
        "    from fractions import Fraction\n"
        "    import json, os.path\n"
        "def relative():\n"
        "    from .other import thing\n"
        "def package():\n"
        "    from . import other\n"
        "def absolute():\n"
        "    import json, pgl2poly.fields\n"
        "def absolute_from():\n"
        "    from pgl2poly.fields import make_field\n"
        "def lookalike():\n"
        "    import pgl2polyx\n"
        "class K:\n"
        "    def method(self):\n"
        "        if self:\n"
        "            from pgl2poly import fields\n")
    assert function_level_package_imports(str(tmp_path)) == {
        "mod.relative", "mod.package", "mod.absolute", "mod.absolute_from",
        "mod.method"}
