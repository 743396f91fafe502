"""Per-layer tracing installed from outside the program.

Every public function defined in a layer module of `pgl2poly` gets a span
wrapper, installed on each binding of it: the defining module, every module
that imported it by name (`from .polynomials import divrem`), the package
namespace, and module-level dicts such as `verify.SUITES`.  A few class
attributes are patched too: `Poly.__mul__` and `ProjMat.order` get spans,
and the `Felt`/`ExtElt` operators get bare counters, so field arithmetic
time lands in the innermost spanned caller.  `numutil` is left alone; its
time counts in its callers.  `restore()` puts every original object back.

A span's self time is its duration minus the durations of the spans it
directly contains.  Spans nest on one stack: the program is single-threaded.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "pgl2poly"
LAYERS = ("cli", "fields", "polynomials", "projective", "linalg", "action",
          "rational", "counting", "verify")

# lru_cache-wrapped functions whose hit ratios are reported
CACHED = {"polynomials.is_irreducible": "polynomials.is_irreducible",
          "polynomials.enumerate_monic_irreducibles": "polynomials.enumerate",
          "action.invariant_set": "action.invariant_set"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.events = Counter()
        self._stack = []                  # [span name, child time]
        self._bindings = []               # (namespace, key, original)
        self._class_attrs = []            # (class, attribute, original)
        self._cache_start = {}

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                    if f"{layer}.{name}" in CACHED:
                        self._cache_start[f"{layer}.{name}"] = (obj, obj.cache_info())
        for module in self._modules():
            ns = vars(module)
            for table in [v for v in ns.values() if isinstance(v, dict)] + [ns]:
                for key, value in list(table.items()):
                    if id(value) in wrappers:
                        self._bindings.append((table, key, value))
                        table[key] = wrappers[id(value)]

        fields = sys.modules[f"{PACKAGE}.fields"]
        polys = sys.modules[f"{PACKAGE}.polynomials"]
        proj = sys.modules[f"{PACKAGE}.projective"]
        counted = [(fields.Felt, "__mul__", "fields.felt_mul"),
                   (fields.Felt, "__add__", "fields.felt_addsub"),
                   (fields.Felt, "__sub__", "fields.felt_addsub"),
                   (fields.Felt, "inverse", "fields.felt_inverse"),
                   (fields.ExtElt, "__mul__", "fields.ext_mul"),
                   (fields.ExtElt, "inverse", "fields.ext_inverse")]
        for cls, attr, key in counted:
            self._patch(cls, attr, self._counter(key, vars(cls)[attr]))
        self._patch(polys.Poly, "__mul__",
                    self._wrap("polynomials.poly_mul", vars(polys.Poly)["__mul__"]))
        self._patch(proj.ProjMat, "order",
                    self._wrap("projective.order", vars(proj.ProjMat)["order"]))

    def _patch(self, cls, attr, new):
        self._class_attrs.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, new)

    def restore(self) -> bool:
        """Put every original back; True when each binding is the original."""
        for ns, key, original in reversed(self._bindings):
            ns[key] = original
        for cls, attr, original in reversed(self._class_attrs):
            setattr(cls, attr, original)
        return (all(ns[key] is original for ns, key, original in self._bindings)
                and all(vars(cls)[attr] is original
                        for cls, attr, original in self._class_attrs))

    # -- wrappers ----------------------------------------------------------

    def _counter(self, key, fn):
        events = self.events

        def counted(*args):
            events[key] += 1
            return fn(*args)
        return counted

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # a span would close before the generator runs; count only
            calls = self.calls

            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return gen_wrapper

        calls, self_s, stack = self.calls, self.self_s, self._stack
        if name.startswith("verify.suite_"):
            observe = self._observe_verify_suite
        else:
            observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(result, stack[-1][0] if stack else None)
            return result
        return wrapper

    # -- observers: counts that need arguments, results or the caller ------

    def _observe_polynomials_is_irreducible(self, result, parent):
        self.events["is_irreducible.true"] += bool(result)

    def _observe_action_is_invariant(self, result, parent):
        if parent == "action.invariant_set":
            self.events["invariant_set.scanned"] += 1
            self.events["invariant_set.found"] += bool(result)

    def _observe_action_F_poly(self, result, parent):
        self.events["F_poly.degree_sum"] += result.degree

    def _observe_rational_transform(self, result, parent):
        if parent == "rational.generate_invariants":
            self.events["generate.transforms"] += 1

    def _observe_rational_generate_invariants(self, result, parent):
        self.events["generate.found"] += len(result)

    def _observe_polynomials_divides(self, result, parent):
        if parent == "counting.count_factors_of_degree":
            self.events["criterion.trials"] += 1
            self.events["criterion.hits"] += bool(result)

    def _observe_verify_suite(self, result, parent):
        self.events["verify.rows"] += len(result)

    # -- results -----------------------------------------------------------

    def cache_deltas(self) -> dict:
        out = {}
        for qualified, metric in CACHED.items():
            fn, then = self._cache_start[qualified]
            now = fn.cache_info()
            out[metric] = (now.hits - then.hits, now.misses - then.misses)
        return out

    def metrics(self, caches: dict) -> dict:
        """Per-layer metric values, keyed by the names in BENCHMARK.json."""
        c, s, e = self.calls, self.self_s, self.events

        def layer_self(layer):
            return sum((v for k, v in s.items() if k.startswith(layer + ".")), 0.0)

        def ratio(name, hits, base):
            out[name] = hits / base if base else 0.0
            out[name + ".base"] = base

        out = {
            "cli.main.calls": c["cli.main"],
            "cli.self_s": layer_self("cli"),
            "fields.felt_mul.calls": e["fields.felt_mul"],
            "fields.felt_addsub.calls": e["fields.felt_addsub"],
            "fields.felt_inverse.calls": e["fields.felt_inverse"],
            "fields.ext_mul.calls": e["fields.ext_mul"],
            "fields.ext_inverse.calls": e["fields.ext_inverse"],
        }
        for metric, fn in (("poly_mul", "poly_mul"), ("divrem", "divrem"),
                           ("pow_mod", "pow_mod"), ("is_irreducible", "is_irreducible"),
                           ("enumerate", "enumerate_monic_irreducibles")):
            out[f"polynomials.{metric}.calls"] = c[f"polynomials.{fn}"]
            out[f"polynomials.{metric}.self_s"] = s[f"polynomials.{fn}"]
        out["polynomials.gcd.calls"] = c["polynomials.gcd"]
        hits, misses = caches["polynomials.is_irreducible"]
        ratio("polynomials.is_irreducible.cache_hit_ratio", hits, hits + misses)
        ratio("polynomials.is_irreducible.true_ratio", e["is_irreducible.true"],
              c["polynomials.is_irreducible"])
        hits, misses = caches["polynomials.enumerate"]
        ratio("polynomials.enumerate.cache_hit_ratio", hits, hits + misses)

        for name in ("classify", "reduce", "order"):
            out[f"projective.{name}.calls"] = c[f"projective.{name}"]
            out[f"projective.{name}.self_s"] = s[f"projective.{name}"]
        out["projective.all_classes.self_s"] = s["projective.all_classes"]

        out["linalg.nullspace.calls"] = c["linalg.nullspace"]
        out["linalg.solve.calls"] = c["linalg.solve"]
        out["linalg.self_s"] = layer_self("linalg")

        out["action.act.calls"] = c["action.act"]
        out["action.act.self_s"] = s["action.act"]
        out["action.is_invariant.calls"] = c["action.is_invariant"]
        hits, misses = caches["action.invariant_set"]
        ratio("action.invariant_set.cache_hit_ratio", hits, hits + misses)
        ratio("action.invariant_yield", e["invariant_set.found"],
              e["invariant_set.scanned"])
        out["action.F_poly.calls"] = c["action.F_poly"]
        out["action.F_poly.degree_sum"] = e["F_poly.degree_sum"]
        out["action.subgroup_closure.self_s"] = s["action.subgroup_closure"]

        out["rational.q_map.calls"] = c["rational.q_map"]
        out["rational.q_map.self_s"] = s["rational.q_map"]
        out["rational.substitute_mobius.self_s"] = s["rational.substitute_mobius"]
        out["rational.transform.calls"] = c["rational.transform"]
        out["rational.transform.self_s"] = s["rational.transform"]
        out["rational.generate.self_s"] = s["rational.generate_invariants"]
        ratio("rational.generate.irreducible_yield", e["generate.found"],
              e["generate.transforms"])

        out["counting.formula.self_s"] = s["counting.count_invariants_formula"]
        out["counting.brute.self_s"] = s["counting.count_invariants_bruteforce"]
        out["counting.criterion.self_s"] = (s["counting.count_via_criterion"]
                                            + s["counting.count_factors_of_degree"])
        out["counting.trial_divisions"] = e["criterion.trials"]
        ratio("counting.factor_hit_ratio", e["criterion.hits"], e["criterion.trials"])

        out["verify.self_s"] = layer_self("verify")
        out["verify.rows"] = e["verify.rows"]
        return out
