"""One benchmark worker: a fresh interpreter that serves one workload.

It imports `pgl2poly` from the `src/` of the tree it sits in, builds the
workload's fields, prints `ready`, and then sends the workload's requests
one at a time through `pgl2poly.cli.main(argv)` in-process on one thread,
each only after the previous one returned (a closed loop with one client).
Its last stdout line is one JSON object with what it measured.  run.py
starts it; the modes are

  setup   stop once ready (a set-up time sample)
  run     serve whole passes over the request list until --seconds have gone by
  pass    serve one pass
  trace   serve one pass with the tracer installed

Every pass starts with the program's session caches (SESSION_CACHES) empty.
In `run` mode the worker also times a fixed calibration routine before every
request (see `Calibration`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Everything else the worker needs is imported after it reports `ready`, so
# that the set-up time it samples is the interpreter's and the program's.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUEST_LIMIT_S = 60          # a request running longer fails
FAILURES_SHOWN = 10
# lru caches that requests fill: (module, function)
SESSION_CACHES = (("polynomials", "is_irreducible"),
                  ("polynomials", "enumerate_monic_irreducibles"),
                  ("action", "invariant_set"))


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that ran past REQUEST_LIMIT_S."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def _call(cli, argv):
    """(exit code, stdout, seconds, problem) for one request."""
    import contextlib
    import io
    import signal
    import traceback
    out, err = io.StringIO(), io.StringIO()
    rc, problem = None, None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except RequestTimeout:
        problem = f"no answer within {REQUEST_LIMIT_S} s"
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        problem = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if problem is None and "Traceback" in err.getvalue():
        problem = "traceback on stderr"
    return rc, out.getvalue(), seconds, problem


class Calibration:
    """A fixed pure-Python routine, timed between requests.  On a shared
    2-core virtual machine, speed was seen to drift by a third from one
    minute to the next (other tenants share the cores), alike for this
    routine and for the program: both are table lookups, small tuples and
    Python calls.  run.py scales each request's latency by the routine's
    time around that request, so that the reported timings follow the
    program, not the machine.  The routine is the projective order, by
    repeated multiplication, of fixed matrices over GF(49) in the
    benchmark's own `gf`, never in the program."""

    MATRICES = 200

    def __init__(self):
        import random
        import gf
        self.gf = gf
        self.field = gf.GF(7, 2)
        rng = random.Random("calibration")
        self.matrices = []
        while len(self.matrices) < self.MATRICES:
            m = tuple(rng.randrange(self.field.q) for _ in range(4))
            if gf.det(self.field, m):
                self.matrices.append(m)
        self.sample()                           # warm up

    def sample(self) -> float:
        """Milliseconds for one run of the routine."""
        order, field = self.gf.proj_order, self.field
        start = time.perf_counter()
        for m in self.matrices:
            order(field, m)
        return (time.perf_counter() - start) * 1000.0


def serve(cli, requests, seconds: float, caches=(), calibration=None) -> dict:
    """Serve whole passes over `requests` until `seconds` have gone by, and
    at least one.  Each pass first empties `caches`, so that every pass pays
    what a fresh CLI session pays and every pass costs the same.  With a
    `calibration`, a sample of it is taken before every request."""
    import hashlib
    import resource
    latencies, calibration_ms, digests, failures = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        for cache in caches:
            cache.cache_clear()
        digest = hashlib.sha256()
        pass_ms, samples = [], []
        for req in requests:
            if calibration is not None:
                samples.append(calibration.sample())
            rc, out, elapsed, problem = _call(cli, req.argv)
            pass_ms.append(elapsed * 1000.0)
            if problem is None:
                problem = req.check(rc, out)
            if problem is not None:
                failed += 1
                if len(failures) < FAILURES_SHOWN:
                    failures.append(f"{' '.join(req.argv)}: {problem}")
            digest.update(out.encode())
        latencies.append(pass_ms)
        if samples:
            calibration_ms.append(samples)
        digests.append(digest.hexdigest())
    return {
        "wall_s": time.perf_counter() - start,
        "latencies_ms": latencies,
        "calibration_ms": calibration_ms,
        "attempted": len(requests) * len(latencies),
        "failed": failed,
        "failures": failures,
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def field_op_ns(fields, seed: int) -> dict:
    """Nanoseconds per untraced field operation on the workload's fields:
    the median of five timed sweeps over fixed random operands."""
    import random
    import statistics
    from pgl2poly.fields import make_ext, make_field
    rng = random.Random(f"field-ops/{seed}")

    def operands(specs, count=2000):
        pairs = []
        for spec in specs:
            for _ in range(count // len(specs)):
                pairs.append((spec.from_encoding(rng.randrange(1, spec.order)),
                              spec.from_encoding(rng.randrange(1, spec.order))))
        return pairs

    def ns_per_op(op, pairs):
        if not pairs:
            return 0.0
        sweeps = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for x, y in pairs:
                op(x, y)
            sweeps.append((time.perf_counter_ns() - start) / len(pairs))
        return statistics.median(sweeps)

    bases = [make_field(p, s) for p, s in fields]
    prime = operands([f for f in bases if f.s == 1])
    ext_coeff = operands([f for f in bases if f.s > 1])
    every = operands(bases)
    quadratic = operands([make_ext(f) for f in bases])
    return {
        "fields.felt_mul.ns.prime": ns_per_op(lambda x, y: x * y, prime),
        "fields.felt_mul.ns.ext": ns_per_op(lambda x, y: x * y, ext_coeff),
        "fields.ext_mul.ns": ns_per_op(lambda x, y: x * y, quadratic),
        "fields.felt_inverse.ns": ns_per_op(lambda x, y: x.inverse(), every),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--fields", required=True, help="p,s pairs joined by ';'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "pass", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import pgl2poly.cli as cli
    from pgl2poly.fields import make_ext, make_field
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(src, "pgl2poly"):
        print(f"error: imported {cli.__file__}, not the tree under {ROOT}",
              file=sys.stderr)
        return 2
    fields = [tuple(map(int, f.split(","))) for f in args.fields.split(";")]
    start = time.perf_counter()
    for p, s in fields:
        make_ext(make_field(p, s))
    fields_setup_s = time.perf_counter() - start
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    import importlib
    import json
    import signal
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _on_alarm)
    caches = [getattr(importlib.import_module(f"pgl2poly.{module}"), name)
              for module, name in SESSION_CACHES]
    requests = WORKLOADS[args.workload].requests(args.seed)
    if args.mode == "run":
        result = serve(cli, requests, args.seconds, caches, Calibration())
    elif args.mode == "pass":
        result = serve(cli, requests, 0, caches)
    else:
        from tracer import Tracer
        field_ns = field_op_ns(fields, args.seed)
        for cache in caches:                     # before the tracer reads cache_info
            cache.cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            result = serve(cli, requests, 0)
        finally:
            restored = tracer.restore()
        metrics = tracer.metrics(tracer.cache_deltas())
        metrics.update(field_ns)
        metrics["fields.setup_s"] = fields_setup_s
        result["trace"] = metrics
        result["restored"] = restored
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
