"""pgl2poly benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the benchmark measures that tree's
`src/`, never an installed copy.  With --trace 0 it times fresh worker
starts (set-up), then lets one worker serve whole passes over the seed's
request list until S seconds have gone by, each pass with the program's
caches emptied first.  The worker times a fixed calibration routine before
every request, and each latency is scaled to the machine speed at which
that routine takes CALIBRATION_MS, as measured around that request (see
worker.Calibration): the speed of a shared machine drifts by a third
between minutes, far more than a change worth measuring.  Every request's
latency is then the median over the passes, and the latency metrics and
requests_per_s are taken over those medians.  The report also prints them
unscaled.  All passes must print the same output.  With --trace 1 one
worker serves one pass untraced and a second serves it again with
per-layer tracing; it reports the per-layer metrics and the tracing
overhead, and fails the run unless both produced the same output.  S does
not apply to --trace 1: the traced pass is fixed, so its counts repeat
exactly for a seed.

Metric names and units come from BENCHMARK.json.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_STARTS = 14             # fresh starts timed before the measured one
TAIL_BEYOND = 10              # requests that must lie beyond the tail percentile
RUN_LIMIT_S = 170             # every worker is stopped by then
CALIBRATION_MS = 3.0          # the calibration routine's time at nominal speed
CALIBRATION_WINDOW = 8        # requests on each side whose samples set the speed


class BenchError(Exception):
    pass


class Worker:
    """A worker process; `ready_s` is the time from launch until it printed
    `ready`.  Output after that is read by `finish`."""

    def __init__(self, args, mode: str, deadline: float):
        self.deadline = deadline
        fields = ";".join(f"{p},{s}" for p, s in WORKLOADS[args.workload].fields)
        # -S: no site-packages, so no installed pgl2poly and no .pth start-up work
        cmd = [sys.executable, "-S", str(WORKER), "--workload", args.workload,
               "--fields", fields, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
        # fixed hashing makes set iteration, and so every count, repeatable
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.perf_counter()
        # unbuffered, so reading the `ready` line consumes nothing after it
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, bufsize=0,
                                     stdout=subprocess.PIPE)
        readable, _, _ = select.select([self.proc.stdout], [], [],
                                       max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if readable else b""
        self.ready_s = time.perf_counter() - start
        if line.strip() != b"ready":
            self.output()
            raise BenchError(f"{mode} worker did not get ready")

    def output(self) -> str:
        """Everything the worker prints until it exits, which must be 0."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"worker still running after {RUN_LIMIT_S} s") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out.decode()

    def finish(self) -> dict:
        """The JSON result the worker printed last."""
        try:
            return json.loads(self.output().strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError("worker printed no result") from None


def tail_latency(sorted_ms):
    """(percentile, value) at the highest percentile that still has
    TAIL_BEYOND requests beyond it; the median when too few requests ran."""
    n = len(sorted_ms)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(sorted_ms)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted_ms[n - TAIL_BEYOND - 1]


def scaled(passes, calibration_ms):
    """Each latency times CALIBRATION_MS over the median calibration time of
    the requests around it in its pass: its time at nominal machine speed."""
    w = CALIBRATION_WINDOW
    return [[ms * CALIBRATION_MS / statistics.median(cal[max(0, i - w):i + w + 1])
             for i, ms in enumerate(lat)]
            for lat, cal in zip(passes, calibration_ms)]


def timing_metrics(passes) -> dict:
    """requests_per_s and the latency metrics over each request's median
    latency across `passes` (lists of milliseconds in request order)."""
    lat = sorted(statistics.median(samples) for samples in zip(*passes))
    pct, tail = tail_latency(lat)
    return {
        "requests_per_s": 1000.0 * len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "tail_percentile": pct,
    }


def metadata(seed: int) -> dict:
    src = sorted((ROOT / "src" / "pgl2poly").glob("*.py"))
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_pgl2poly_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def git_commit() -> str:
    """HEAD of the tree's git checkout, or 'unknown' outside one."""
    try:
        # the ceiling keeps git from looking above the tree
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(args, deadline) -> tuple[dict, dict, list, list]:
    setup = []
    for _ in range(SETUP_STARTS):
        worker = Worker(args, "setup", deadline)
        worker.output()
        setup.append(worker.ready_s)
    worker = Worker(args, "run", deadline)
    setup.append(worker.ready_s)
    run = worker.finish()

    passes = run["latencies_ms"]
    values = timing_metrics(scaled(passes, run["calibration_ms"]))
    pct = values.pop("tail_percentile")
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = run["peak_rss_mb"]
    unscaled = timing_metrics(passes)
    failed_share = run["failed"] / run["attempted"]
    problems = [] if run["digests_agree"] else ["passes printed different output"]
    report = [
        f"{len(passes)} passes of {len(passes[0])} requests in {run['wall_s']:.2f} s "
        "(one client, closed loop); pass times "
        + ", ".join(f"{sum(p) / 1000:.2f}" for p in passes) + " s",
        f"latency metrics are over per-request medians; latency_tail_ms is "
        f"p{pct:.2f} of {len(passes[0])} requests",
        f"calibration (nominal {CALIBRATION_MS} ms), median per pass: "
        + ", ".join(f"{statistics.median(ms):.3f}" for ms in run["calibration_ms"])
        + " ms",
        "unscaled: " + ", ".join(f"{name} {unscaled[name]:.6g}" for name in
                                 ("requests_per_s", "latency_p50_ms", "latency_tail_ms")),
        f"setup_s is the median of {len(setup)} fresh starts",
        f"failed_share {failed_share:.6g} ratio ({run['failed']} of {run['attempted']})",
        f"stdout sha256 of one pass: {run['digest']}",
    ]
    return values, run, report + problems, problems


def per_layer(args, deadline) -> tuple[dict, dict, list, list]:
    plain = Worker(args, "pass", deadline).finish()
    traced = Worker(args, "trace", deadline).finish()
    values = dict(traced["trace"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
    }
    problems = []
    if plain["digest"] != traced["digest"]:
        problems.append("traced output differs from untraced output")
    if not traced["restored"]:
        problems.append("a traced binding was not restored")
    report = [
        f"one pass: {plain['attempted']} requests, untraced {plain['wall_s']:.2f} s, "
        f"traced {traced['wall_s']:.2f} s",
        f"stdout sha256 untraced {plain['digest']}",
        f"stdout sha256 traced   {traced['digest']}",
        "bindings restored" if traced["restored"] else "bindings NOT restored",
    ]
    return values, run, report + problems, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "pgl2poly" / "__init__.py").is_file():
        print(f"error: no pgl2poly source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        measure = per_layer if args.trace else end_to_end
        values, run, report, problems = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(f"error: measured {sorted(set(values) ^ names)} "
              "differently from BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in wanted:
        print(f"  {m['name']:<48} {values[m['name']]:>16.6g} {m['unit']}")
    for line in report + run["failures"]:
        print(line)
    print(json.dumps({"meta": metadata(args.seed)}, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
