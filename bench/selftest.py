"""Self-test of the benchmark itself.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all by default): two traced runs with one seed must pass
every check and report identical per-layer counts and ratios (every metric
whose unit is not a time), and a short untraced run with another seed must
pass every check too.  Exits 1 on the first workload that does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TIME_UNITS = {"s", "ms", "ns"}
SEED = 1
OTHER_SEED = 2


def bench(workload: str, seed: int, trace: int, seconds: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    for name in args.workloads:
        first = bench(name, SEED, 1)
        second = bench(name, SEED, 1)
        other = bench(name, OTHER_SEED, 0)
        counts = [m for m, v in first["metrics"].items() if v["unit"] not in TIME_UNITS]
        differ = [m for m in counts
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        problems = []
        for label, run in (("first traced run", first), ("second traced run", second),
                           (f"seed {OTHER_SEED}", other)):
            if not run["correct"] or run["failed"]:
                problems.append(f"{label}: {run['failed']} of {run['attempted']} failed")
        if differ:
            problems.append(f"counts differ between traced runs: {differ}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            return 1
        print(f"ok   {name}: {len(counts)} counts repeat exactly over "
              f"{first['attempted'] // 2} requests; seed {OTHER_SEED} passes "
              f"{other['attempted']} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
