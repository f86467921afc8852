"""Benchmark command for argshift.

    python3 bench/run.py --workload regseq-sweep --seed 1 --seconds 15 --trace 0

Runs one workload in its own single-threaded process on the library under
src/ of the checkout this file sits in, and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
the run records spans and reports the per-layer ones instead.  Details of the
run (every verdict time, every problem, the trace) go to bench/out/.

Exits non-zero without a result when the library is missing, when the
workload process fails, or when it runs past its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("regseq-sweep", "commute-sweep", "bicone-slice")
# a run must end within 180 s; stop the workload process before that
CHILD_LIMIT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="argshift benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "argshift", "__init__.py")):
        print(f"error: no argshift sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [
        sys.executable, os.path.join(HERE, "sweep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--started", repr(started)], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: workload ran past {CHILD_LIMIT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 4
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: workload printed no result", file=sys.stderr)
        return 5
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
