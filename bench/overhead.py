"""Tracing overhead: untraced and traced passes of one workload, alternated
in one process and timed with the speed probe of the untraced runs.

    python3 bench/overhead.py --workload bicone-slice --seed 1 --rounds 4

Prints each round's traced/untraced ratio of the scaled pass time (the sum
of the verdicts' scaled times) and their median.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedTrack  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=4)
    args = ap.parse_args(argv)

    verdicts = workloads.WORKLOADS[args.workload](args.seed)
    with SpeedTrack() as track:

        def one_pass(traced: bool) -> list[tuple[float, float]]:
            tracer = Tracer()
            spans = []
            with tracer.installed() if traced else contextlib.nullcontext():
                with tracer.phase_scope("pass"):
                    for v in verdicts:
                        track.sample()
                        t0 = time.monotonic()
                        v.run()
                        spans.append((t0, time.monotonic()))
            return spans

        one_pass(False)  # first pass fills the per-algebra caches
        rounds = []
        for r in range(args.rounds):
            order = (False, True) if r % 2 == 0 else (True, False)
            rounds.append(dict((traced, one_pass(traced)) for traced in order))
    ratios = []
    for spans in rounds:
        scaled = {k: sum(track.scaled(t0, t1) for t0, t1 in v) for k, v in spans.items()}
        ratios.append(scaled[True] / scaled[False])
    print(json.dumps({"workload": args.workload, "ratios": ratios,
                      "median": statistics.median(ratios)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
