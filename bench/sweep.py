"""One workload in one process: set-up, whole timed passes, checks, metrics.

Started by run.py, which passes the monotonic time at which it launched this
process, so that set-up time counts from process start.  The last line of
standard output is the result object.  Standard error carries one line per
problem found.

Untraced runs report end-to-end metrics from times scaled to a reference
speed (see speed.py); the raw wall times go to the run's detail file too.
Traced runs report per-layer self times, unscaled, and no end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from speed import SpeedTrack

# set-ups per run; set-up is timed each time and its median reported
SETUP_REPEATS = 2
# whole passes per run at least, so that verdict_max_s is a median of maxima
# and every cheap verdict is timed at two points of the run
MIN_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() at which the parent started this process")
    ap.add_argument("--out-dir", required=True)
    return ap.parse_args(argv)


def run_passes(verdicts, seconds, phase, probe):
    """Whole passes until the timed wall total reaches `seconds` (and MIN_PASSES).

    After the first pass every output is checked; after later passes each
    must reproduce the first pass's canonical JSON byte for byte.  Returns
    (per-pass (start, end) intervals of each verdict, failed count, problems).
    """
    clock = time.monotonic
    first_digest: dict[int, str | None] = {}
    first_ok: dict[int, bool] = {}
    passes: list[list[tuple[float, float]]] = []
    failed = 0
    problems: list[str] = []
    measured = 0.0
    while measured < seconds or len(passes) < MIN_PASSES:
        spans = []
        outputs = []
        with phase("pass"):
            for v in verdicts:
                probe()
                t0 = clock()
                try:
                    outputs.append(v.run())
                except Exception:  # a crashed verdict is a failed operation
                    outputs.append((None, None))
                    problems.append(f"{v.name}: raised\n{traceback.format_exc()}")
                spans.append((t0, clock()))
        # checked outside the pass, so that the traced run does not count the
        # library calls the checks make
        for i, (v, (rep, text)) in enumerate(zip(verdicts, outputs)):
            digest = hashlib.sha256(text.encode()).hexdigest() if text else None
            if not passes:
                errs = v.check(rep) if rep is not None else ["no report"]
                problems += [f"{v.name}: {e}" for e in errs]
                first_ok[i] = not errs
                first_digest[i] = digest
                ok = first_ok[i]
            else:
                ok = first_ok[i] and digest == first_digest[i]
                if digest != first_digest[i]:
                    problems.append(f"{v.name}: output differs from the first pass")
            failed += not ok
        passes.append(spans)
        measured += sum(t1 - t0 for t0, t1 in spans)
    return passes, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    track = SpeedTrack() if tracer is None else None
    phase = tracer.phase_scope if tracer else (lambda kind: contextlib.nullcontext())
    with track or contextlib.nullcontext():
        import workloads

        setup_fn = workloads.WORKLOADS[args.workload]
        with tracer.installed() if tracer else contextlib.nullcontext():
            ready = time.monotonic()
            setups = []
            for _ in range(SETUP_REPEATS):
                with phase("setup"):
                    t0 = time.monotonic()
                    verdicts = setup_fn(args.seed)
                    setups.append((t0, time.monotonic()))
            passes, failed, problems = run_passes(
                verdicts, args.seconds, phase, track.sample if track else lambda: None)

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    attempted = sum(len(p) for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "verdicts": [v.name for v in verdicts],
        "raw_import_s": ready - args.started,
        "raw_setup_s": [t1 - t0 for t0, t1 in setups],
        "raw_pass_times_s": [[t1 - t0 for t0, t1 in p] for p in passes],
        "problems": problems,
    }
    if track is not None:
        scaled = [[track.scaled(t0, t1) for t0, t1 in p] for p in passes]
        all_times = [t for p in scaled for t in p]
        setup_s = (track.scaled(args.started, ready)
                   + statistics.median(track.scaled(t0, t1) for t0, t1 in setups))
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "verdicts_per_s": {"value": len(all_times) / sum(all_times), "unit": "1/s"},
            "verdict_p50_s": {"value": statistics.median(all_times), "unit": "s"},
            "verdict_max_s": {"value": statistics.median(max(p) for p in scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        detail["pass_times_s"] = scaled
        detail["speed_probe"] = track.summary()
    else:
        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        result["metrics"] = tracer.per_layer_metrics()
        detail["trace_file"] = trace_path
        detail["spans"] = len(tracer.start)
    detail.update(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
